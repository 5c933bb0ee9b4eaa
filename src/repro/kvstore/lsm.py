"""Durable LSM-tree implementation of :class:`~repro.kvstore.api.KeyValueStore`.

Directory layout::

    <path>/MANIFEST            JSON: tables, SSTable list, flush watermark
    <path>/wal.log             active write-ahead log
    <path>/wal-<n>.log         frozen WAL segments awaiting a flush
    <path>/sst-<n>.sst         immutable sorted tables (oldest = lowest n
                               position in the manifest list)

Write path: WAL append -> memtable; the memtable flushes to a new SSTable
once it exceeds ``memtable_flush_bytes``.  Read path: active memtable, then
the sealed (flushing) memtable, then SSTables newest-to-oldest, combining
merge deltas with the table's merge operator.  Size-tiered compaction keeps
the SSTable count bounded.

Keys are namespaced by a 2-byte table id so one physical file set serves all
logical tables, exactly as a Cassandra keyspace does.

Concurrency model (thread-safe since the serving-layer rework):

* A write-preferring :class:`~repro.kvstore.locks.RWLock` guards all
  in-memory state; gets/scans share it, mutations are exclusive.  The write
  side is held only for in-memory work -- never across flush or compaction
  disk I/O.
* **Flush handoff**: a flush seals the active memtable into an immutable
  one and rotates the WAL (both O(1), under the write lock), builds the
  SSTable from the sealed memtable with *no* lock held, then installs the
  reader and manifest under the write lock again.  Readers consult the
  sealed memtable in the meantime, so reads never block behind a flush.
  If the SSTable build fails (e.g. ENOSPC), the sealed memtable is kept as
  a *pending* handoff: it stays readable, its frozen WAL segment stays on
  disk, and every later flush retries it before sealing anything new -- an
  acknowledged write is never dropped by a failed flush.
* **Compaction** (inline after a flush, or on a
  :class:`~repro.kvstore.compaction.BackgroundCompactor` thread) merges a
  snapshot of the run lock-free, CRC-verifies the candidate output, and
  atomically swaps the SSTable set + manifest under the write lock.  A
  corrupt candidate aborts the swap (``compaction_aborts`` metric) and
  reads keep serving from the pre-compaction tables; a crash between
  output and swap leaves an orphan file the manifest never references.
* WAL rotation means flushes delete fully-persisted frozen segments
  instead of truncating a shared file, so writes that raced past a seal
  are never lost; replay applies every segment, filtered by the manifest's
  flush watermark.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import struct
import threading
from typing import Any, Iterable, Iterator

from repro.faults.io import REAL_IO
from repro.kvstore.api import (
    CorruptionError,
    KeyValueStore,
    MergeUnsupportedError,
    StoreClosedError,
    UnknownTableError,
    normalize_key,
)
from repro.kvstore.cache import BlockCache
from repro.kvstore.compaction import (
    BackgroundCompactor,
    LeveledConfig,
    LeveledPlan,
    merge_records,
    plan_leveled,
    plan_size_tiered,
)
from repro.kvstore.encoding import (
    Key,
    KeyPart,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
)
from repro.kvstore import blockcodec
from repro.kvstore.locks import RWLock
from repro.kvstore.memtable import (
    BASE_DELETE,
    BASE_PUT,
    TOMBSTONE,
    Memtable,
)
from repro.kvstore.merge import MergeOperator, resolve_merge_operator
from repro.kvstore.sstable import SSTableReader, SSTableWriter
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT, WriteAheadLog
from repro.obs.registry import REGISTRY, store_samples
from repro.obs.trace import current_tracer

_TABLE_PREFIX = struct.Struct(">H")
MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
_WAL_SEGMENT_RE = re.compile(r"^wal-(\d+)\.log$")


class StoreMetrics:
    """Operation counters exposed for tests, benchmarks and tuning.

    Counting is monotonic over the store's lifetime (not persisted) and
    thread-safe; ``bloom_skips`` counts SSTables that a point read skipped
    thanks to a negative bloom-filter probe, ``block_cache_hits``/``misses``
    mirror the shared SSTable block cache, and ``compaction_aborts`` counts
    compactions whose candidate output failed the pre-swap integrity check
    (reads then keep serving from the pre-compaction tables).

    ``multi_get_batches`` counts batched read calls (each also bumps
    ``gets`` once per key).  ``postings_cache_hits``/``misses`` and
    ``planner_reorders`` are bumped by the query layer
    (:class:`repro.core.engine.SequenceIndex`) onto its store's metrics so
    serving-path counters live in one snapshot.

    ``flush_bytes_written`` / ``compaction_bytes_rewritten`` account every
    data byte a flush persisted and every data byte a compaction merge
    re-persisted; their ratio is the store's write amplification, which is
    what the leveled-vs-size-tiered ablation measures.
    ``compaction_moves`` counts leveled trivial moves (promotions that
    re-levelled a table in the manifest without rewriting it).
    ``block_reads`` counts physical data-block loads and
    ``lazy_meta_loads`` counts lazily-opened SSTables that materialized
    their index/bloom metadata -- both stay at zero across a lazy reopen
    until the first read arrives.

    Counters are sharded per thread so :meth:`bump` never takes a lock --
    concurrent readers do not serialize on a shared metrics mutex.
    :meth:`snapshot` (and attribute reads like ``metrics.gets``) aggregate
    the shards; a shard outlives its thread, so no counts are ever dropped.

    **Snapshot consistency** (see ``docs/METRICS.md``): :meth:`snapshot`
    copies each shard *atomically* in a single pass (one C-level dict copy
    per shard under the GIL), so per-thread counter relationships are
    preserved -- if a thread always bumps counter A before counter B, no
    snapshot can ever show B ahead of A.  Counters bumped at different
    times by *different* threads carry no such guarantee (the shard copies
    are taken a few microseconds apart), and two attribute reads like
    ``metrics.gets``/``metrics.bloom_skips`` each take their own snapshot;
    use one :meth:`snapshot` call when related counters must be compared.
    """

    _COUNTERS = (
        "puts",
        "merges",
        "deletes",
        "gets",
        "scans",
        "flushes",
        "compactions",
        "compaction_aborts",
        "bloom_skips",
        "sstable_reads",
        "block_cache_hits",
        "block_cache_misses",
        "multi_get_batches",
        "compressed_blocks",
        "mmap_block_hits",
        "postings_cache_hits",
        "postings_cache_misses",
        "sequence_cache_hits",
        "sequence_cache_misses",
        "planner_reorders",
        "flush_bytes_written",
        "compaction_bytes_rewritten",
        "compaction_moves",
        "block_reads",
        "lazy_meta_loads",
    )

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()  # guards _shards membership only
        self._local = threading.local()
        self._shards: list[dict[str, int]] = []

    def _shard(self) -> dict[str, int]:
        shard = getattr(self._local, "counters", None)
        if shard is None:
            shard = dict.fromkeys(self._COUNTERS, 0)
            with self._registry_lock:
                self._shards.append(shard)
            self._local.counters = shard
        return shard

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment one counter (lock-free: writes this thread's shard)."""
        self._shard()[name] += amount

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict (sums all shards).

        Single-pass: every shard is captured once with an atomic dict copy
        (``dict(shard)`` runs entirely in C under the GIL), so a shard's
        counters are mutually consistent -- a writer's bump sequence can
        never be observed out of order within its own shard.  The previous
        counter-major aggregation re-read each shard once per counter,
        which could tear related counters (e.g. report more
        ``sstable_reads`` than ``gets``); the shard-major pass cannot.
        """
        with self._registry_lock:
            copies = [dict(shard) for shard in self._shards]
        totals = dict.fromkeys(self._COUNTERS, 0)
        for copy in copies:
            for name, value in copy.items():
                totals[name] += value
        return totals

    def __getattr__(self, name: str) -> int:
        # Keep `metrics.gets`-style reads working over the sharded layout.
        if name in type(self)._COUNTERS:
            return self.snapshot()[name]
        raise AttributeError(name)


class LSMStore(KeyValueStore):
    """File-backed LSM store; see the module docstring for the design."""

    def __init__(
        self,
        path: str,
        memtable_flush_bytes: int = 4 * 1024 * 1024,
        sync_wal: bool = False,
        compaction_min_tables: int = 4,
        auto_compact: bool = True,
        background_compaction: bool = False,
        block_cache_bytes: int = 8 * 1024 * 1024,
        compression: str | None = None,
        mmap: bool = False,
        io=None,
        compaction: str = "size_tiered",
        leveled: LeveledConfig | None = None,
        lazy_open: bool = True,
    ) -> None:
        self._path = path
        #: filesystem shim for durability-critical I/O; tests inject a
        #: :class:`repro.faults.FaultyIO` here, production uses ``REAL_IO``.
        self._io = io or REAL_IO
        self._memtable_flush_bytes = memtable_flush_bytes
        self._sync_wal = sync_wal
        self._compaction_min_tables = compaction_min_tables
        self._auto_compact = auto_compact
        # The strategy knob only affects how future compactions are
        # *planned*; both strategies read the same flat, shadow-ordered
        # table list, so a store written under one reopens (and keeps
        # compacting) under the other with no migration step.
        if compaction not in ("size_tiered", "leveled"):
            raise ValueError(f"unknown compaction strategy {compaction!r}")
        self._compaction = compaction
        if leveled is not None:
            self._leveled_config = leveled
        else:
            self._leveled_config = LeveledConfig(
                l0_compact_tables=max(2, compaction_min_tables)
            )
        #: lazy manifest-only open: readers defer index/bloom until first
        #: use, so reopen cost is O(manifest), not O(data).
        self._lazy_open = lazy_open
        # Fail fast on an unknown/unavailable codec (e.g. zstd without the
        # zstandard package) instead of erroring at first flush.  The knob
        # only affects *writes*: readers dispatch per file on the header
        # magic, so a store written with compression on reopens (and keeps
        # compacting) with compression off, and vice versa.
        blockcodec.resolve_compression(compression)
        self._compression = compression
        self._mmap = mmap
        self._state_lock = RWLock()
        self._flush_lock = threading.Lock()
        self._compaction_lock = threading.Lock()
        self._closed = False
        os.makedirs(path, exist_ok=True)

        self.metrics = StoreMetrics()
        self._block_cache = (
            BlockCache(block_cache_bytes, metrics=self.metrics)
            if block_cache_bytes > 0
            else None
        )
        self._tables: dict[str, int] = {}
        self._merge_ops: dict[int, MergeOperator | None] = {}
        self._merge_op_names: dict[str, str | None] = {}
        self._sstables: list[SSTableReader] = []  # oldest -> newest
        self._immutable: Memtable | None = None  # sealed, being flushed
        #: a sealed-but-unpersisted handoff left behind by a failed flush;
        #: retried (under ``_flush_lock``) before any new memtable is sealed.
        self._pending_flush: tuple[Memtable, int, int] | None = None
        self._next_table_id = 1
        self._next_sst_id = 1
        self._next_wal_id = 1
        self._last_flushed_seq = 0
        self._next_seq = 1

        self._load_manifest()
        self._memtable = Memtable()
        self._replay_wal()
        self._wal = WriteAheadLog(
            os.path.join(path, WAL_NAME), sync=sync_wal, io=self._io
        )
        self._compactor = BackgroundCompactor(self) if background_compaction else None
        #: identity used in metrics exposition labels
        self.obs_name = path
        self._obs_handle = REGISTRY.register(
            {"store": self.obs_name, "backend": "lsm"}, self._collect_obs_metrics
        )

    # -- manifest and recovery -------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self._path, MANIFEST_NAME)

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not os.path.exists(path):
            self._write_manifest()
            return
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        self._next_table_id = manifest["next_table_id"]
        self._next_sst_id = manifest["next_sst_id"]
        self._last_flushed_seq = manifest["last_flushed_seq"]
        for name, spec in manifest["tables"].items():
            table_id = spec["id"]
            op_name = spec["merge"]
            self._tables[name] = table_id
            self._merge_op_names[name] = op_name
            self._merge_ops[table_id] = (
                resolve_merge_operator(op_name) if op_name else None
            )
        for entry in manifest["sstables"]:
            if isinstance(entry, str):  # manifest v1: plain filename, L0
                filename, level, min_key, max_key = entry, 0, None, None
            else:
                filename = entry["file"]
                level = int(entry.get("level", 0))
                min_key = (
                    bytes.fromhex(entry["min_key"]) if entry.get("min_key") else None
                )
                max_key = (
                    bytes.fromhex(entry["max_key"]) if entry.get("max_key") else None
                )
            reader = SSTableReader(
                os.path.join(self._path, filename),
                cache=self._block_cache,
                io=self._io,
                use_mmap=self._mmap,
                metrics=self.metrics,
                lazy=self._lazy_open,
            )
            reader.level = level
            reader.min_key = min_key
            reader.max_key = max_key
            self._sstables.append(reader)
        self._validate_levels()

    def _validate_levels(self) -> None:
        """Demote every table to L0 if the manifest's level layout is unsound.

        The flat manifest order is what reads trust (oldest shadow first),
        so interpreting *any* layout as all-L0 is always correct -- L0
        imposes nothing beyond that order.  Keeping deeper levels, however,
        lets the planner reorder tables within a level and skip shadow
        checks between disjoint runs, so levels survive a reload only when
        the invariants actually hold: flat order non-increasing in level
        (deepest first) and every L1+ level a key-disjoint run with known
        bounds.  A size-tiered store's manifest (all L0) passes trivially;
        a manifest scrambled by a size-tiered round over a formerly
        leveled store demotes cleanly and the leveled planner rebuilds
        the levels from scratch.
        """
        sound = True
        prev: int | None = None
        for reader in self._sstables:
            if reader.level < 0 or (prev is not None and reader.level > prev):
                sound = False
                break
            prev = reader.level
        if sound:
            by_level: dict[int, list[SSTableReader]] = {}
            for reader in self._sstables:
                if reader.level >= 1:
                    if (
                        reader.min_key is None
                        or reader.max_key is None
                        or reader.min_key > reader.max_key
                    ):
                        sound = False
                        break
                    by_level.setdefault(reader.level, []).append(reader)
            if sound:
                for tables in by_level.values():
                    tables.sort(key=lambda r: r.min_key)
                    if any(
                        a.max_key >= b.min_key
                        for a, b in zip(tables, tables[1:])
                    ):
                        sound = False
                        break
        if not sound:
            for reader in self._sstables:
                reader.level = 0  # key bounds stay: they are still true

    def _write_manifest(self) -> None:
        manifest = {
            "version": 2,
            "compaction": self._compaction,
            "next_table_id": self._next_table_id,
            "next_sst_id": self._next_sst_id,
            "last_flushed_seq": self._last_flushed_seq,
            "tables": {
                name: {"id": table_id, "merge": self._merge_op_names.get(name)}
                for name, table_id in self._tables.items()
            },
            "sstables": [
                {
                    "file": os.path.basename(r.path),
                    "level": r.level,
                    "min_key": r.min_key.hex() if r.min_key is not None else None,
                    "max_key": r.max_key.hex() if r.max_key is not None else None,
                    "records": r.record_count,
                    "data_bytes": r.data_bytes,
                }
                for r in self._sstables
            ],
        }
        tmp = self._manifest_path() + ".tmp"
        fh = self._io.open(tmp, "wb")
        try:
            fh.write(json.dumps(manifest).encode("utf-8"))
            fh.flush()
            self._io.fsync(fh)
        finally:
            fh.close()
        self._io.replace(tmp, self._manifest_path())

    def _wal_segments(self) -> list[tuple[int, str]]:
        """Frozen WAL segments as ``(id, path)``, oldest first."""
        segments = []
        for name in os.listdir(self._path):
            match = _WAL_SEGMENT_RE.match(name)
            if match:
                segments.append((int(match.group(1)), os.path.join(self._path, name)))
        segments.sort()
        return segments

    def _replay_wal(self) -> None:
        max_seq = self._last_flushed_seq
        records = []
        for segment_id, segment_path in self._wal_segments():
            self._next_wal_id = max(self._next_wal_id, segment_id + 1)
            records.extend(WriteAheadLog.replay(segment_path))
        records.extend(WriteAheadLog.replay(os.path.join(self._path, WAL_NAME)))
        records.sort(key=lambda record: record.seqno)
        for record in records:
            if record.seqno > self._last_flushed_seq:
                self._memtable.apply(record.kind, record.key, record.value)
            max_seq = max(max_seq, record.seqno)
        self._next_seq = max_seq + 1

    def _remove_wal_segments(self, upto_id: int) -> None:
        for segment_id, segment_path in self._wal_segments():
            if segment_id <= upto_id:
                self._io.remove(segment_path)

    # -- table management -------------------------------------------------------

    def create_table(self, name: str, merge_operator: str | None = None) -> None:
        with self._state_lock.write():
            self._check_open()
            if name in self._tables:
                if self._merge_op_names.get(name) != merge_operator:
                    raise ValueError(
                        f"table {name!r} already exists with merge operator "
                        f"{self._merge_op_names.get(name)!r}, not {merge_operator!r}"
                    )
                return
            table_id = self._next_table_id
            self._next_table_id += 1
            self._tables[name] = table_id
            self._merge_op_names[name] = merge_operator
            self._merge_ops[table_id] = (
                resolve_merge_operator(merge_operator) if merge_operator else None
            )
            self._write_manifest()

    def has_table(self, name: str) -> bool:
        with self._state_lock.read():
            self._check_open()
            return name in self._tables

    def list_tables(self) -> list[str]:
        with self._state_lock.read():
            self._check_open()
            return sorted(self._tables)

    def _table_id(self, name: str) -> int:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} does not exist") from None

    def _full_key(self, table: str, key: KeyPart | Key) -> bytes:
        return _TABLE_PREFIX.pack(self._table_id(table)) + encode_key(normalize_key(key))

    def _operator_for_full_key(self, full_key: bytes) -> MergeOperator | None:
        (table_id,) = _TABLE_PREFIX.unpack_from(full_key, 0)
        return self._merge_ops.get(table_id)

    # -- write path ---------------------------------------------------------------

    def _log_and_apply(self, kind: int, table: str, key: KeyPart | Key, value: bytes) -> None:
        with self._state_lock.write():
            self._check_open()
            full_key = self._full_key(table, key)
            if kind == KIND_MERGE and self._operator_for_full_key(full_key) is None:
                raise MergeUnsupportedError(f"table {table!r} has no merge operator")
            seqno = self._next_seq
            self._next_seq += 1
            self._wal.append(seqno, kind, full_key, value)
            self._memtable.apply(kind, full_key, value)
            need_flush = (
                self._memtable.approximate_bytes >= self._memtable_flush_bytes
            )
        if need_flush:
            self._flush_if_over_threshold()

    def put(self, table: str, key: KeyPart | Key, value: Any) -> None:
        self.metrics.bump("puts")
        self._log_and_apply(KIND_PUT, table, key, encode_value(value))

    def merge(self, table: str, key: KeyPart | Key, delta: Any) -> None:
        self.metrics.bump("merges")
        self._log_and_apply(KIND_MERGE, table, key, encode_value(delta))

    def delete(self, table: str, key: KeyPart | Key) -> None:
        self.metrics.bump("deletes")
        self._log_and_apply(KIND_DELETE, table, key, b"")

    # -- read path -----------------------------------------------------------------

    def get(self, table: str, key: KeyPart | Key, default: Any = None) -> Any:
        self.metrics.bump("gets")
        with self._state_lock.read():
            self._check_open()
            full_key = self._full_key(table, key)
            operator = self._operator_for_full_key(full_key)
            pending: list[Any] = []  # merge deltas, newest first
            for memtable in (self._memtable, self._immutable):
                if memtable is None:
                    continue
                entry = memtable.lookup(full_key)
                if entry is None:
                    continue
                pending.extend(decode_value(d) for d in reversed(entry.deltas))
                if entry.base_kind == BASE_PUT:
                    base = (
                        decode_value(entry.base_value)
                        if entry.base_value is not None
                        else None
                    )
                    if not pending:
                        return base
                    return _require_op(operator).full_merge(
                        base, list(reversed(pending))
                    )
                if entry.base_kind == BASE_DELETE:
                    if not pending:
                        return default
                    return _require_op(operator).full_merge(
                        None, list(reversed(pending))
                    )
            for reader in reversed(self._sstables):
                if not reader.may_contain(full_key):
                    self.metrics.bump("bloom_skips")
                    continue
                self.metrics.bump("sstable_reads")
                record = reader.get(full_key)
                if record is None:
                    continue
                kind, raw = record
                if kind == KIND_MERGE:
                    pending.append(decode_value(raw))
                    continue
                base = decode_value(raw) if kind == KIND_PUT else None
                if not pending:
                    return base if kind == KIND_PUT else default
                return _require_op(operator).full_merge(base, list(reversed(pending)))
            if not pending:
                return default
            return _require_op(operator).full_merge(None, list(reversed(pending)))

    def multi_get(
        self,
        table: str,
        keys: Iterable[KeyPart | Key],
        default: Any = None,
    ) -> list[Any]:
        """Batched point reads against one consistent snapshot.

        The read lock is taken once for the whole batch; each memtable and
        SSTable is then probed in a single pass over the (deduplicated,
        sorted) key set, sharing bloom probes and block loads between
        neighbouring keys.  Merge-operator resolution, tombstones and the
        ``default`` are handled exactly as in :meth:`get`.
        """
        key_list = list(keys)
        self.metrics.bump("multi_get_batches")
        self.metrics.bump("gets", len(key_list))
        span = current_tracer().span("lsm.multi_get")
        bloom_skipped = sstable_probes = memtable_resolved = 0
        with span, self._state_lock.read():
            self._check_open()
            operator = self._merge_ops.get(self._table_id(table))
            full_by_norm: dict[Key, bytes] = {}
            norm_keys = []
            for key in key_list:
                norm = normalize_key(key)
                norm_keys.append(norm)
                if norm not in full_by_norm:
                    full_by_norm[norm] = self._full_key(table, norm)
            # Per unique key: accumulated merge deltas (newest first) until a
            # base record resolves it, mirroring get()'s layered resolution.
            pending: dict[bytes, list[Any]] = {fk: [] for fk in full_by_norm.values()}
            resolved: dict[bytes, Any] = {}
            unresolved = set(pending)
            for memtable in (self._memtable, self._immutable):
                if memtable is None or not unresolved:
                    continue
                for full_key in list(unresolved):
                    entry = memtable.lookup(full_key)
                    if entry is None:
                        continue
                    deltas = pending[full_key]
                    deltas.extend(decode_value(d) for d in reversed(entry.deltas))
                    if entry.base_kind == BASE_PUT:
                        base = (
                            decode_value(entry.base_value)
                            if entry.base_value is not None
                            else None
                        )
                        resolved[full_key] = (
                            base
                            if not deltas
                            else _require_op(operator).full_merge(
                                base, list(reversed(deltas))
                            )
                        )
                        unresolved.discard(full_key)
                    elif entry.base_kind == BASE_DELETE:
                        resolved[full_key] = (
                            default
                            if not deltas
                            else _require_op(operator).full_merge(
                                None, list(reversed(deltas))
                            )
                        )
                        unresolved.discard(full_key)
            memtable_resolved = len(resolved)
            for reader in reversed(self._sstables):
                if not unresolved:
                    break
                candidates = []
                for full_key in unresolved:
                    if reader.may_contain(full_key):
                        candidates.append(full_key)
                    else:
                        self.metrics.bump("bloom_skips")
                        bloom_skipped += 1
                if not candidates:
                    continue
                candidates.sort()
                self.metrics.bump("sstable_reads", len(candidates))
                sstable_probes += len(candidates)
                records = reader.get_many(candidates)
                for full_key in candidates:
                    record = records.get(full_key)
                    if record is None:
                        continue
                    kind, raw = record
                    deltas = pending[full_key]
                    if kind == KIND_MERGE:
                        deltas.append(decode_value(raw))
                        continue
                    base = decode_value(raw) if kind == KIND_PUT else None
                    if not deltas:
                        resolved[full_key] = base if kind == KIND_PUT else default
                    else:
                        resolved[full_key] = _require_op(operator).full_merge(
                            base, list(reversed(deltas))
                        )
                    unresolved.discard(full_key)
            for full_key in unresolved:
                deltas = pending[full_key]
                resolved[full_key] = (
                    default
                    if not deltas
                    else _require_op(operator).full_merge(
                        None, list(reversed(deltas))
                    )
                )
            if span.enabled:
                span.add("keys", len(key_list))
                span.add("unique_keys", len(full_by_norm))
                span.add("memtable_resolved", memtable_resolved)
                span.add("bloom_skips", bloom_skipped)
                span.add("sstable_reads", sstable_probes)
        return [resolved[full_by_norm[norm]] for norm in norm_keys]

    def scan(
        self, table: str, prefix: KeyPart | Key | None = None
    ) -> Iterator[tuple[Key, Any]]:
        # Materialize under the read lock: scans are used for bounded key
        # ranges (per-table or per-prefix), and a snapshot keeps iteration
        # safe against concurrent flushes/compactions.
        self.metrics.bump("scans")
        with self._state_lock.read():
            self._check_open()
            table_id = self._table_id(table)
            low = _TABLE_PREFIX.pack(table_id)
            if prefix is not None:
                low += encode_key(normalize_key(prefix))
            high = _prefix_successor(low)
            operator = self._merge_ops.get(table_id)
            results = list(self._scan_snapshot(low, high, operator))
        return iter(results)

    def scan_range(
        self,
        table: str,
        start: KeyPart | Key | None = None,
        stop: KeyPart | Key | None = None,
    ) -> Iterator[tuple[Key, Any]]:
        self.metrics.bump("scans")
        with self._state_lock.read():
            self._check_open()
            table_id = self._table_id(table)
            table_prefix = _TABLE_PREFIX.pack(table_id)
            low = table_prefix
            if start is not None:
                low += encode_key(normalize_key(start))
            if stop is not None:
                high: bytes | None = table_prefix + encode_key(normalize_key(stop))
            else:
                high = _prefix_successor(table_prefix)
            operator = self._merge_ops.get(table_id)
            results = list(self._scan_snapshot(low, high, operator))
        return iter(results)

    def _scan_snapshot(
        self, low: bytes, high: bytes | None, operator: MergeOperator | None
    ) -> Iterator[tuple[Key, Any]]:
        """Merge-scan all sources; caller holds (at least) the read lock."""
        sources: list[Iterator[tuple[bytes, int, bytes]]] = []
        for memtable in (self._memtable, self._immutable):
            if memtable is None:
                continue
            mem_records = [
                (key, entry)
                for key, entry in memtable.iter_sorted()
                if key >= low
            ]
            sources.append(_memtable_source(mem_records))
        for reader in reversed(self._sstables):
            sources.append(reader.iter_from_key(low))
        heap: list[tuple[bytes, int, int, bytes, Iterator[tuple[bytes, int, bytes]]]] = []
        for rank, source in enumerate(sources):
            first = next(source, None)
            if first is not None:
                key, kind, value = first
                heapq.heappush(heap, (key, rank, kind, value, source))
        while heap:
            key = heap[0][0]
            if high is not None and key >= high:
                break
            records: list[tuple[int, bytes]] = []
            while heap and heap[0][0] == key:
                _, rank, kind, value, source = heapq.heappop(heap)
                records.append((kind, value))
                nxt = next(source, None)
                if nxt is not None:
                    nkey, nkind, nvalue = nxt
                    heapq.heappush(heap, (nkey, rank, nkind, nvalue, source))
            value_obj = _resolve_read(records, operator)
            if value_obj is not TOMBSTONE:
                yield decode_key(key[_TABLE_PREFIX.size :]), value_obj

    # -- flush & compaction -----------------------------------------------------------

    def flush(self) -> None:
        """Persist the memtable; synchronous, but reads proceed throughout."""
        flushed = False
        with self._flush_lock:
            with self._state_lock.write():
                self._check_open()
            flushed = self._drain_pending_flush()
            with self._state_lock.write():
                handoff = self._seal_memtable_locked()
            if handoff is not None:
                self._flush_sealed(*handoff)
                flushed = True
        if flushed:
            self._after_flush()

    def _flush_if_over_threshold(self) -> None:
        """Auto-flush entry point; re-checks the threshold under the lock."""
        flushed = False
        with self._flush_lock:
            with self._state_lock.write():
                skip = (
                    self._closed
                    or self._memtable.approximate_bytes < self._memtable_flush_bytes
                )
            if not skip:
                # _closed cannot flip while we hold _flush_lock (close()
                # acquires it before setting the flag), so the re-check
                # above stays valid across the drain + seal below.
                flushed = self._drain_pending_flush()
                with self._state_lock.write():
                    handoff = self._seal_memtable_locked()
                if handoff is not None:
                    self._flush_sealed(*handoff)
                    flushed = True
        if flushed:
            self._after_flush()

    def _drain_pending_flush(self) -> bool:
        """Retry a flush whose SSTable build failed; caller holds _flush_lock.

        Until the retry succeeds the sealed memtable stays readable via
        ``_immutable`` and its frozen WAL segment stays on disk, so a failed
        flush never loses acknowledged writes: they remain visible to reads
        and recoverable by WAL replay.  Returns ``True`` once the pending
        memtable is persisted; re-raises if the rebuild fails again.
        """
        pending = self._pending_flush
        if pending is None:
            return False
        self._flush_sealed(*pending)
        return True

    def _seal_memtable_locked(self) -> tuple[Memtable, int, int] | None:
        """Swap in a fresh memtable + WAL; caller holds write and flush locks.

        Returns ``(sealed_memtable, frozen_wal_id, flushed_upto_seq)`` or
        ``None`` when there is nothing to flush.  The single-immutable
        invariant holds because ``_flush_lock`` spans seal -> install and
        every flush path drains ``_pending_flush`` before sealing anew.
        """
        if len(self._memtable) == 0:
            return None
        if self._immutable is not None or self._pending_flush is not None:
            # A previously sealed memtable has not been persisted yet;
            # overwriting it here would silently drop acknowledged writes
            # (and a later flush would delete their WAL segment).
            raise RuntimeError(
                "unflushed sealed memtable pending; drain it before sealing"
            )
        sealed = self._memtable
        sealed.seal()
        upto = self._next_seq - 1
        frozen_id = self._next_wal_id
        self._next_wal_id += 1
        self._wal.close()
        active = os.path.join(self._path, WAL_NAME)
        self._io.replace(
            active, os.path.join(self._path, f"wal-{frozen_id:06d}.log")
        )
        self._wal = WriteAheadLog(active, sync=self._sync_wal, io=self._io)
        self._immutable = sealed
        self._memtable = Memtable()
        handoff = (sealed, frozen_id, upto)
        self._pending_flush = handoff
        return handoff

    def _flush_sealed(self, sealed: Memtable, frozen_id: int, upto: int) -> None:
        """Build the SSTable lock-free, then install it atomically."""
        with self._state_lock.write():
            filename = f"sst-{self._next_sst_id:06d}.sst"
            self._next_sst_id += 1
        writer = SSTableWriter(
            os.path.join(self._path, filename),
            expected_records=len(sealed),
            io=self._io,
            compression=self._compression,
        )
        span = current_tracer().span("lsm.flush")
        try:
            with span:
                for key, entry in sealed.iter_sorted():
                    record = _flush_entry(entry, self._operator_for_full_key(key))
                    if record is not None:
                        kind, value = record
                        writer.add(key, kind, value)
                reader = writer.finish(
                    cache=self._block_cache, use_mmap=self._mmap, metrics=self.metrics
                )
                reader.min_key = writer.first_key
                reader.max_key = writer.last_key
                if writer.compressed_blocks:
                    self.metrics.bump("compressed_blocks", writer.compressed_blocks)
                if span.enabled:
                    span.add("entries", len(sealed))
                    span.add("bytes", reader.data_bytes)
        except BaseException:
            writer.abort()
            raise
        with self._state_lock.write():
            self._sstables.append(reader)
            self._last_flushed_seq = upto
            self._immutable = None
            self._pending_flush = None
            self._write_manifest()
        self.metrics.bump("flushes")
        self.metrics.bump("flush_bytes_written", reader.data_bytes)
        # Every frozen segment up to ours holds only records <= upto; flushes
        # complete in seal order (a pending handoff is drained before a new
        # seal), so no segment is deleted before its memtable is persisted.
        self._remove_wal_segments(frozen_id)

    def _after_flush(self) -> None:
        if not self._auto_compact:
            return
        if self._compactor is not None:
            self._compactor.trigger()
        elif self._compaction == "leveled":
            # A promotion can overflow the next level: drain the cascade
            # inline so the hard invariants hold when the flush returns.
            while self._compaction_round():
                pass
        else:
            self._compaction_round()

    def compact(self) -> bool:
        """Run one compaction round if a qualifying run exists."""
        self._check_open()
        return self._compaction_round()

    def compact_all(self) -> None:
        """Force-merge every SSTable into one run (full major compaction).

        Under size-tiered the result is a single table; under leveled it is
        a single key-disjoint run at the deepest populated level (split at
        the configured output size), which is the same full-finalize merge.
        """
        self._check_open()
        self.flush()
        with self._compaction_lock:
            with self._state_lock.read():
                inputs = list(self._sstables)
            if self._compaction == "leveled":
                depth = max((r.level for r in inputs), default=0)
                if len(inputs) > 1 or (inputs and depth == 0):
                    self._merge_into_level(inputs, max(1, depth), finalize=True)
            elif len(inputs) > 1:
                self._compact_slice(0, len(inputs))

    def _compaction_round(self, soft: bool = False) -> bool:
        if self._compaction == "leveled":
            return self._leveled_round(soft)
        with self._compaction_lock:
            with self._state_lock.read():
                if self._closed:
                    return False
                sizes = [reader.data_bytes for reader in self._sstables]
            plan = plan_size_tiered(sizes, min_tables=self._compaction_min_tables)
            if plan is None:
                return False
            return self._compact_slice(plan.start, plan.stop)

    def _compact_slice(self, start: int, stop: int) -> bool:
        """Merge ``_sstables[start:stop]`` into one table; atomic swap.

        Caller holds ``_compaction_lock``; concurrent flushes only *append*
        to the SSTable list, so the slice indices stay valid throughout.
        The merged candidate is CRC-verified before the swap: a corrupt
        output (crash/fault between compaction write and manifest update)
        is discarded and reads continue from the pre-compaction tables.
        """
        with self._state_lock.read():
            run = list(self._sstables[start:stop])
        # Scrub the inputs first: merging unverified bytes would stamp a
        # *fresh* CRC over corrupt data, laundering a detectable bit flip
        # into a permanently undetectable one.  A corrupt input aborts the
        # round; reads keep serving (and verify() keeps failing loudly).
        for reader in run:
            try:
                reader.verify()
            except CorruptionError:
                self.metrics.bump("compaction_aborts")
                return False
        finalize = start == 0
        with self._state_lock.write():
            filename = f"sst-{self._next_sst_id:06d}.sst"
            self._next_sst_id += 1
        writer = SSTableWriter(
            os.path.join(self._path, filename),
            expected_records=sum(r.record_count for r in run),
            io=self._io,
            compression=self._compression,
        )
        span = current_tracer().span("lsm.compaction")
        try:
            with span:
                for kind, key, value in merge_records(
                    run, self._operator_for_full_key, finalize
                ):
                    writer.add(key, kind, value)
                merged = writer.finish(
                    cache=self._block_cache, use_mmap=self._mmap, metrics=self.metrics
                )
                merged.min_key = writer.first_key
                merged.max_key = writer.last_key
                if writer.compressed_blocks:
                    self.metrics.bump("compressed_blocks", writer.compressed_blocks)
                if span.enabled:
                    span.add("inputs", len(run))
                    span.add("input_bytes", sum(r.data_bytes for r in run))
                    span.add("output_bytes", merged.data_bytes)
        except BaseException:
            writer.abort()
            raise
        try:
            # Named fault point for the compaction protocol's vulnerable
            # window (output sealed, manifest not yet swapped); a scheduled
            # ``point:compaction.pre_swap`` fault fires here.
            self._io.fault_point("compaction.pre_swap", merged.path)
        except BaseException:
            # Simulated kill between output and swap: leave the orphan
            # file on disk exactly as a real crash would.
            merged.close()
            raise
        try:
            merged.verify()
        except Exception:
            merged.close()
            os.remove(merged.path)
            self.metrics.bump("compaction_aborts")
            return False
        with self._state_lock.write():
            if self._closed or self._sstables[start:stop] != run:
                # Store closed (or set changed) under us: discard the output.
                merged.close()
                os.remove(merged.path)
                self.metrics.bump("compaction_aborts")
                return False
            self._sstables[start:stop] = [merged]
            self._write_manifest()
        self.metrics.bump("compactions")
        self.metrics.bump("compaction_bytes_rewritten", merged.data_bytes)
        self._retire(run)
        return True

    # -- leveled compaction ------------------------------------------------------------

    def _levels_snapshot_locked(self) -> list[list[SSTableReader]]:
        """Group the flat list by level; caller holds (at least) the read lock.

        ``levels[0]`` keeps flat-list order (oldest -> newest); deeper
        levels sort by ``min_key`` so the planner sees each run in key
        order regardless of how the flat list interleaved them.
        """
        depth = max((r.level for r in self._sstables), default=0)
        levels: list[list[SSTableReader]] = [[] for _ in range(depth + 1)]
        for reader in self._sstables:
            levels[reader.level].append(reader)
        for n in range(1, len(levels)):
            levels[n].sort(key=lambda r: r.min_key or b"")
        return levels

    def _rebuild_flat_locked(self) -> None:
        """Re-derive the flat read order from per-table levels.

        Deepest level first (oldest shadow), then L0 in its existing
        relative order (recency).  Within an L1+ level tables are
        key-disjoint, so sorting them by ``min_key`` cannot change which
        record shadows which.  Caller holds the write lock.
        """
        l0 = [r for r in self._sstables if r.level == 0]
        deeper = [r for r in self._sstables if r.level > 0]
        deeper.sort(key=lambda r: (-r.level, r.min_key or b""))
        self._sstables = deeper + l0

    def _leveled_round(self, soft: bool = False) -> bool:
        """Plan and apply one leveled promotion; ``True`` if work was done."""
        with self._compaction_lock:
            with self._state_lock.read():
                if self._closed:
                    return False
                levels = self._levels_snapshot_locked()
            plan = plan_leveled(levels, self._leveled_config, soft=soft)
            if plan is None:
                return False
            if plan.is_trivial_move:
                return self._apply_trivial_move(plan)
            finalize = all(
                not levels[n] for n in range(plan.target_level + 1, len(levels))
            )
            inputs = list(plan.targets) + list(plan.sources)
            grandparents = (
                levels[plan.target_level + 1]
                if plan.target_level + 1 < len(levels)
                else []
            )
            return self._merge_into_level(
                inputs, plan.target_level, finalize, grandparents=grandparents
            )

    def _apply_trivial_move(self, plan: LeveledPlan) -> bool:
        """Promote a victim that overlaps nothing below it: manifest-only.

        No bytes are rewritten -- the table changes its level label and
        the manifest is re-persisted.  Safe against races: we hold
        ``_compaction_lock`` (no concurrent compaction can repopulate the
        target level) and concurrent flushes only ever append to L0.
        """
        source = plan.sources[0]
        with self._state_lock.write():
            if self._closed or source not in self._sstables:
                return False
            source.level = plan.target_level
            self._rebuild_flat_locked()
            self._write_manifest()
        self.metrics.bump("compaction_moves")
        return True

    def _merge_into_level(
        self,
        inputs_oldest_first: list[SSTableReader],
        target_level: int,
        finalize: bool,
        grandparents: list[SSTableReader] | None = None,
    ) -> bool:
        """Merge ``inputs`` into key-disjoint tables at ``target_level``.

        The leveled counterpart of :meth:`_compact_slice`, with the same
        protocol and the same anti-laundering property: scrub every input
        first, write the candidate outputs (split at the configured
        output size), pass each through the ``compaction.pre_swap`` fault
        point, CRC-verify them, then swap tables + manifest atomically
        under the write lock.  Caller holds ``_compaction_lock``.

        ``grandparents`` are the tables one level below ``target_level``:
        outputs are additionally cut once they have crossed more than
        ``grandparent_limit_factor * max_output_bytes`` of them, so no
        output's key range bridges a cold gap in the deeper run (which
        would drag that deeper data into every future promotion).
        """
        for reader in inputs_oldest_first:
            try:
                reader.verify()
            except CorruptionError:
                self.metrics.bump("compaction_aborts")
                return False
        split_bytes = self._leveled_config.max_output_bytes
        gp_limit = split_bytes * self._leveled_config.grandparent_limit_factor
        gp_run = sorted(
            (t for t in grandparents or [] if t.max_key is not None),
            key=lambda t: t.max_key,
        )
        gp_index = 0
        gp_crossed = 0
        expected = max(
            1,
            sum(r.record_count for r in inputs_oldest_first)
            // max(1, len(inputs_oldest_first)),
        )
        outputs: list[SSTableReader] = []
        writer: SSTableWriter | None = None
        span = current_tracer().span("lsm.compaction")
        try:
            with span:
                for kind, key, value in merge_records(
                    inputs_oldest_first, self._operator_for_full_key, finalize
                ):
                    while gp_index < len(gp_run) and gp_run[gp_index].max_key < key:
                        gp_crossed += gp_run[gp_index].data_bytes
                        gp_index += 1
                    if (
                        writer is not None
                        and writer.raw_data_bytes > 0
                        and gp_crossed > gp_limit
                    ):
                        outputs.append(self._finish_output(writer, target_level))
                        writer = None
                    if writer is None:
                        with self._state_lock.write():
                            filename = f"sst-{self._next_sst_id:06d}.sst"
                            self._next_sst_id += 1
                        writer = SSTableWriter(
                            os.path.join(self._path, filename),
                            expected_records=expected,
                            io=self._io,
                            compression=self._compression,
                        )
                        gp_crossed = 0
                    writer.add(key, kind, value)
                    if writer.raw_data_bytes >= split_bytes:
                        outputs.append(self._finish_output(writer, target_level))
                        writer = None
                if writer is not None:
                    outputs.append(self._finish_output(writer, target_level))
                    writer = None
                if span.enabled:
                    span.add("inputs", len(inputs_oldest_first))
                    span.add(
                        "input_bytes",
                        sum(r.data_bytes for r in inputs_oldest_first),
                    )
                    span.add("outputs", len(outputs))
                    span.add("output_bytes", sum(r.data_bytes for r in outputs))
                    span.add("target_level", target_level)
        except BaseException:
            # Simulated kill mid-merge: in-flight tmp file is dropped,
            # finished outputs stay as orphans exactly as a crash leaves
            # them (the manifest never references an orphan).
            if writer is not None:
                writer.abort()
            for merged in outputs:
                merged.close()
            raise
        try:
            for merged in outputs:
                # Named fault point for the vulnerable window (outputs
                # sealed, manifest not yet swapped), one per output.
                self._io.fault_point("compaction.pre_swap", merged.path)
        except BaseException:
            for merged in outputs:
                merged.close()
            raise
        try:
            for merged in outputs:
                merged.verify()
        except Exception:
            for merged in outputs:
                merged.close()
                os.remove(merged.path)
            self.metrics.bump("compaction_aborts")
            return False
        with self._state_lock.write():
            if self._closed or any(
                r not in self._sstables for r in inputs_oldest_first
            ):
                # Store closed (or inputs retired) under us: discard.
                for merged in outputs:
                    merged.close()
                    os.remove(merged.path)
                self.metrics.bump("compaction_aborts")
                return False
            survivors = [r for r in self._sstables if r not in inputs_oldest_first]
            self._sstables = survivors + outputs
            self._rebuild_flat_locked()
            self._write_manifest()
        self.metrics.bump("compactions")
        self.metrics.bump(
            "compaction_bytes_rewritten", sum(r.data_bytes for r in outputs)
        )
        self._retire(inputs_oldest_first)
        return True

    def _retire(self, readers: list[SSTableReader]) -> None:
        """Close and delete merged-away tables; one cache sweep for all."""
        if self._block_cache is not None:
            self._block_cache.evict_owners(r._uid for r in readers)
        for reader in readers:
            reader.close(evict_blocks=False)
            self._io.remove(reader.path)

    def _finish_output(self, writer: SSTableWriter, level: int) -> SSTableReader:
        """Seal one compaction output and annotate its placement."""
        first, last = writer.first_key, writer.last_key
        merged = writer.finish(
            cache=self._block_cache, use_mmap=self._mmap, metrics=self.metrics
        )
        if writer.compressed_blocks:
            self.metrics.bump("compressed_blocks", writer.compressed_blocks)
        merged.level = level
        merged.min_key = first
        merged.max_key = last
        return merged

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Flush and release resources; idempotent and safe mid-fault.

        The final flush is attempted once.  If it fails (ENOSPC, a failed
        fsync, an injected fault), the store is *still* marked closed and
        every file handle is released before the flush error propagates:
        acknowledged writes stay recoverable from the frozen WAL segments
        on the next open, and nothing leaks.  A second ``close()`` -- after
        success, after a failure, or concurrently -- is a quiet no-op.
        """
        with self._state_lock.write():
            if self._closed:
                return
        REGISTRY.unregister(self._obs_handle)
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.stop()
        flush_error: BaseException | None = None
        try:
            self.flush()
        except StoreClosedError:  # raced with another close()
            return
        except BaseException as exc:
            flush_error = exc
        close_error: BaseException | None = None
        with self._compaction_lock, self._flush_lock:
            with self._state_lock.write():
                if self._closed:
                    if flush_error is not None:
                        raise flush_error
                    return
                self._closed = True
                for handle in (self._wal, *self._sstables):
                    try:
                        handle.close()
                    except BaseException as exc:
                        if close_error is None:
                            close_error = exc
        if flush_error is not None:
            raise flush_error
        if close_error is not None:
            raise close_error

    @property
    def sstable_count(self) -> int:
        """Number of live SSTables (exposed for tests and introspection)."""
        with self._state_lock.read():
            return len(self._sstables)

    def level_stats(self) -> list[dict[str, int]]:
        """Per-level table count and data bytes, L0 first.

        Size-tiered stores report everything at L0; the leveled strategy
        populates deeper levels as promotions run.
        """
        with self._state_lock.read():
            self._check_open()
            depth = max((r.level for r in self._sstables), default=0)
            stats = [
                {"level": n, "tables": 0, "data_bytes": 0}
                for n in range(depth + 1)
            ]
            for reader in self._sstables:
                stats[reader.level]["tables"] += 1
                stats[reader.level]["data_bytes"] += reader.data_bytes
            return stats

    def verify(self) -> None:
        """Scrub every SSTable's data section against its checksum.

        Raises :class:`~repro.kvstore.api.CorruptionError` on the first
        mismatch.  Metadata (index/bloom/footer) is already verified on
        open; this pass covers the record payloads.  Holds the read lock,
        so a concurrent compaction cannot retire tables mid-scrub.
        """
        with self._state_lock.read():
            self._check_open()
            for reader in self._sstables:
                reader.verify()

    def cache_stats(self) -> dict[str, int]:
        """Block-cache counters (empty dict when the cache is disabled)."""
        return self._block_cache.stats() if self._block_cache is not None else {}

    def storage_stats(self) -> dict:
        """Physical storage accounting, per SSTable and aggregated.

        ``raw_data_bytes`` is the pre-compression data size (equal to
        ``data_bytes`` for uncompressed v1 files), so
        ``compression_ratio`` = raw / on-disk measures what the block
        codec actually saved.  Runs under the read lock so a concurrent
        compaction cannot retire tables mid-walk.
        """
        with self._state_lock.read():
            self._check_open()
            per_sstable = []
            for reader in self._sstables:
                try:
                    file_bytes = os.path.getsize(reader.path)
                except OSError:  # pragma: no cover - racing deletion
                    file_bytes = reader.data_bytes
                per_sstable.append(
                    {
                        "file": os.path.basename(reader.path),
                        "format_version": reader.format_version,
                        "level": reader.level,
                        "records": reader.record_count,
                        "data_bytes": reader.data_bytes,
                        "raw_data_bytes": reader.raw_data_bytes,
                        "file_bytes": file_bytes,
                        "mmap": reader.mmap_active,
                    }
                )
        data_bytes = sum(entry["data_bytes"] for entry in per_sstable)
        raw_bytes = sum(entry["raw_data_bytes"] for entry in per_sstable)
        return {
            "sstables": per_sstable,
            "records": sum(entry["records"] for entry in per_sstable),
            "data_bytes": data_bytes,
            "raw_data_bytes": raw_bytes,
            "file_bytes": sum(entry["file_bytes"] for entry in per_sstable),
            "compression_ratio": (raw_bytes / data_bytes) if data_bytes else 1.0,
            "compression": self._compression,
            "compaction": self._compaction,
            "level_count": len({entry["level"] for entry in per_sstable}),
            "mmap": self._mmap,
        }

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: one consistent store sample."""
        with self._state_lock.read():
            if self._closed:
                return {}
            sstables = len(self._sstables)
            tables = len(self._tables)
            level_count = len({reader.level for reader in self._sstables})
            bytes_on_disk = 0
            for reader in self._sstables:
                try:
                    bytes_on_disk += os.path.getsize(reader.path)
                except OSError:  # pragma: no cover - racing deletion
                    bytes_on_disk += reader.data_bytes
        return store_samples(
            self.metrics.snapshot(),
            sstables=sstables,
            tables=tables,
            cache_stats=self.cache_stats(),
            bytes_on_disk=bytes_on_disk,
            level_count=level_count,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")


def _prefix_successor(prefix: bytes) -> bytes | None:
    """Smallest byte string greater than every string starting with ``prefix``.

    Increment the last non-0xFF byte and truncate; all-0xFF prefixes have
    no successor (``None`` = scan to the end).
    """
    out = bytearray(prefix)
    while out:
        if out[-1] != 0xFF:
            out[-1] += 1
            return bytes(out)
        out.pop()
    return None


def _memtable_source(
    records: list[tuple[bytes, Any]]
) -> Iterator[tuple[bytes, int, bytes]]:
    """Adapt memtable entries into (key, kind, value) records for merging.

    A memtable entry may carry both a base and deltas; encode it as the
    single record an SSTable flush would have produced, except that merges
    stay merges (resolution happens in ``_resolve_read``).
    """
    from repro.kvstore.memtable import BASE_ABSENT

    for key, entry in records:
        if entry.base_kind == BASE_ABSENT:
            yield key, _MEM_MERGE_BUNDLE, encode_value([d for d in entry.deltas])
        elif entry.base_kind == BASE_PUT:
            yield key, _MEM_PUT_BUNDLE, encode_value(
                [entry.base_value, [d for d in entry.deltas]]
            )
        elif entry.base_kind == BASE_DELETE:
            yield key, _MEM_DELETE_BUNDLE, encode_value([d for d in entry.deltas])


# Synthetic record kinds used only between _memtable_source and _resolve_read.
_MEM_MERGE_BUNDLE = 100
_MEM_PUT_BUNDLE = 101
_MEM_DELETE_BUNDLE = 102


def _resolve_read(
    records_newest_first: list[tuple[int, bytes]], operator: MergeOperator | None
) -> Any:
    """Collapse one key's records (newest first) into a value or TOMBSTONE."""
    pending: list[Any] = []  # newest first
    for kind, raw in records_newest_first:
        if kind == KIND_MERGE:
            pending.append(decode_value(raw))
            continue
        if kind == _MEM_MERGE_BUNDLE:
            deltas = [decode_value(d) for d in decode_value(raw)]
            pending.extend(reversed(deltas))
            continue
        if kind == _MEM_PUT_BUNDLE:
            base_raw, delta_raws = decode_value(raw)
            base = decode_value(base_raw)
            deltas = [decode_value(d) for d in delta_raws]
            pending.extend(reversed(deltas))
            if not pending:
                return base
            return _require_op(operator).full_merge(base, list(reversed(pending)))
        if kind == _MEM_DELETE_BUNDLE:
            deltas = [decode_value(d) for d in decode_value(raw)]
            pending.extend(reversed(deltas))
            if not pending:
                return TOMBSTONE
            return _require_op(operator).full_merge(None, list(reversed(pending)))
        if kind == KIND_PUT:
            base = decode_value(raw)
            if not pending:
                return base
            return _require_op(operator).full_merge(base, list(reversed(pending)))
        if kind == KIND_DELETE:
            if not pending:
                return TOMBSTONE
            return _require_op(operator).full_merge(None, list(reversed(pending)))
        raise ValueError(f"unknown record kind {kind}")
    if not pending:
        return TOMBSTONE
    return _require_op(operator).full_merge(None, list(reversed(pending)))


def _flush_entry(entry: Any, operator: MergeOperator | None) -> tuple[int, bytes] | None:
    """Turn a memtable entry into the single SSTable record representing it."""
    from repro.kvstore.memtable import BASE_ABSENT

    if entry.base_kind == BASE_PUT:
        base = decode_value(entry.base_value)
        if entry.deltas:
            deltas = [decode_value(d) for d in entry.deltas]
            base = _require_op(operator).full_merge(base, deltas)
        return KIND_PUT, encode_value(base)
    if entry.base_kind == BASE_DELETE:
        if entry.deltas:
            deltas = [decode_value(d) for d in entry.deltas]
            merged = _require_op(operator).full_merge(None, deltas)
            return KIND_PUT, encode_value(merged)
        return KIND_DELETE, b""
    if entry.base_kind == BASE_ABSENT:
        if not entry.deltas:
            return None
        deltas = [decode_value(d) for d in entry.deltas]
        partial = _require_op(operator).partial_merge(deltas)
        return KIND_MERGE, encode_value(partial)
    raise ValueError(f"unknown base kind {entry.base_kind}")


def _require_op(operator: MergeOperator | None) -> MergeOperator:
    if operator is None:
        raise ValueError("merge deltas present but table has no merge operator")
    return operator
