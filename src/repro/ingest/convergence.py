"""Canonical index snapshots: proving two build paths reached the same state.

Micro-batched streaming ingest applies the same events as one big batch
``update()``, but in different batch groupings -- so the *byte* layout of
an Index row can differ (entries from different traces interleave in batch
order, and the postings codec chunks per batch) while the *logical* index
is identical.  :func:`index_snapshot` canonicalizes away exactly that
freedom and nothing else:

* ``Seq`` rows are per-trace and append-ordered -- compared verbatim;
* ``Index`` rows are compared as the *sorted* set of decoded
  ``(trace, ts_a, ts_b)`` entries per (partition, pair) -- batch grouping
  only permutes entry order across traces, never the entries themselves;
* ``Count``/``ReverseCount`` durations and completion counts and the
  per-trace ``LastChecked`` tails are order-insensitive sums/maxima --
  compared verbatim.

Works over any shard count (shard snapshots merge; traces are disjoint
across shards).  The ingest crash-replay
harness (:mod:`repro.faults.ingest`) asserts snapshot equality between a
killed-and-replayed streaming build and a clean batch build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.postings import decode_index_value

if TYPE_CHECKING:
    from repro.core.engine import SequenceIndex

__all__ = ["index_snapshot"]

_INDEX_PREFIX = "index"


def _partition_of(table_name: str) -> str | None:
    """Map a physical table name to its Index partition, or ``None``."""
    if table_name == _INDEX_PREFIX:
        return ""
    if table_name.startswith(_INDEX_PREFIX + ":"):
        return table_name.split(":", 1)[1]
    return None


def index_snapshot(engine: SequenceIndex) -> dict[str, Any]:
    """Canonical logical contents of an engine's index tables.

    Snapshots of engines holding the same logical index compare equal
    regardless of batch grouping, storage codec, compression or shard
    count.
    """
    seq: dict[str, tuple] = {}
    index: dict[tuple[str, tuple[str, str]], list] = {}
    counts: dict[tuple[str, str], list[float]] = {}
    reverse: dict[tuple[str, str], list[float]] = {}
    checked: dict[tuple[str, str], dict[str, float]] = {}
    for shard in engine.shards:
        store = shard.store
        for trace_id, events in shard.tables.iter_sequences():
            seq[trace_id] = tuple(events)
        for table in store.list_tables():
            partition = _partition_of(table)
            if partition is None:
                continue
            for pair, raw in store.scan(table):
                entries = [tuple(entry) for entry in decode_index_value(raw)]
                index.setdefault((partition, tuple(pair)), []).extend(entries)
        for key, per_second in store.scan("count"):
            for second, (duration, completions) in per_second.items():
                slot = counts.setdefault((key[0], second), [0.0, 0])
                slot[0] += duration
                slot[1] += int(completions)
        for key, per_first in store.scan("reverse_count"):
            for first, (duration, completions) in per_first.items():
                slot = reverse.setdefault((first, key[0]), [0.0, 0])
                slot[0] += duration
                slot[1] += int(completions)
        for pair, tails in store.scan("last_checked"):
            merged = checked.setdefault(tuple(pair), {})
            for trace_id, tail in tails.items():
                if trace_id not in merged or tail > merged[trace_id]:
                    merged[trace_id] = tail
    return {
        "seq": seq,
        "index": {
            key: tuple(sorted(entries)) for key, entries in index.items()
        },
        "count": {key: tuple(slot) for key, slot in counts.items()},
        "reverse_count": {key: tuple(slot) for key, slot in reverse.items()},
        "last_checked": checked,
    }
