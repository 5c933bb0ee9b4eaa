"""The five index tables of §3.1.2, plus a metadata table.

Each table wraps one logical key-value table with the paper's schema:

=============  ==========================  =========================================
Table          Key                         Value
=============  ==========================  =========================================
Seq            trace_id                    [(activity, ts), ...] (append-merged)
Index          (ev_a, ev_b)                [(trace_id, ts_a, ts_b), ...] (append)
Count          ev_a                        {ev_b: [sum_duration, completions]}
ReverseCount   ev_b                        {ev_a: [sum_duration, completions]}
LastChecked    (ev_a, ev_b)                {trace_id: last_completion_ts} (max)
Meta           "meta"                      {policy, method, ...}
=============  ==========================  =========================================

Values are written exclusively through merge operators, so index batches are
blind appends -- the Cassandra pattern the paper's scalability rests on.

The optional ``partition`` argument implements the paper's §3.1.3 note that
"a separate index table can be used for different periods": every partition
value gets its own ``Index`` table, and queries either target one partition
or fan out over all of them.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import IndexStateError
from repro.core.policies import PairMethod, Policy
from repro.core.postings import decode_index_value, encode_postings
from repro.kvstore.api import KeyValueStore

SEQ = "seq"
INDEX = "index"
COUNT = "count"
REVERSE_COUNT = "reverse_count"
LAST_CHECKED = "last_checked"
META = "meta"

_DEFAULT_PARTITION = ""


def _index_table(partition: str) -> str:
    return INDEX if partition == _DEFAULT_PARTITION else f"{INDEX}:{partition}"


class IndexTables:
    """Typed accessors over the store tables used by builder and queries.

    Multi-key accessors go through the store's
    :meth:`~repro.kvstore.api.KeyValueStore.multi_get` (one snapshot, shared
    bloom/block work per batch).  Index entries are written as
    delta/varint-packed chunks (:mod:`repro.core.postings`); reads also
    understand the raw-tuple entries older stores hold.
    """

    def __init__(self, store: KeyValueStore) -> None:
        self.store = store

    # -- schema ------------------------------------------------------------

    def ensure_schema(self) -> None:
        """Create every fixed table (idempotent)."""
        self.store.create_table(SEQ, merge_operator="list_append")
        self.store.create_table(INDEX, merge_operator="list_append")
        self.store.create_table(COUNT, merge_operator="counter_map")
        self.store.create_table(REVERSE_COUNT, merge_operator="counter_map")
        self.store.create_table(LAST_CHECKED, merge_operator="max_map")
        self.store.create_table(META)

    def ensure_partition(self, partition: str) -> None:
        """Create the Index table for ``partition`` (idempotent)."""
        self.store.create_table(_index_table(partition), merge_operator="list_append")

    def partitions(self) -> list[str]:
        """All index partitions present, default partition first.

        Partition names come from the meta document; their tables are
        re-checked with ``has_table`` at read time, so a meta entry whose
        table was never created is harmless.
        """
        names = [_DEFAULT_PARTITION]
        for name in self.get_meta().get("partitions", []):
            if name != _DEFAULT_PARTITION:
                names.append(name)
        return names

    # -- Meta ---------------------------------------------------------------

    def get_meta(self) -> dict:
        return self.store.get(META, "meta", {})

    def put_meta(self, meta: dict) -> None:
        self.store.put(META, "meta", meta)

    def check_configuration(self, policy: Policy, method: PairMethod) -> None:
        """Validate (or record) the policy/method this store was built with."""
        meta = self.get_meta()
        if not meta:
            self.put_meta(
                {"policy": policy.value, "method": method.value, "partitions": []}
            )
            return
        if meta.get("policy") != policy.value:
            raise IndexStateError(
                f"store was built with policy {meta.get('policy')!r}, "
                f"requested {policy.value!r}"
            )

    def register_partition(self, partition: str) -> None:
        if partition == _DEFAULT_PARTITION:
            return
        meta = self.get_meta()
        partitions = meta.setdefault("partitions", [])
        if partition not in partitions:
            partitions.append(partition)
            self.put_meta(meta)

    # -- Seq -----------------------------------------------------------------

    def append_sequence(
        self, trace_id: str, events: list[tuple[str, float]]
    ) -> None:
        self.store.merge(SEQ, trace_id, events)

    def get_sequence(self, trace_id: str) -> list[tuple[str, float]]:
        return [tuple(item) for item in self.store.get(SEQ, trace_id, [])]

    def iter_sequences(self) -> Iterator[tuple[str, list[tuple[str, float]]]]:
        for key, value in self.store.scan(SEQ):
            yield key[0], [tuple(item) for item in value]

    def delete_sequence(self, trace_id: str) -> None:
        self.store.delete(SEQ, trace_id)

    # -- Index ------------------------------------------------------------------

    def append_index(
        self,
        pair: tuple[str, str],
        entries: list[tuple[str, float, float]],
        partition: str = _DEFAULT_PARTITION,
    ) -> None:
        # One chunk per append batch: the list_append merge makes the
        # stored value a list of chunks (possibly mixed with legacy tuples
        # from before the codec), spliced back on read.
        chunks = [encode_postings(entries)] if entries else []
        self.store.merge(_index_table(partition), pair, chunks)

    def _index_tables_for(self, partition: str | None) -> list[str]:
        """Physical Index tables a read targets, in union (partition) order.

        A named (or default) partition resolves to its table unconditionally
        -- a missing table surfaces as ``UnknownTableError`` exactly like any
        other read.  ``partition=None`` unions every registered partition,
        each guarded by the same ``has_table`` check (a meta entry whose
        table was never created is skipped, the default partition included).
        """
        if partition is not None:
            return [_index_table(partition)]
        return [
            table
            for name in self.partitions()
            if self.store.has_table(table := _index_table(name))
        ]

    def get_index(
        self, pair: tuple[str, str], partition: str | None = _DEFAULT_PARTITION
    ) -> list[tuple[str, float, float]]:
        """Index entries for ``pair``; ``partition=None`` unions all partitions."""
        return self.get_index_many([pair], partition)[pair]

    def get_index_many(
        self,
        pairs: list[tuple[str, str]],
        partition: str | None = _DEFAULT_PARTITION,
    ) -> dict[tuple[str, str], list[tuple[str, float, float]]]:
        """Index entries for many pairs, fetched as one batch per table.

        One :meth:`~repro.kvstore.api.KeyValueStore.multi_get` per physical
        Index table replaces a point read per (pair, partition); the result
        maps every requested pair to its (possibly empty) entry list, with
        ``partition=None`` unioning partitions in registration order.
        """
        unique = list(dict.fromkeys(pairs))
        merged: dict[tuple[str, str], list[tuple[str, float, float]]] = {
            pair: [] for pair in unique
        }
        for table in self._index_tables_for(partition):
            rows = self.store.multi_get(table, unique, [])
            for pair, raw in zip(unique, rows):
                merged[pair].extend(decode_index_value(raw))
        return merged

    def get_index_grouped(
        self, pair: tuple[str, str], partition: str | None = _DEFAULT_PARTITION
    ) -> dict[str, list[tuple[float, float]]]:
        """Index entries grouped per trace, each trace's list in time order."""
        grouped: dict[str, list[tuple[float, float]]] = {}
        for trace_id, ts_a, ts_b in self.get_index(pair, partition):
            grouped.setdefault(trace_id, []).append((ts_a, ts_b))
        for entries in grouped.values():
            entries.sort()
        return grouped

    # -- Count / ReverseCount ------------------------------------------------------

    def add_counts(
        self, first: str, stats: dict[str, list[float]]
    ) -> None:
        """Merge ``{ev_b: [sum_duration, completions]}`` into Count[first]."""
        self.store.merge(COUNT, first, stats)

    def add_reverse_counts(self, second: str, stats: dict[str, list[float]]) -> None:
        self.store.merge(REVERSE_COUNT, second, stats)

    def get_counts(self, first: str) -> dict[str, tuple[float, int]]:
        """``{ev_b: (sum_duration, completions)}`` for pairs starting at ``first``."""
        raw = self.store.get(COUNT, first, {})
        return {key: (vals[0], int(vals[1])) for key, vals in raw.items()}

    def get_reverse_counts(self, second: str) -> dict[str, tuple[float, int]]:
        raw = self.store.get(REVERSE_COUNT, second, {})
        return {key: (vals[0], int(vals[1])) for key, vals in raw.items()}

    def get_pair_count(self, pair: tuple[str, str]) -> tuple[float, int]:
        """``(sum_duration, completions)`` for one pair; zeros when absent."""
        stats = self.get_counts(pair[0]).get(pair[1])
        return stats if stats is not None else (0.0, 0)

    def get_count_rows(self, firsts: list[str]) -> dict[str, dict]:
        """Raw Count documents for many first events, in one batched read."""
        unique = list(dict.fromkeys(firsts))
        rows = self.store.multi_get(COUNT, unique, {})
        return dict(zip(unique, rows))

    def get_pair_counts(
        self, pairs: list[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[float, int]]:
        """``{pair: (sum_duration, completions)}`` for many pairs at once.

        One batched read over the distinct first events replaces a Count
        look-up per pair (the ``statistics(all_pairs=True)`` path was
        O(p^2) point reads); absent pairs map to ``(0.0, 0)``.
        """
        per_first = self.get_count_rows([first for first, _ in pairs])
        result: dict[tuple[str, str], tuple[float, int]] = {}
        for pair in pairs:
            stats = per_first[pair[0]].get(pair[1])
            result[pair] = (
                (stats[0], int(stats[1])) if stats is not None else (0.0, 0)
            )
        return result

    # -- LastChecked ------------------------------------------------------------------

    def update_last_checked(
        self, pair: tuple[str, str], completions: dict[str, float]
    ) -> None:
        self.store.merge(LAST_CHECKED, pair, completions)

    def get_last_checked(self, pair: tuple[str, str]) -> dict[str, float]:
        """Per-trace timestamp of the pair's most recent completion."""
        return dict(self.store.get(LAST_CHECKED, pair, {}))

    def get_last_checked_many(
        self, pairs: list[tuple[str, str]]
    ) -> dict[tuple[str, str], dict[str, float]]:
        """LastChecked documents for many pairs in one batched read."""
        unique = list(dict.fromkeys(pairs))
        rows = self.store.multi_get(LAST_CHECKED, unique, {})
        return {pair: dict(raw) for pair, raw in zip(unique, rows)}

    def get_last_completion(self, pair: tuple[str, str]) -> float | None:
        """Most recent completion of ``pair`` across all traces."""
        checked = self.get_last_checked(pair)
        return max(checked.values()) if checked else None

    def prune_trace(self, trace_id: str, alphabet: set[str]) -> None:
        """Drop a completed trace from Seq and LastChecked (§3.1.3).

        The Index entries remain valid for queries; only the bookkeeping
        needed for future incremental updates is released.
        """
        self.delete_sequence(trace_id)
        events = sorted(alphabet)
        pairs = [(a, b) for a in events for b in events]
        if not pairs:
            return
        # One batched read over the |alphabet|^2 LastChecked keys instead of
        # a get/put round-trip per pair; only documents actually holding the
        # trace are rewritten.
        checked_by_pair = self.get_last_checked_many(pairs)
        for pair in pairs:
            checked = checked_by_pair[pair]
            if trace_id in checked:
                del checked[trace_id]
                self.store.put(LAST_CHECKED, pair, checked)
