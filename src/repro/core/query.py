"""The query processor component (§3.2): statistics and pattern detection.

*Statistics* queries read only the ``Count`` and ``LastChecked`` tables --
constant work per pattern pair, fetched as one batched read.  *Pattern
detection* (Algorithm 2) fetches the inverted-index entries of every
consecutive pattern pair and chains them per trace by joining on the shared
event's timestamp.  Because the index's pairs are greedy and
non-overlapping, a chain extends in at most one way, so the join is a hash
lookup per partial chain.

Since the selectivity-driven planner rework, detection no longer evaluates
pairs left-to-right unconditionally.  A :class:`~repro.core.matches.QueryPlan`
is built first from the exact per-pair cardinalities the ``Count`` table
stores anyway (one batched read): the join starts at the *rarest* pair and
extends bidirectionally, cheapest adjacent pair next, so the intermediate
chain set is bounded by the smallest posting list instead of the first one.
Posting lists are fetched with one batched ``multi_get`` per Index table,
per-trace candidate sets are intersected *before* any posting list is
decoded and grouped, and grouping is lazy -- restricted to surviving traces,
skipped entirely for pairs after the chain set empties, and memoized in an
optional decoded-postings LRU (see :class:`repro.core.engine.SequenceIndex`).
The join order never changes the result: extension is unique per chain, so
the planner's output is byte-identical to left-to-right evaluation
(property-tested against it and against a brute-force oracle).

The detection by-product the paper mentions -- matches of every pattern
*prefix* -- is available through :meth:`QueryProcessor.detect_with_prefixes`,
which keeps the old left-to-right order as an explicit plan (prefix
snapshots only exist in that order).

Skip-till-any-match (STAM, §7 future work) is supported as an extension:
the pair index prunes to candidate traces (any STAM match implies the
corresponding STNM pairs exist), then the stored sequence is enumerated
exhaustively per candidate.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.errors import EmptyPatternError
from repro.core.matches import (
    PairStats,
    PatternMatch,
    PatternPlan,
    PatternStats,
    QueryPlan,
)
from repro.core.pattern import Pattern, find_matches
from repro.core.policies import Policy
from repro.core.tables import IndexTables
from repro.kvstore.cache import LRUCache
from repro.obs.trace import current_tracer

Chain = tuple[float, ...]

_MISS = object()
#: decoded Count rows kept warm per processor (bounded by alphabet x live
#: generations in practice)
_COUNT_ROWS_CAPACITY = 4096

Cardinalities = Callable[[Sequence[tuple[str, str]]], tuple[int, ...]]


class _PlannedPostings:
    """Posting-list access for one planned query: batch-fetch, lazy group.

    Raw entry lists for all uncached pairs are fetched in one batched read;
    decoding/grouping into per-trace sorted completion lists happens only on
    demand (and only for surviving traces when no postings cache is
    attached, since a partial grouping must not be memoized).

    ``within`` pushes a WITHIN window into pruning: completions whose own
    span exceeds the window are dropped from every grouping and trace set
    this query sees.  That is exact for the plain chain join -- a chain's
    timestamps are monotonic, so every pair completion inside a chain of
    duration <= tau itself spans <= tau, and dropping entries can never
    *create* a chain -- but unsound for composite verification, where the
    STNM matcher may retry from a later occurrence than the greedy pair
    recorded (see DESIGN.md).  Only the filtered *view* is per-query; the
    shared postings cache always stores unfiltered groupings.
    """

    def __init__(
        self,
        query: "QueryProcessor",
        plan: QueryPlan,
        within: float | None = None,
    ) -> None:
        self._query = query
        self._pairs = plan.pairs
        self._partition = plan.partition
        self._within = within
        self._grouped: dict[int, dict[str, list[tuple[float, float]]]] = {}
        self._full: dict[int, dict[str, list[tuple[float, float]]]] = {}
        self._raw: dict[int, list[tuple[str, float, float]]] = {}
        self._trace_sets: dict[int, set[str]] = {}
        span = current_tracer().span("fetch_postings")
        with span:
            missing: list[int] = []
            for i, pair in enumerate(self._pairs):
                hit = query._postings_cache_get(pair, self._partition)
                if hit is not None:
                    self._full[i] = hit
                else:
                    missing.append(i)
            if missing:
                fetched = query.tables.get_index_many(
                    [self._pairs[i] for i in missing], self._partition
                )
                for i in missing:
                    self._raw[i] = fetched[self._pairs[i]]
            if span.enabled:
                span.add("pairs", len(self._pairs))
                span.add("cache_hits", len(self._pairs) - len(missing))
                span.add("fetched", len(missing))
                span.add("entries", sum(len(raw) for raw in self._raw.values()))
                if within is not None:
                    span.add("within_pushdown", 1)

    def trace_set(self, i: int) -> set[str]:
        """Trace ids holding at least one in-window completion of pair ``i``."""
        cached = self._trace_sets.get(i)
        if cached is None:
            within = self._within
            full = self._full.get(i)
            if full is not None:
                if within is None:
                    cached = set(full)
                else:
                    cached = {
                        trace_id
                        for trace_id, completions in full.items()
                        if any(ts_b - ts_a <= within for ts_a, ts_b in completions)
                    }
            elif within is None:
                cached = {entry[0] for entry in self._raw[i]}
            else:
                cached = {
                    trace_id
                    for trace_id, ts_a, ts_b in self._raw[i]
                    if ts_b - ts_a <= within
                }
            self._trace_sets[i] = cached
        return cached

    def group(
        self, i: int, restrict: set[str]
    ) -> dict[str, list[tuple[float, float]]]:
        """Per-trace sorted (window-surviving) completions of pair ``i``.

        With a postings cache attached the full unfiltered grouping is built
        once and memoized (hot pairs skip re-decode/re-group on later
        queries); without one only ``restrict`` traces are decoded.
        """
        grouped = self._grouped.get(i)
        if grouped is not None:
            return grouped
        full = self._full.get(i)
        if full is None:
            raw = self._raw[i]
            if self._query.postings_cache is not None:
                full = _group_entries(raw, None)
                self._query._postings_cache_put(self._pairs[i], self._partition, full)
                self._full[i] = full
            else:
                grouped = _group_entries(raw, restrict, self._within)
                self._grouped[i] = grouped
                return grouped
        if self._within is None:
            grouped = full
        else:
            within = self._within
            grouped = {}
            for trace_id, completions in full.items():
                kept = [c for c in completions if c[1] - c[0] <= within]
                if kept:
                    grouped[trace_id] = kept
        self._grouped[i] = grouped
        return grouped


def _group_entries(
    entries: list[tuple[str, float, float]],
    restrict: set[str] | None,
    within: float | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Group raw index entries per trace (each list time-ordered)."""
    grouped: dict[str, list[tuple[float, float]]] = {}
    for trace_id, ts_a, ts_b in entries:
        if restrict is not None and trace_id not in restrict:
            continue
        if within is not None and ts_b - ts_a > within:
            continue
        grouped.setdefault(trace_id, []).append((ts_a, ts_b))
    for completions in grouped.values():
        completions.sort()
    return grouped


class QueryProcessor:
    """Executes pattern queries against the index tables.

    ``postings_cache`` is an optional LRU of decoded/grouped posting lists
    keyed by ``(generation, partition, pair)``; ``generation`` supplies the
    owning index's write generation so a batch update invalidates by
    construction.  ``sequence_cache`` is the same idea for decoded Seq-table
    rows, keyed ``(generation, trace_id)`` -- composite-pattern verification
    re-reads the same candidate traces across queries, and decoding a long
    sequence document dominates the verify stage when served cold.
    """

    def __init__(
        self,
        tables: IndexTables,
        postings_cache=None,
        sequence_cache=None,
        generation: Callable[[], int] | None = None,
    ) -> None:
        self.tables = tables
        self.postings_cache = postings_cache
        self.sequence_cache = sequence_cache
        self._generation = generation if generation is not None else lambda: 0
        # Decoded Count rows keyed (generation, first_event).  Decoding a
        # Count document is O(|alphabet|) -- too expensive to repeat per
        # plan() -- while the rows themselves are bounded by the alphabet,
        # so the planner keeps them warm per write generation (the key
        # embeds the generation, exactly like the postings cache, so an
        # index update invalidates by construction).  Every query thread
        # shares this LRU, so it is bounded and locked; dead generations
        # age out of it.
        self._count_rows = LRUCache(_COUNT_ROWS_CAPACITY)

    def _bump(self, name: str, amount: int = 1) -> None:
        metrics = getattr(self.tables.store, "metrics", None)
        if metrics is not None:
            metrics.bump(name, amount)

    # -- postings cache ----------------------------------------------------------

    def _postings_cache_get(self, pair, partition):
        if self.postings_cache is None:
            return None
        key = (self._generation(), partition, pair)
        hit = self.postings_cache.get(key, _MISS)
        if hit is _MISS:
            self._bump("postings_cache_misses")
            return None
        self._bump("postings_cache_hits")
        return hit

    def _postings_cache_put(self, pair, partition, grouped) -> None:
        if self.postings_cache is not None:
            self.postings_cache.put((self._generation(), partition, pair), grouped)

    def _grouped_full(
        self, pair: tuple[str, str], partition: str | None
    ) -> dict[str, list[tuple[float, float]]]:
        """Fully grouped postings of one pair, through the cache if attached."""
        hit = self._postings_cache_get(pair, partition)
        if hit is not None:
            return hit
        grouped = self.tables.get_index_grouped(pair, partition)
        self._postings_cache_put(pair, partition, grouped)
        return grouped

    # -- statistics (§3.2.1 "Statistics") ---------------------------------------

    def statistics(self, pattern: Sequence[str], all_pairs: bool = False) -> PatternStats:
        """Pairwise statistics for ``pattern`` plus derived aggregates.

        Returns one :class:`PairStats` per consecutive pair; the
        :class:`PatternStats` wrapper exposes the paper's upper bound on
        whole-pattern completions and the summed average duration estimate.

        With ``all_pairs=True``, statistics of every non-adjacent pattern
        pair are also fetched, tightening the completions bound (§3.2.1's
        accuracy/time trade-off).  All O(p^2) ``Count`` and ``LastChecked``
        rows come from two batched reads instead of a point read per pair.
        """
        if len(pattern) < 2:
            raise EmptyPatternError("statistics need a pattern of length >= 2")
        adjacent = list(zip(pattern, pattern[1:]))
        extras: list[tuple[str, str]] = []
        if all_pairs:
            for i in range(len(pattern)):
                for j in range(i + 2, len(pattern)):
                    extras.append((pattern[i], pattern[j]))
        counts = self.tables.get_pair_counts(adjacent + extras)
        checked = self.tables.get_last_checked_many(adjacent + extras)

        def row(pair: tuple[str, str]) -> PairStats:
            total_duration, completions = counts[pair]
            stamps = checked[pair]
            return PairStats(
                pair=pair,
                completions=completions,
                total_duration=total_duration,
                last_completion=max(stamps.values()) if stamps else None,
            )

        return PatternStats(
            pattern=tuple(pattern),
            pairs=tuple(row(pair) for pair in adjacent),
            extra_pairs=tuple(row(pair) for pair in extras),
        )

    # -- planning ----------------------------------------------------------------

    def plan(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> QueryPlan:
        """Build the execution plan for a detection of ``pattern``.

        One batched ``Count`` read yields every consecutive pair's exact
        global completion count (exact even per partition as an upper
        bound: statistics tables are global, so zero means zero
        everywhere).  The join order starts at the rarest pair and grows
        the covered window towards whichever adjacent pair is cheaper.
        """
        return build_plan(pattern, self.cardinalities, partition)

    def cardinalities(
        self, pairs: Sequence[tuple[str, str]]
    ) -> tuple[int, ...]:
        """Exact completion counts per pair, through the Count-row cache.

        Rows fetched by this call are read back from a local dict, never
        from the shared cache: another thread may evict them between the
        insert and the read.
        """
        generation = self._generation()
        rows: dict[str, dict] = {}
        missing: list[str] = []
        for first in dict.fromkeys(first for first, _ in pairs):
            row = self._count_rows.get((generation, first), _MISS)
            if row is _MISS:
                missing.append(first)
            else:
                rows[first] = row
        if missing:
            fetched = self.tables.get_count_rows(missing)
            for first, row in fetched.items():
                self._count_rows.put((generation, first), row)
            rows.update(fetched)
        out = []
        for first, second in pairs:
            stats = rows[first].get(second)
            out.append(int(stats[1]) if stats is not None else 0)
        return tuple(out)

    # -- pattern detection (Algorithm 2) ------------------------------------------

    def detect(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> list[PatternMatch]:
        """All completions of ``pattern``, one match per completion.

        ``partition=""`` queries the default index partition, a name queries
        that period's partition, and ``None`` unions all partitions.  With
        ``policy=Policy.STAM`` the relaxed overlapping semantics are used
        (see the module docstring); ``max_matches`` caps STAM explosion.
        ``within`` keeps only matches whose end-to-end span is at most that
        long (a CEP-style WITHIN window); the window is also pushed into the
        planned chain join, where per-completion span filtering is exact.
        ``plan`` overrides planning with a precomputed
        :class:`~repro.core.matches.QueryPlan` (a sharded index plans once
        from cardinalities summed over its shards and hands every shard the
        same plan); the plan never changes the result, only the join order.
        """
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if within is not None and within < 0:
            raise ValueError("within must be non-negative")
        if policy is Policy.STAM:
            matches = self._detect_stam(pattern, partition, max_matches)
        elif len(pattern) == 1:
            matches = self._detect_single(pattern[0])
        else:
            chains = self._chain_planned(pattern, partition, within=within, plan=plan)
            span = current_tracer().span("materialize")
            with span:
                matches = [
                    PatternMatch(trace_id, chain)
                    for trace_id, trace_chains in sorted(chains.items())
                    for chain in trace_chains
                ]
                if span.enabled:
                    span.add("matches", len(matches))
        if within is not None:
            matches = [m for m in matches if m.duration <= within]
        if max_matches is not None and policy is not Policy.STAM:
            matches = matches[:max_matches]
        return matches

    def count(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> int:
        """Number of completions of ``pattern``.

        Counts the chains directly -- no :class:`PatternMatch` object is
        materialized per completion.
        """
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if within is not None and within < 0:
            raise ValueError("within must be non-negative")
        if len(pattern) == 1:
            # Single events span zero time, so any non-negative window keeps
            # them all; count occurrences straight off the Seq table.
            return sum(
                1
                for _, seq in self.tables.iter_sequences()
                for activity, _ in seq
                if activity == pattern[0]
            )
        chains = self._chain_planned(pattern, partition, within=within, plan=plan)
        if within is None:
            return sum(len(trace_chains) for trace_chains in chains.values())
        return sum(
            1
            for trace_chains in chains.values()
            for chain in trace_chains
            if chain[-1] - chain[0] <= within
        )

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Matches for every prefix of ``pattern`` of length >= 2.

        The paper notes these come for free: Algorithm 2 materialises each
        prefix's chains on the way to the full pattern.  Prefix snapshots
        only exist under left-to-right evaluation, so this path keeps the
        naive order as an explicit plan; it doubles as the reference the
        planner is tested against.
        """
        if len(pattern) < 2:
            raise EmptyPatternError("prefix detection needs a pattern of length >= 2")
        result: dict[int, list[PatternMatch]] = {}
        chains = self._chain_left_to_right(pattern, partition, snapshots=result)
        result[len(pattern)] = [
            PatternMatch(trace_id, chain)
            for trace_id, trace_chains in sorted(chains.items())
            for chain in trace_chains
        ]
        return result

    def contains(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        plan: QueryPlan | None = None,
    ) -> list[str]:
        """Ids of traces containing ``pattern`` at least once.

        Short-circuits per trace: candidate traces are intersected from the
        pair index first, then each candidate stops at its first chain that
        survives every join step -- no match set is materialized.
        """
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if len(pattern) == 1:
            return sorted(
                trace_id
                for trace_id, seq in self.tables.iter_sequences()
                if any(activity == pattern[0] for activity, _ in seq)
            )
        if plan is None:
            plan = self.plan(pattern, partition)
            if plan.proves_empty:
                return []
        self._note_executed(plan)
        postings = _PlannedPostings(self, plan)
        survivors = self._intersect_candidates(plan, postings)
        if not survivors:
            return []
        order = plan.order
        start = order[0]
        start_grouped = postings.group(start, survivors)
        found: list[str] = []
        for trace_id in sorted(survivors):
            entries = start_grouped.get(trace_id)
            if not entries:
                continue
            by_first: dict[int, dict[float, float]] = {}
            by_second: dict[int, dict[float, float]] = {}
            for ts_a, ts_b in entries:
                low, high = ts_a, ts_b
                left = right = start
                alive = True
                for idx in order[1:]:
                    completions = postings.group(idx, survivors).get(trace_id)
                    if not completions:
                        alive = False
                        break
                    if idx > right:
                        step = by_first.get(idx)
                        if step is None:
                            step = by_first[idx] = dict(completions)
                        high = step.get(high)
                        if high is None:
                            alive = False
                            break
                        right = idx
                    else:
                        step = by_second.get(idx)
                        if step is None:
                            step = by_second[idx] = {
                                b: a for a, b in completions
                            }
                        low = step.get(low)
                        if low is None:
                            alive = False
                            break
                        left = idx
                if alive:
                    found.append(trace_id)
                    break
        return found

    # -- composite patterns (prune-then-verify) ----------------------------------

    def plan_pattern(
        self, pattern: Pattern, partition: str | None = ""
    ) -> PatternPlan:
        """Build the pruning plan for a composite-pattern query.

        Each adjacency of *positive* elements becomes one pruning group
        holding every branch pair of the two elements' alternation sets;
        the group's cardinality is the sum of its branch-pair ``Count``
        entries (alternation cardinality is additive).  Negated elements
        are skipped entirely -- a forbidden pair with zero count must not
        prune the query -- and Kleene elements prune like their plain
        selves (a single occurrence satisfies ``+``, so only the base
        pair is required).  Groups intersect cheapest-first, exactly like
        pair posting lists in :meth:`plan`.
        """
        return build_pattern_plan(pattern, self.cardinalities, partition)

    def detect_pattern(
        self,
        pattern: Pattern,
        partition: str | None = "",
        max_matches: int | None = None,
        plan: PatternPlan | None = None,
    ) -> list[PatternMatch]:
        """All matches of a composite ``pattern`` (STNM-greedy semantics).

        The pair index prunes: a zero-cardinality *positive* adjacency
        proves the result empty before any posting list is read, and the
        surviving groups' trace sets are intersected cheapest-first.
        Candidates are then verified against their stored sequences with
        :func:`repro.core.pattern.find_matches`, enforcing windows and
        negations from the indexed timestamps.  Semantics match the SASE
        oracle (:class:`repro.baselines.sase.nfa.PatternNfa`) exactly --
        the differential suite holds the two paths byte-identical.
        """
        if plan is None:
            plan = self.plan_pattern(pattern, partition)
            if plan.proves_empty:
                return []
        self._note_executed(plan)
        candidates = self._pattern_candidates(plan)
        if candidates is not None and not candidates:
            return []
        span = current_tracer().span("verify")
        with span:
            matches: list[PatternMatch] = []
            scanned = 0
            for trace_id, seq in self._candidate_sequences(candidates):
                budget = None if max_matches is None else max_matches - len(matches)
                if budget is not None and budget <= 0:
                    break
                activities = [activity for activity, _ in seq]
                stamps = [ts for _, ts in seq]
                for span_ts in find_matches(activities, stamps, pattern, budget):
                    matches.append(PatternMatch(trace_id, span_ts))
                scanned += 1
            if span.enabled:
                span.add("traces", scanned)
                span.add("matches", len(matches))
            return matches

    def count_pattern(
        self,
        pattern: Pattern,
        partition: str | None = "",
        plan: PatternPlan | None = None,
    ) -> int:
        """Number of matches of a composite ``pattern``.

        Same pruning as :meth:`detect_pattern`; no
        :class:`PatternMatch` is materialized per completion, and a
        zero-cardinality positive group short-circuits before any trace
        sequence is fetched.
        """
        if plan is None:
            plan = self.plan_pattern(pattern, partition)
            if plan.proves_empty:
                return 0
        self._note_executed(plan)
        candidates = self._pattern_candidates(plan)
        if candidates is not None and not candidates:
            return 0
        total = 0
        for _, seq in self._candidate_sequences(candidates):
            activities = [activity for activity, _ in seq]
            stamps = [ts for _, ts in seq]
            total += len(find_matches(activities, stamps, pattern))
        return total

    def contains_pattern(
        self,
        pattern: Pattern,
        partition: str | None = "",
        plan: PatternPlan | None = None,
    ) -> list[str]:
        """Ids of traces with at least one match of a composite ``pattern``.

        Short-circuits per trace at the first match that survives every
        window and negation check.
        """
        if plan is None:
            plan = self.plan_pattern(pattern, partition)
            if plan.proves_empty:
                return []
        self._note_executed(plan)
        candidates = self._pattern_candidates(plan)
        if candidates is not None and not candidates:
            return []
        found: list[str] = []
        for trace_id, seq in self._candidate_sequences(candidates):
            activities = [activity for activity, _ in seq]
            stamps = [ts for _, ts in seq]
            if find_matches(activities, stamps, pattern, max_matches=1):
                found.append(trace_id)
        return found

    def _pattern_candidates(self, plan: PatternPlan) -> set[str] | None:
        """Traces surviving pair-index pruning; ``None`` = nothing to prune.

        Posting lists of every group pair are fetched in one batched read
        (through the decoded-postings cache where attached), each group's
        trace set is the union of its branch pairs' sets (alternation),
        and groups intersect in plan order -- cheapest first -- with an
        empty-set early exit.
        """
        if not plan.groups:
            return None
        pair_sets: dict[tuple[str, str], set[str]] = {}
        span = current_tracer().span("fetch_postings")
        with span:
            unique = list(
                dict.fromkeys(pair for group in plan.groups for pair in group)
            )
            missing: list[tuple[str, str]] = []
            for pair in unique:
                hit = self._postings_cache_get(pair, plan.partition)
                if hit is not None:
                    pair_sets[pair] = set(hit)
                else:
                    missing.append(pair)
            if missing:
                fetched = self.tables.get_index_many(missing, plan.partition)
                for pair in missing:
                    pair_sets[pair] = {entry[0] for entry in fetched[pair]}
            if span.enabled:
                span.add("pairs", len(unique))
                span.add("cache_hits", len(unique) - len(missing))
                span.add("fetched", len(missing))
        span = current_tracer().span("intersect")
        with span:
            survivors: set[str] | None = None
            for idx in plan.order:
                traces: set[str] = set()
                for pair in plan.groups[idx]:
                    traces |= pair_sets[pair]
                survivors = traces if survivors is None else survivors & traces
                if not survivors:
                    survivors = set()
                    break
            result = survivors if survivors is not None else set()
            if span.enabled:
                span.add("sets", len(plan.groups))
                span.add("survivors", len(result))
            return result

    def _candidate_sequences(self, candidates: set[str] | None):
        """Stored ``(trace_id, sequence)`` rows for verification, id-ordered."""
        if candidates is None:
            yield from sorted(self.tables.iter_sequences())
        else:
            for trace_id in sorted(candidates):
                yield trace_id, self._get_sequence(trace_id)

    def _get_sequence(self, trace_id: str):
        """One decoded Seq-table row, through the sequence cache if attached."""
        if self.sequence_cache is None:
            return self.tables.get_sequence(trace_id)
        key = (self._generation(), trace_id)
        hit = self.sequence_cache.get(key, _MISS)
        if hit is not _MISS:
            self._bump("sequence_cache_hits")
            return hit
        self._bump("sequence_cache_misses")
        seq = self.tables.get_sequence(trace_id)
        self.sequence_cache.put(key, seq)
        return seq

    # -- internals ---------------------------------------------------------------------

    def _detect_single(self, activity: str) -> list[PatternMatch]:
        """Length-1 patterns: scan the Seq table (no pair exists to look up)."""
        matches: list[PatternMatch] = []
        for trace_id, seq in self.tables.iter_sequences():
            for act, ts in seq:
                if act == activity:
                    matches.append(PatternMatch(trace_id, (ts,)))
        return matches

    def _note_executed(self, plan: QueryPlan) -> None:
        if plan.reordered:
            self._bump("planner_reorders")

    def _intersect_candidates(
        self, plan: QueryPlan, postings: _PlannedPostings
    ) -> set[str]:
        """Traces holding every pair, intersected cheapest set first.

        Starting from the rarest pair's trace set keeps every intermediate
        intersection no larger than the smallest one seen so far, and an
        empty result aborts before any posting list is decoded or grouped.
        """
        span = current_tracer().span("intersect")
        with span:
            survivors: set[str] | None = None
            for i in sorted(
                range(len(plan.pairs)), key=lambda i: (plan.cardinalities[i], i)
            ):
                traces = postings.trace_set(i)
                survivors = set(traces) if survivors is None else survivors & traces
                if not survivors:
                    survivors = set()
                    break
            result = survivors or set()
            if span.enabled:
                span.add("sets", len(plan.pairs))
                span.add("survivors", len(result))
            return result

    def _chain_planned(
        self,
        pattern: Sequence[str],
        partition: str | None,
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> dict[str, list[Chain]]:
        """Algorithm 2 under the plan: rarest pair first, bidirectional
        extension, joining pair entries on shared timestamps.

        Produces exactly the left-to-right result (greedy non-overlapping
        pairs make both endpoints of a completion unique within a trace, so
        chains extend uniquely in either direction); each trace's chains are
        sorted, which is the order left-to-right evaluation emits.
        """
        if plan is None:
            plan = self.plan(pattern, partition)
            if plan.proves_empty:
                # Count is global and exact: a zero-cardinality pair has no
                # postings in any partition, so the chain is dead on arrival.
                return {}
        self._note_executed(plan)
        postings = _PlannedPostings(self, plan, within=within)
        survivors = self._intersect_candidates(plan, postings)
        if not survivors:
            return {}
        span = current_tracer().span("join")
        with span:
            order = plan.order
            start = order[0]
            grouped = postings.group(start, survivors)
            chains: dict[str, list[Chain]] = {}
            for trace_id in survivors:
                entries = grouped.get(trace_id)
                if entries:
                    chains[trace_id] = [tuple(entry) for entry in entries]
            left = right = start
            for idx in order[1:]:
                if not chains:
                    break
                frontier = set(chains)
                step_grouped = postings.group(idx, frontier)
                extended: dict[str, list[Chain]] = {}
                if idx > right:
                    for trace_id, trace_chains in chains.items():
                        completions = step_grouped.get(trace_id)
                        if not completions:
                            continue
                        by_first = dict(completions)
                        new_chains = []
                        for chain in trace_chains:
                            ts_b = by_first.get(chain[-1])
                            if ts_b is not None:
                                new_chains.append(chain + (ts_b,))
                        if new_chains:
                            extended[trace_id] = new_chains
                    right = idx
                else:
                    for trace_id, trace_chains in chains.items():
                        completions = step_grouped.get(trace_id)
                        if not completions:
                            continue
                        by_second = {ts_b: ts_a for ts_a, ts_b in completions}
                        new_chains = []
                        for chain in trace_chains:
                            ts_a = by_second.get(chain[0])
                            if ts_a is not None:
                                new_chains.append((ts_a,) + chain)
                        if new_chains:
                            extended[trace_id] = new_chains
                    left = idx
                chains = extended
            for trace_chains in chains.values():
                trace_chains.sort()
            if span.enabled:
                span.add("steps", len(order))
                span.add("traces", len(chains))
                span.add(
                    "chains", sum(len(trace_chains) for trace_chains in chains.values())
                )
            return chains

    def _chain_left_to_right(
        self,
        pattern: Sequence[str],
        partition: str | None,
        snapshots: dict[int, list[PatternMatch]] | None = None,
    ) -> dict[str, list[Chain]]:
        """Naive left-to-right join (the explicit plan behind prefixes)."""
        span = current_tracer().span("join")
        if span.enabled:
            span.tag(order="left_to_right")
        with span:
            return self._chain_left_to_right_inner(pattern, partition, snapshots)

    def _chain_left_to_right_inner(
        self,
        pattern: Sequence[str],
        partition: str | None,
        snapshots: dict[int, list[PatternMatch]] | None = None,
    ) -> dict[str, list[Chain]]:
        first_pair = (pattern[0], pattern[1])
        grouped = self._grouped_full(first_pair, partition)
        previous: dict[str, list[Chain]] = {
            trace_id: [(ts_a, ts_b) for ts_a, ts_b in entries]
            for trace_id, entries in grouped.items()
        }
        for i in range(1, len(pattern) - 1):
            if snapshots is not None:
                snapshots[i + 1] = [
                    PatternMatch(trace_id, chain)
                    for trace_id, trace_chains in sorted(previous.items())
                    for chain in trace_chains
                ]
            pair = (pattern[i], pattern[i + 1])
            grouped = self._grouped_full(pair, partition)
            extended: dict[str, list[Chain]] = {}
            for trace_id, chains in previous.items():
                completions = grouped.get(trace_id)
                if not completions:
                    continue
                # Non-overlapping pairs make ts_a unique within a trace.
                by_first = {ts_a: ts_b for ts_a, ts_b in completions}
                new_chains = []
                for chain in chains:
                    ts_b = by_first.get(chain[-1])
                    if ts_b is not None:
                        new_chains.append(chain + (ts_b,))
                if new_chains:
                    extended[trace_id] = new_chains
            previous = extended
            if not previous:
                break
        return previous

    def _detect_stam(
        self,
        pattern: Sequence[str],
        partition: str | None,
        max_matches: int | None,
    ) -> list[PatternMatch]:
        """Skip-till-any-match via index pruning + per-trace enumeration."""
        candidates = self._candidate_traces(pattern, partition)
        matches: list[PatternMatch] = []
        for trace_id in candidates:
            seq = self.tables.get_sequence(trace_id)
            budget = None if max_matches is None else max_matches - len(matches)
            for chain in _enumerate_stam(seq, pattern, budget):
                matches.append(PatternMatch(trace_id, chain))
            if max_matches is not None and len(matches) >= max_matches:
                break
        return matches

    def _candidate_traces(
        self, pattern: Sequence[str], partition: str | None
    ) -> list[str]:
        """Traces containing every consecutive pair of the pattern.

        Sound for STAM pruning: if a trace holds a STAM match then each
        consecutive pair occurs in order, so the greedy STNM index has an
        entry for it.  Posting lists are fetched in one batch and the
        intersection runs cheapest set first with early exit.
        """
        if len(pattern) == 1:
            return sorted({m.trace_id for m in self._detect_single(pattern[0])})
        plan = self.plan(pattern, partition)
        if plan.proves_empty:
            return []
        postings = _PlannedPostings(self, plan)
        return sorted(self._intersect_candidates(plan, postings))


def build_plan(
    pattern: Sequence[str], cardinalities: Cardinalities, partition: str | None = ""
) -> QueryPlan:
    """The rarest-pair-first join plan of a plain pattern.

    ``cardinalities`` maps the pattern's consecutive pairs to their exact
    completion counts -- one store's Count rows, or their sum across the
    shards of a partitioned index.
    """
    if len(pattern) < 2:
        raise EmptyPatternError("planning needs a pattern of length >= 2")
    span = current_tracer().span("plan")
    with span:
        pairs = tuple(zip(pattern, pattern[1:]))
        cards = cardinalities(pairs)
        order = _rarest_first_order(cards)
        if span.enabled:
            span.add("pairs", len(pairs))
            span.add("min_cardinality", min(cards, default=0))
        return QueryPlan(
            pattern=tuple(pattern),
            pairs=pairs,
            cardinalities=cards,
            order=order,
            reordered=order != tuple(range(len(pairs))),
            partition=partition,
        )


def build_pattern_plan(
    pattern: Pattern, cardinalities: Cardinalities, partition: str | None = ""
) -> PatternPlan:
    """The cheapest-group-first pruning plan of a composite pattern.

    A group's cardinality is the sum of its branch pairs' counts
    (alternation cardinality is additive); see
    :meth:`QueryProcessor.plan_pattern`.
    """
    span = current_tracer().span("plan")
    with span:
        elements = pattern.elements
        positives = pattern.positive_indices
        groups = tuple(
            tuple((a, b) for a in elements[left].types for b in elements[right].types)
            for left, right in zip(positives, positives[1:])
        )
        flat = tuple(pair for group in groups for pair in group)
        flat_cards = cardinalities(flat) if flat else ()
        cards: list[int] = []
        offset = 0
        for group in groups:
            cards.append(sum(flat_cards[offset : offset + len(group)]))
            offset += len(group)
        natural = tuple(range(len(groups)))
        order = tuple(sorted(natural, key=lambda i: (cards[i], i)))
        if span.enabled:
            span.add("groups", len(groups))
            span.add("min_cardinality", min(cards, default=0))
        return PatternPlan(
            pattern=pattern,
            groups=groups,
            cardinalities=tuple(cards),
            order=order,
            reordered=order != natural,
            negated=tuple(str(e) for e in elements if e.negated),
            partition=partition,
        )


def _rarest_first_order(cardinalities: tuple[int, ...]) -> tuple[int, ...]:
    """Join order: start at the rarest pair, extend towards cheaper sides.

    The covered pair window stays contiguous (only contiguous windows can
    join on shared timestamps), so at each step the choice is between the
    pair just left and just right of the window; the cheaper one goes next,
    ties preferring the right side (closer to natural order).
    """
    n = len(cardinalities)
    start = min(range(n), key=lambda i: (cardinalities[i], i))
    order = [start]
    left, right = start, start
    while len(order) < n:
        take_left = left > 0
        take_right = right < n - 1
        if take_left and take_right:
            take_left = cardinalities[left - 1] < cardinalities[right + 1]
        if take_left:
            left -= 1
            order.append(left)
        else:
            right += 1
            order.append(right)
    return tuple(order)


def _enumerate_stam(
    seq: list[tuple[str, float]],
    pattern: Sequence[str],
    max_matches: int | None,
) -> list[Chain]:
    """All (possibly overlapping) embeddings of ``pattern`` in ``seq``.

    Depth-first over per-activity occurrence positions; ``max_matches``
    bounds the output because the embedding count can be combinatorial.
    """
    positions: dict[str, list[int]] = {}
    for idx, (activity, _) in enumerate(seq):
        positions.setdefault(activity, []).append(idx)
    for activity in pattern:
        if activity not in positions:
            return []
    results: list[Chain] = []
    timestamps = [ts for _, ts in seq]

    def extend(step: int, last_index: int, chain: tuple[float, ...]) -> bool:
        if step == len(pattern):
            results.append(chain)
            return max_matches is not None and len(results) >= max_matches
        for idx in positions[pattern[step]]:
            if idx <= last_index:
                continue
            if extend(step + 1, idx, chain + (timestamps[idx],)):
                return True
        return False

    extend(0, -1, ())
    return results
