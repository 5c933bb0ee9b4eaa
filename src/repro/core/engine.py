"""`SequenceIndex`: the facade tying pre-processing and querying together.

This is the class downstream users interact with::

    from repro import SequenceIndex, Policy
    from repro.kvstore import LSMStore

    index = SequenceIndex(LSMStore("/data/index"), policy=Policy.STNM)
    index.update(new_log)                      # periodic batch (Algorithm 1)
    index.detect(["search", "search", "buy"])  # pattern detection
    index.statistics(["a", "b", "c"])          # pairwise statistics
    index.continuations(["a", "b"], mode="hybrid", top_k=5)

The store argument accepts any :class:`~repro.kvstore.api.KeyValueStore`;
omitting it uses an in-memory store (useful for exploration and tests).

A list of stores partitions the index into **shards**.  Every trace lives
on the shard :func:`~repro.shard.hashing.shard_for_trace` picks, so one
trace's Seq row, Index postings, Count contributions and LastChecked
bookkeeping all sit in one store and per-trace work never crosses a shard.
:meth:`SequenceIndex.open` opens either layout from disk (a ``SHARDS.json``
manifest marks a sharded root).  Reads on N > 1 shards run scatter-gather:

1. **plan once** -- per-pair cardinalities are summed across shards and one
   global plan is built from them; a globally-zero pair proves the result
   empty before any posting list is touched;
2. **fan out** -- every shard executes the same plan concurrently on a
   persistent thread pool, each against its own generation-keyed
   postings/sequence caches;
3. **merge** -- per-shard results are disjoint (traces do not span shards),
   so merging is concatenation + a stable sort by trace id, byte-identical
   to one store's output order.

With one shard the plan comes from that store's Count rows and the shard
runs inline: no pool, no second cardinality round trip, no merge.

Writes split a batch by owning shard; each sub-batch applies under its
shard's ingest lock and moves only that shard's write generation, so a
query touching other shards keeps every warm cache entry.  Cross-shard
consistency is per-shard read-committed: a query racing an ``update()``
may see the batch on some shards and not yet on others, but each trace's
result is consistent because a trace lives on exactly one shard.
"""

from __future__ import annotations

import os
import threading
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.builder import IndexBuilder, UpdateStats
from repro.core.continuation import ContinuationExplorer
from repro.core.errors import DeadlineExceeded, EmptyPatternError, PolicyMismatchError
from repro.core.matches import (
    ContinuationProposal,
    PairStats,
    PatternMatch,
    PatternPlan,
    PatternStats,
    QueryPlan,
)
from repro.core.model import Event, EventLog
from repro.core.pattern import Pattern, parse_pattern
from repro.core.policies import PairMethod, Policy
from repro.core.query import QueryProcessor, build_pattern_plan, build_plan
from repro.executor import ParallelExecutor
from repro.kvstore import InMemoryStore
from repro.kvstore.cache import LRUCache
from repro.kvstore.api import KeyValueStore
from repro.obs.profile import QueryProfile, profile_from_tracer
from repro.obs.registry import REGISTRY
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import Tracer, activate, current_tracer
from repro.shard.hashing import shard_for_trace
from repro.shard.manifest import is_sharded_store, read_manifest, shard_paths, write_manifest

_MODES = ("accurate", "fast", "hybrid")
_MISS = object()


class _Shard:
    """One store's slice of the index.

    Holds the store with the tables, builder, query processor and decoded
    postings/sequence caches over it, plus the shard's write generation
    (the cache epoch) and the lock that serializes its writers.
    """

    def __init__(
        self,
        store: KeyValueStore,
        policy: Policy,
        method: PairMethod | None,
        executor: ParallelExecutor | None,
        postings_cache_size: int,
        sequence_cache_size: int,
    ) -> None:
        self.store = store
        self.builder = IndexBuilder(store, policy, method, executor)
        self.tables = self.builder.tables
        self.postings_cache = (
            LRUCache(postings_cache_size) if postings_cache_size > 0 else None
        )
        self.sequence_cache = (
            LRUCache(sequence_cache_size) if sequence_cache_size > 0 else None
        )
        self.generation = 0
        self.ingest_lock = threading.Lock()
        self.query = QueryProcessor(
            self.tables,
            postings_cache=self.postings_cache,
            sequence_cache=self.sequence_cache,
            generation=lambda: self.generation,
        )

    def update(self, events: EventLog | Iterable[Event], partition: str) -> UpdateStats:
        """Apply one batch; the generation moves after it (in a ``finally``)."""
        with self.ingest_lock:
            try:
                return self.builder.update(events, partition)
            finally:
                self.generation += 1

    def prune_trace(self, trace_id: str) -> None:
        with self.ingest_lock:
            try:
                seq = self.tables.get_sequence(trace_id)
                alphabet = {activity for activity, _ in seq}
                self.tables.prune_trace(trace_id, alphabet)
            finally:
                self.generation += 1


class SequenceIndex:
    """Inverted event-pair index over an event log collection.

    Read queries are memoized in a small LRU **query-result cache** whose
    keys embed the tuple of shard *write generations* -- counters bumped by
    every :meth:`update` and :meth:`prune_trace` -- so a batch update
    invalidates every stale entry by construction: post-update queries
    simply never hash to a pre-update key, and the dead generation ages out
    of the LRU.  Set ``query_cache_size=0`` to disable.

    A second, lower-level **decoded-postings cache** per shard memoizes
    per-pair posting lists after decode/group (keyed by ``(generation,
    partition, pair)``), so repeated detections sharing pairs skip
    re-decoding even when the full query differs.  Set
    ``postings_cache_size=0`` to disable.

    Every query method accepts an optional absolute ``deadline``
    (``time.monotonic()`` instant).  An expired deadline fails the call
    with :class:`~repro.core.errors.DeadlineExceeded` before it starts and,
    on N shards, cancels a pending fan-out mid-flight.

    Every query API call is timed; with ``slow_query_threshold`` set (in
    seconds, or via the ``REPRO_SLOW_QUERY_MS`` environment variable) calls
    at or above the threshold land in :attr:`slow_query_log`.  The engine
    also registers its caches, write generation and fan-out counters with
    the process-wide metrics registry (``python -m repro metrics``), and
    ``detect(..., explain_profile=True)`` returns a per-stage
    :class:`~repro.obs.profile.QueryProfile` alongside the plan.
    """

    def __init__(
        self,
        store: KeyValueStore | Sequence[KeyValueStore] | None = None,
        policy: Policy = Policy.STNM,
        method: PairMethod | None = None,
        executor: ParallelExecutor | None = None,
        query_cache_size: int = 128,
        postings_cache_size: int = 64,
        sequence_cache_size: int = 256,
        slow_query_threshold: float | None = None,
    ) -> None:
        if store is None:
            stores = [InMemoryStore()]
        elif isinstance(store, (list, tuple)):
            stores = list(store)
        else:
            stores = [store]
        if not stores:
            raise ValueError("need at least one store")
        self.shards = [
            _Shard(s, policy, method, executor, postings_cache_size, sequence_cache_size)
            for s in stores
        ]
        # The fan-out pool exists only when there is something to fan out to.
        self._pool = (
            ParallelExecutor(backend="thread", max_workers=len(stores), persistent=True)
            if len(stores) > 1
            else None
        )
        self.explorer = ContinuationExplorer(
            self._counts, self._reverse_counts, self._detect
        )
        self._query_cache = LRUCache(query_cache_size) if query_cache_size > 0 else None
        if slow_query_threshold is None:
            env_ms = os.environ.get("REPRO_SLOW_QUERY_MS", "").strip()
            if env_ms:
                slow_query_threshold = float(env_ms) / 1e3
        self.slow_query_log = (
            SlowQueryLog(slow_query_threshold)
            if slow_query_threshold is not None
            else None
        )
        self._counter_lock = threading.Lock()
        self._fanouts = 0
        self._fanout_deadlines = 0
        self._closed = False
        self._obs_handle = REGISTRY.register(
            {"index": ",".join(getattr(s, "obs_name", "index") for s in stores)},
            self._collect_obs_metrics,
        )

    @classmethod
    def open(
        cls,
        root: str | Path,
        store_factory: Callable[[str], KeyValueStore],
        num_shards: int | None = None,
        **engine_kwargs: Any,
    ) -> "SequenceIndex":
        """Open (or create) the index stored under ``root``.

        ``store_factory(path)`` builds one store.  A root holding a shard
        manifest opens its shards, and the manifest wins over
        ``num_shards`` (reopening with a different count would strand
        traces on the wrong shard).  Otherwise ``num_shards`` creates a
        sharded root, and without it ``root`` is one plain store.
        """
        root = Path(root)
        if is_sharded_store(root):
            manifest = read_manifest(root)
            if num_shards is not None and num_shards != manifest["num_shards"]:
                raise ValueError(
                    f"store at {root} has {manifest['num_shards']} shards; "
                    f"cannot reopen with {num_shards} (resharding is not "
                    "supported)"
                )
            num_shards = manifest["num_shards"]
        elif num_shards is None:
            return cls(store_factory(str(root)), **engine_kwargs)
        else:
            write_manifest(root, num_shards)
        stores = [store_factory(str(path)) for path in shard_paths(root, num_shards)]
        return cls(stores, **engine_kwargs)

    # -- shape ---------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, trace_id: str) -> int:
        """The shard index owning ``trace_id``."""
        return shard_for_trace(trace_id, len(self.shards))

    def _only(self) -> _Shard:
        if len(self.shards) > 1:
            raise AttributeError(
                "a sharded index has one store per shard; use index.shards[i]"
            )
        return self.shards[0]

    @property
    def store(self) -> KeyValueStore:
        """The store of a one-shard index."""
        return self._only().store

    @property
    def tables(self):
        """The index tables of a one-shard index."""
        return self._only().tables

    @property
    def builder(self) -> IndexBuilder:
        """The incremental builder of a one-shard index."""
        return self._only().builder

    @property
    def query(self) -> QueryProcessor:
        """The query processor of a one-shard index."""
        return self._only().query

    @property
    def policy(self) -> Policy:
        return self.shards[0].builder.policy

    @property
    def method(self) -> PairMethod:
        return self.shards[0].builder.method

    @property
    def write_generations(self) -> tuple[int, ...]:
        """Per-shard write generations (the query-cache epoch)."""
        return tuple(shard.generation for shard in self.shards)

    @property
    def write_generation(self) -> int:
        """Monotonic counter of index mutations, summed over shards."""
        return sum(shard.generation for shard in self.shards)

    # -- observability -------------------------------------------------------------

    def query_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the query-result cache."""
        return self._query_cache.stats() if self._query_cache is not None else {}

    def postings_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the decoded-postings caches."""
        return _summed_stats(shard.postings_cache for shard in self.shards)

    def sequence_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the decoded-sequence caches."""
        return _summed_stats(shard.sequence_cache for shard in self.shards)

    def slow_queries(self) -> list[SlowQueryEntry]:
        """Recent slow queries (empty when no threshold is configured)."""
        return self.slow_query_log.entries if self.slow_query_log is not None else []

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: caches, generation, fan-outs, slowlog."""
        with self._counter_lock:
            samples: dict[str, float] = {
                "repro_index_write_generation": self.write_generation,
                "repro_shard_count": len(self.shards),
                "repro_shard_fanout_total": self._fanouts,
                "repro_shard_fanout_deadline_total": self._fanout_deadlines,
            }
        for prefix, stats in (
            ("repro_query_cache", self.query_cache_stats()),
            ("repro_postings_cache", self.postings_cache_stats()),
            ("repro_sequence_cache", self.sequence_cache_stats()),
        ):
            if stats:
                samples[f"{prefix}_hits_total"] = stats.get("hits", 0)
                samples[f"{prefix}_misses_total"] = stats.get("misses", 0)
                samples[f"{prefix}_evictions_total"] = stats.get("evictions", 0)
                samples[f"{prefix}_entries"] = stats.get("entries", 0)
        if self.slow_query_log is not None:
            samples["repro_slow_queries_total"] = self.slow_query_log.stats()["slow"]
        return samples

    def _observe_query(
        self, kind: str, detail: str, compute: Callable[[], Any]
    ) -> Any:
        """Run one query call under a span and the slow-query timer."""
        span = current_tracer().span(kind)
        start = time.perf_counter()
        try:
            with span:
                return compute()
        finally:
            if self.slow_query_log is not None:
                self.slow_query_log.observe(
                    kind, detail, time.perf_counter() - start
                )

    def _cached(self, key: tuple[Hashable, ...], compute: Callable[[], Any]) -> Any:
        """Memoize ``compute()`` under the current shard generations.

        List results are stored as tuples and returned as fresh lists, so a
        caller reordering/extending its list cannot poison later cache hits.
        The elements themselves (:class:`PatternMatch`, :class:`PatternStats`,
        :class:`ContinuationProposal`, plain strings/ints) are shared between
        the cache and every caller -- safe because they are all immutable
        (frozen dataclasses with tuple fields).
        """
        if self._query_cache is None:
            return compute()
        full_key = (self.write_generations,) + key
        cached = self._query_cache.get(full_key, _MISS)
        if cached is not _MISS:
            return list(cached) if isinstance(cached, tuple) else cached
        result = compute()
        self._query_cache.put(
            full_key, tuple(result) if isinstance(result, list) else result
        )
        return result

    # -- pre-processing -----------------------------------------------------------

    def update(
        self, new_events: EventLog | Iterable[Event], partition: str = ""
    ) -> UpdateStats:
        """Index a batch of new events (incremental, duplicate-free).

        The batch is split by owning shard and each sub-batch applies under
        that shard's ingest lock, so concurrent ``update()`` calls serialize
        per shard (the builder's read-modify-write bookkeeping is not safe
        under concurrent batches) and interleave across shards.

        A shard's write generation is bumped *after* its batch is applied
        (in a ``finally``, so a partially applied failed update also
        invalidates): a query racing the update caches its possibly-partial
        result under the pre-update generation, which no post-update query
        ever reads.  Bumping before the update would let such a partial
        result be cached under the new generation and served as a hit
        indefinitely.
        """
        if self._pool is None:
            return self.shards[0].update(new_events, partition)
        per_shard = self._split_events(new_events)
        touched = [i for i, batch in enumerate(per_shard) if batch is not None]
        results = self._pool.gather(
            [partial(self.shards[i].update, per_shard[i], partition) for i in touched]
        )
        merged = UpdateStats(partition=partition)
        for stats in results:
            merged.traces_seen += stats.traces_seen
            merged.new_traces += stats.new_traces
            merged.events_indexed += stats.events_indexed
            merged.pairs_created += stats.pairs_created
        return merged

    def _split_events(
        self, new_events: EventLog | Iterable[Event]
    ) -> list[EventLog | list[Event] | None]:
        """Partition a batch by owning shard, preserving input order."""
        n = len(self.shards)
        if isinstance(new_events, EventLog):
            buckets: list[list[Any] | None] = [None] * n
            for trace in new_events:
                i = shard_for_trace(trace.trace_id, n)
                if buckets[i] is None:
                    buckets[i] = []
                buckets[i].append(trace)
            return [
                EventLog(bucket, name=new_events.name) if bucket is not None else None
                for bucket in buckets
            ]
        event_buckets: list[list[Event] | None] = [None] * n
        for event in new_events:
            i = shard_for_trace(event.trace_id, n)
            if event_buckets[i] is None:
                event_buckets[i] = []
            event_buckets[i].append(event)
        return event_buckets

    def prune_trace(self, trace_id: str) -> None:
        """Forget a completed trace's update bookkeeping (§3.1.3).

        Queries over already-indexed pairs keep working; the trace simply
        can no longer receive incremental appends.  As in :meth:`update`,
        the owning shard's generation bump happens after the mutation.
        """
        self.shards[self.shard_of(trace_id)].prune_trace(trace_id)

    def flush(self) -> None:
        """Flush the underlying stores (durable backends)."""
        for shard in self.shards:
            shard.store.flush()

    def close(self) -> None:
        """Close every store (all of them, even if one fails) and the pool."""
        if self._closed:
            return
        self._closed = True
        REGISTRY.unregister(self._obs_handle)
        errors: list[Exception] = []
        for shard in self.shards:
            try:
                shard.store.close()
            except Exception as exc:
                errors.append(exc)
        if self._pool is not None:
            self._pool.close()
        if errors:
            raise errors[0]

    def __enter__(self) -> "SequenceIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the query path: plan, run per shard, merge -------------------------------

    def _scatter(
        self,
        run: Callable[[QueryProcessor], Any],
        merge: Callable[[list[Any]], Any],
        deadline: float | None,
    ) -> Any:
        """``run`` against every shard's query processor, then ``merge``.

        One shard runs inline and its result is returned as is.  N shards
        fan out on the pool; a deadline passing mid-gather cancels the
        shards that have not started.
        """
        if self._pool is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded("deadline expired before execution")
            return run(self.shards[0].query)
        with self._counter_lock:
            self._fanouts += 1
        span = current_tracer().span("shard.fanout")
        with span:
            if span.enabled:
                span.add("shards", len(self.shards))
            try:
                results = self._pool.gather(
                    [partial(run, shard.query) for shard in self.shards], deadline
                )
            except DeadlineExceeded:
                with self._counter_lock:
                    self._fanout_deadlines += 1
                raise
        with current_tracer().span("shard.merge"):
            return merge(results)

    def _execute(
        self,
        plan: QueryPlan | PatternPlan | None,
        run: Callable[[QueryProcessor, Any], Any],
        merge: Callable[[list[Any]], Any],
        deadline: float | None,
    ) -> Any:
        """Run a planned query: a provably empty plan touches no posting."""
        if plan is not None and plan.proves_empty:
            return merge([])
        return self._scatter(lambda query: run(query, plan), merge, deadline)

    def _cardinalities(self, pairs: Sequence[tuple[str, str]]) -> tuple[int, ...]:
        """Exact per-pair completion counts, summed over shards."""
        return self._scatter(
            lambda query: query.cardinalities(pairs),
            lambda per_shard: tuple(map(sum, zip(*per_shard))),
            None,
        )

    def _plan(self, pattern: Sequence[str], partition: str | None) -> QueryPlan:
        return build_plan(pattern, self._cardinalities, partition)

    def _pattern_plan(self, pattern: Pattern, partition: str | None) -> PatternPlan:
        return build_pattern_plan(pattern, self._cardinalities, partition)

    def _detect(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        deadline: float | None = None,
    ) -> list[PatternMatch]:
        """Uncached plain detection (the continuation explorer's read)."""
        plan = None
        if policy is not Policy.STAM and len(pattern) >= 2:
            plan = self._plan(pattern, partition)
        return self._execute(
            plan,
            lambda query, plan: query.detect(
                pattern, partition, policy, max_matches, within, plan
            ),
            partial(_merge_matches, max_matches=max_matches),
            deadline,
        )

    def _detect_pattern(
        self,
        pattern: Pattern,
        partition: str | None,
        max_matches: int | None,
        deadline: float | None,
    ) -> list[PatternMatch]:
        return self._execute(
            self._pattern_plan(pattern, partition),
            lambda query, plan: query.detect_pattern(
                pattern, partition, max_matches, plan
            ),
            partial(_merge_matches, max_matches=max_matches),
            deadline,
        )

    def _counts(self, first: str) -> dict[str, tuple[float, int]]:
        """The Count row of ``first``, summed over shards."""
        return _summed_rows([shard.tables.get_counts(first) for shard in self.shards])

    def _reverse_counts(self, second: str) -> dict[str, tuple[float, int]]:
        """The ReverseCount row of ``second``, summed over shards."""
        return _summed_rows(
            [shard.tables.get_reverse_counts(second) for shard in self.shards]
        )

    def _explorer(self, deadline: float | None) -> ContinuationExplorer:
        if deadline is None:
            return self.explorer
        return ContinuationExplorer(
            self._counts,
            self._reverse_counts,
            partial(self._detect, deadline=deadline),
        )

    # -- argument routing and checks ----------------------------------------------

    def _composite(self, pattern: object) -> Pattern | None:
        """Route :class:`Pattern` objects and expression strings.

        Plain lists/tuples of activities keep the Algorithm 2 chain-join
        path; a :class:`~repro.core.pattern.Pattern` or a pattern
        expression string (``"SEQ(A, !B, (C|D)+) WITHIN 10"``) takes the
        composite prune-then-verify path.
        """
        if isinstance(pattern, Pattern):
            return pattern
        if isinstance(pattern, str):
            return parse_pattern(pattern)
        return None

    def _check_composite(
        self, policy: Policy | None = None, within: float | None = None
    ) -> None:
        """Guard composite-pattern queries against unsupported arguments.

        Composite semantics are skip-till-next-match by definition and the
        pair-index pruning is sound only over STNM pairs (an SC index
        records strictly-contiguous pairs, so a trace can match a composite
        pattern while holding none of its index pairs).  The window lives
        in the expression (``WITHIN``), not in the ``within=`` post-filter.
        """
        if policy is not None:
            raise ValueError(
                "composite patterns fix the skip-till-next-match strategy; "
                "the policy argument applies to plain sequence patterns only"
            )
        if within is not None:
            raise ValueError(
                "composite patterns carry their window inside the expression "
                "(WITHIN ...); the within= argument applies to plain "
                "sequence patterns only"
            )
        if self.policy is not Policy.STNM:
            raise PolicyMismatchError(
                "composite pattern queries need an index built with "
                f"Policy.STNM; this index uses {self.policy.value!r}, whose "
                "pairs cannot prune skip-till-next-match candidates soundly"
            )

    # -- queries ----------------------------------------------------------------------

    def detect(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        explain: bool = False,
        explain_profile: bool = False,
        deadline: float | None = None,
    ) -> (
        list[PatternMatch]
        | tuple[list[PatternMatch], QueryPlan | PatternPlan]
        | tuple[list[PatternMatch], QueryPlan | PatternPlan, QueryProfile]
    ):
        """All completions of ``pattern`` (Algorithm 2).

        ``pattern`` may also be a :class:`~repro.core.pattern.Pattern` or a
        pattern expression string -- e.g. ``"SEQ(A, !B, (C|D)+) WITHIN 10"``
        -- which routes to the composite prune-then-verify path (requires a
        STNM index; ``policy``/``within`` must stay unset).

        With ``explain=True`` the return value is ``(matches, plan)`` where
        ``plan`` records the pair cardinalities and join order the planner
        chose; explain calls bypass the query-result cache so the plan
        always reflects a real execution.  ``explain_profile=True``
        (implies ``explain``) additionally runs the detection under a fresh
        tracer and returns ``(matches, plan, profile)``, where ``profile``
        breaks the call into stages (plan / fetch_postings / intersect /
        join / materialize -- or plan / fetch_postings / intersect / verify
        on the composite path).
        """
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite(policy, within)
            pattern = composite
            detail = f"pattern={str(composite)!r} partition={partition!r}"
            key: tuple[Hashable, ...] = ("detect", composite, partition, max_matches)

            def compute() -> list[PatternMatch]:
                return self._detect_pattern(composite, partition, max_matches, deadline)

        else:
            _check_plain(pattern, within)
            detail = f"pattern={list(pattern)!r} partition={partition!r}"
            key = ("detect", tuple(pattern), partition, policy, max_matches, within)

            def compute() -> list[PatternMatch]:
                return self._detect(
                    pattern, partition, policy, max_matches, within, deadline
                )

        if explain_profile:
            tracer = Tracer()
            with activate(tracer):
                matches = self._observe_query("query.detect", detail, compute)
            plan = self.explain(pattern, partition)
            profile = profile_from_tracer(tracer, "query.detect")
            return matches, plan, profile
        if explain:
            plan = self.explain(pattern, partition)
            return self._observe_query("query.detect", detail, compute), plan
        return self._observe_query(
            "query.detect", detail, lambda: self._cached(key, compute)
        )

    def explain(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> QueryPlan | PatternPlan:
        """The execution plan a detection of ``pattern`` would use."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite()
            return self._observe_query(
                "query.explain",
                f"pattern={str(composite)!r} partition={partition!r}",
                lambda: self._cached(
                    ("explain", composite, partition),
                    lambda: self._pattern_plan(composite, partition),
                ),
            )
        if len(pattern) < 2:
            # Length-0/1 patterns never reach the join; report a trivial plan.
            return QueryPlan(
                pattern=tuple(pattern),
                pairs=(),
                cardinalities=(),
                order=(),
                reordered=False,
                partition=partition,
            )
        return self._observe_query(
            "query.explain",
            f"pattern={list(pattern)!r} partition={partition!r}",
            lambda: self._cached(
                ("explain", tuple(pattern), partition),
                lambda: self._plan(pattern, partition),
            ),
        )

    def count(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        within: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Number of completions of ``pattern``."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite(within=within)
            return self._observe_query(
                "query.count",
                f"pattern={str(composite)!r} partition={partition!r}",
                lambda: self._cached(
                    ("count", composite, partition),
                    lambda: self._execute(
                        self._pattern_plan(composite, partition),
                        lambda query, plan: query.count_pattern(
                            composite, partition, plan
                        ),
                        sum,
                        deadline,
                    ),
                ),
            )
        _check_plain(pattern, within)

        def compute() -> int:
            plan = self._plan(pattern, partition) if len(pattern) >= 2 else None
            return self._execute(
                plan,
                lambda query, plan: query.count(pattern, partition, within, plan),
                sum,
                deadline,
            )

        return self._observe_query(
            "query.count",
            f"pattern={list(pattern)!r} partition={partition!r}",
            lambda: self._cached(("count", tuple(pattern), partition, within), compute),
        )

    def detect_with_prefixes(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        deadline: float | None = None,
    ) -> dict[int, list[PatternMatch]]:
        """Completions of the pattern and every prefix (free by-product).

        Prefix snapshots only exist under left-to-right evaluation, so each
        shard runs the naive chain; per length, shard results merge like a
        detection's.
        """

        def compute() -> tuple[tuple[int, tuple[PatternMatch, ...]], ...]:
            prefixes = self._scatter(
                lambda query: query.detect_with_prefixes(pattern, partition),
                _merge_prefixes,
                deadline,
            )
            return tuple((length, tuple(found)) for length, found in prefixes.items())

        frozen = self._observe_query(
            "query.detect_with_prefixes",
            f"pattern={list(pattern)!r} partition={partition!r}",
            lambda: self._cached(("prefixes", tuple(pattern), partition), compute),
        )
        return {length: list(found) for length, found in frozen}

    def contains(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> list[str]:
        """Sorted ids of traces containing ``pattern``."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite()
            return self._observe_query(
                "query.contains",
                f"pattern={str(composite)!r} partition={partition!r}",
                lambda: self._cached(
                    ("contains", composite, partition),
                    lambda: self._execute(
                        self._pattern_plan(composite, partition),
                        lambda query, plan: query.contains_pattern(
                            composite, partition, plan
                        ),
                        _merge_ids,
                        deadline,
                    ),
                ),
            )
        _check_plain(pattern)

        def compute() -> list[str]:
            plan = self._plan(pattern, partition) if len(pattern) >= 2 else None
            return self._execute(
                plan,
                lambda query, plan: query.contains(pattern, partition, plan),
                _merge_ids,
                deadline,
            )

        return self._observe_query(
            "query.contains",
            f"pattern={list(pattern)!r} partition={partition!r}",
            lambda: self._cached(("contains", tuple(pattern), partition), compute),
        )

    def statistics(
        self,
        pattern: Sequence[str],
        all_pairs: bool = False,
        deadline: float | None = None,
    ) -> PatternStats:
        """Pairwise statistics of ``pattern`` (constant-time per pair).

        ``all_pairs=True`` also reads every non-adjacent pattern pair for a
        tighter completions bound (§3.2.1's accuracy/time trade-off).  On N
        shards, counts and durations sum and last completions take the max.
        """
        return self._observe_query(
            "query.statistics",
            f"pattern={list(pattern)!r} all_pairs={all_pairs}",
            lambda: self._cached(
                ("statistics", tuple(pattern), all_pairs),
                lambda: self._scatter(
                    lambda query: query.statistics(pattern, all_pairs),
                    partial(_merge_statistics, pattern),
                    deadline,
                ),
            ),
        )

    def continuations(
        self,
        pattern: Sequence[str],
        mode: str = "hybrid",
        top_k: int = 5,
        within: float | None = None,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> list[ContinuationProposal]:
        """Ranked candidate next events (Algorithms 3-5, Equation 1)."""
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")

        def compute() -> list[ContinuationProposal]:
            explorer = self._explorer(deadline)
            if mode == "accurate":
                return explorer.accurate(pattern, within, partition)
            if mode == "fast":
                return explorer.fast(pattern)
            return explorer.hybrid(pattern, top_k, within, partition)

        return self._observe_query(
            "query.continuations",
            f"pattern={list(pattern)!r} mode={mode!r} top_k={top_k}",
            lambda: self._cached(
                ("continuations", tuple(pattern), mode, top_k, within, partition),
                compute,
            ),
        )

    def explore_at(
        self,
        pattern: Sequence[str],
        position: int,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> list[ContinuationProposal]:
        """Propose insertions at arbitrary pattern positions (§7 extension)."""
        return self._observe_query(
            "query.explore_at",
            f"pattern={list(pattern)!r} position={position}",
            lambda: self._cached(
                ("explore_at", tuple(pattern), position, partition),
                lambda: self._explorer(deadline).explore_at(
                    pattern, position, partition
                ),
            ),
        )

    # -- introspection -------------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Ids of traces currently tracked in the Seq tables, sorted."""
        merged = [
            trace_id
            for shard in self.shards
            for trace_id, _ in shard.tables.iter_sequences()
        ]
        if len(self.shards) > 1:
            merged.sort()
        return merged

    def get_trace(self, trace_id: str) -> list[tuple[str, float]]:
        """The indexed ``(activity, timestamp)`` sequence of one trace."""
        return self.shards[self.shard_of(trace_id)].tables.get_sequence(trace_id)

    def indexed_tail(self, trace_id: str) -> float | None:
        """Timestamp of the trace's last indexed event (``None`` if unknown).

        The streaming ingester's replay filter compares feed events against
        this tail to make crash replay idempotent (docs/INGEST.md); a trace
        pruned via :meth:`prune_trace` reads as unknown again, matching the
        builder's refusal to append to pruned traces.
        """
        seq = self.get_trace(trace_id)
        return seq[-1][1] if seq else None

    def top_pairs(self, k: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The ``k`` most frequent event pairs, from the Count tables.

        A cheap exploratory primitive (one table scan per shard, no
        detection): which follow-relations dominate the log.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        totals: dict[tuple[str, str], int] = {}
        for shard in self.shards:
            # Every pair a shard knows counts: a pair rare on one shard may
            # be hot overall.
            for key, per_second in shard.store.scan("count"):
                first = key[0]
                for second, stats in per_second.items():
                    pair = (first, second)
                    totals[pair] = totals.get(pair, 0) + int(stats[1])
        frequencies = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        return frequencies[:k]

    def activities(self) -> set[str]:
        """Activity alphabet observed by the index (via the Count tables)."""
        alphabet: set[str] = set()
        for shard in self.shards:
            for table in ("count", "reverse_count"):
                for key, value in shard.store.scan(table):
                    alphabet.add(key[0])
                    alphabet.update(value)
        return alphabet

    def storage_stats(self) -> dict[str, Any]:
        """Storage accounting: per-shard breakdown plus totals.

        Stores without storage accounting (the in-memory backend) report
        empty rows.
        """
        per_shard = []
        totals = {
            "sstables": 0,
            "records": 0,
            "data_bytes": 0,
            "raw_data_bytes": 0,
            "file_bytes": 0,
        }
        for i, shard in enumerate(self.shards):
            stats_fn = getattr(shard.store, "storage_stats", None)
            stats = stats_fn() if stats_fn is not None else {}
            per_shard.append({"shard": i, **stats})
            totals["sstables"] += len(stats.get("sstables", ()))
            for name in ("records", "data_bytes", "raw_data_bytes", "file_bytes"):
                totals[name] += stats.get(name, 0)
        raw = totals["raw_data_bytes"]
        disk = totals["data_bytes"]
        totals["compression_ratio"] = (raw / disk) if disk else 1.0
        return {
            "num_shards": len(self.shards),
            "shards": per_shard,
            "totals": totals,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SequenceIndex(num_shards={len(self.shards)})"


def _check_plain(pattern: Sequence[str], within: float | None = None) -> None:
    if len(pattern) == 0:
        raise EmptyPatternError("cannot detect an empty pattern")
    if within is not None and within < 0:
        raise ValueError("within must be non-negative")


def _merge_matches(
    per_shard: list[list[PatternMatch]], max_matches: int | None
) -> list[PatternMatch]:
    """Disjoint-union merge: stable sort by trace id, then truncate.

    Stability preserves each trace's chronological match order, and the
    per-shard ``max_matches`` caps compose exactly: any match within the
    global first ``k`` has fewer than ``k`` predecessors globally, hence
    fewer than ``k`` on its own shard, so its shard returned it.
    """
    merged = [m for matches in per_shard for m in matches]
    merged.sort(key=lambda m: m.trace_id)
    return merged if max_matches is None else merged[:max_matches]


def _merge_ids(per_shard: list[list[str]]) -> list[str]:
    return sorted(trace_id for found in per_shard for trace_id in found)


def _merge_prefixes(
    per_shard: list[dict[int, list[PatternMatch]]],
) -> dict[int, list[PatternMatch]]:
    """Per prefix length, the disjoint union of every shard's matches.

    A shard omits lengths its chain set died before; the union of lengths
    is what one store over all traces reports.
    """
    lengths = sorted({length for prefixes in per_shard for length in prefixes})
    return {
        length: _merge_matches(
            [prefixes.get(length, []) for prefixes in per_shard], None
        )
        for length in lengths
    }


def _merge_statistics(
    pattern: Sequence[str], per_shard: list[PatternStats]
) -> PatternStats:
    def merge_rows(rows: tuple[PairStats, ...]) -> PairStats:
        lasts = [r.last_completion for r in rows if r.last_completion is not None]
        return PairStats(
            pair=rows[0].pair,
            completions=sum(r.completions for r in rows),
            total_duration=sum(r.total_duration for r in rows),
            last_completion=max(lasts) if lasts else None,
        )

    return PatternStats(
        pattern=tuple(pattern),
        pairs=tuple(
            merge_rows(rows) for rows in zip(*(stats.pairs for stats in per_shard))
        ),
        extra_pairs=tuple(
            merge_rows(rows)
            for rows in zip(*(stats.extra_pairs for stats in per_shard))
        ),
    )


def _summed_rows(
    rows: list[dict[str, tuple[float, int]]],
) -> dict[str, tuple[float, int]]:
    """Element-wise sum of Count rows; one row is returned as is."""
    if len(rows) == 1:
        return rows[0]
    total: dict[str, tuple[float, int]] = {}
    for row in rows:
        for event, (duration, completions) in row.items():
            if event in total:
                seen_duration, seen_completions = total[event]
                total[event] = (seen_duration + duration, seen_completions + completions)
            else:
                total[event] = (duration, completions)
    return total


def _summed_stats(caches: Iterable[LRUCache | None]) -> dict[str, int]:
    """Counter-wise sum of LRU stats; ``{}`` when no cache is attached."""
    total: dict[str, int] = {}
    for cache in caches:
        if cache is not None:
            for name, value in cache.stats().items():
                total[name] = total.get(name, 0) + value
    return total
