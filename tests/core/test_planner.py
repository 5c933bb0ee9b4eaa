"""Planner equivalence and plan introspection.

The selectivity-driven planner must be *unobservable* through results: for
any log, pattern, policy, partition layout and cache configuration,
planner-ordered detection returns byte-identical matches to naive
left-to-right evaluation (the chain behind ``detect_with_prefixes``) and
to a brute-force per-trace oracle.  These
properties pin that down, alongside sanity checks of the plan object and
its metrics/CLI surface.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SequenceIndex
from repro.core.errors import EmptyPatternError
from repro.core.model import EventLog
from repro.core.pairs import reference_stnm_pairs, strict_pairs
from repro.core.policies import Policy

ACTIVITIES = "ABCD"

LOGS = st.dictionaries(
    st.sampled_from(["t1", "t2", "t3", "t4"]),
    st.lists(st.sampled_from(ACTIVITIES), min_size=2, max_size=25),
    min_size=1,
    max_size=4,
)
PATTERNS = st.lists(st.sampled_from(ACTIVITIES), min_size=2, max_size=5)


def _oracle_matches(log_dict, pattern, policy):
    """Brute-force Algorithm 2 per trace, from the reference pair builders."""
    reference = strict_pairs if policy is Policy.SC else reference_stnm_pairs
    out = []
    for trace_id in sorted(log_dict):
        activities = log_dict[trace_id]
        stamps = list(range(len(activities)))
        pairs = reference(activities, stamps)
        chains = [list(p) for p in pairs.get((pattern[0], pattern[1]), [])]
        for i in range(1, len(pattern) - 1):
            step = {ta: tb for ta, tb in pairs.get((pattern[i], pattern[i + 1]), [])}
            chains = [c + [step[c[-1]]] for c in chains if c[-1] in step]
        out.extend((trace_id, tuple(chain)) for chain in sorted(map(tuple, chains)))
    return out


def _build(log_dict, policy=Policy.STNM, **knobs):
    index = SequenceIndex(policy=policy, **knobs)
    index.update(EventLog.from_dict(log_dict))
    return index


class TestPlannerEquivalence:
    @given(log=LOGS, pattern=PATTERNS, policy=st.sampled_from([Policy.STNM, Policy.SC]))
    @settings(max_examples=120, deadline=None)
    def test_planner_equals_naive_equals_oracle(self, log, pattern, policy):
        planned = _build(log, policy, query_cache_size=0)
        naive = _build(log, policy, query_cache_size=0, postings_cache_size=0)
        got_planned = planned.detect(pattern)
        got_naive = naive.detect_with_prefixes(pattern)[len(pattern)]
        assert got_planned == got_naive
        assert [(m.trace_id, m.timestamps) for m in got_planned] == _oracle_matches(
            log, pattern, policy
        )

    @given(log=LOGS, pattern=PATTERNS)
    @settings(max_examples=60, deadline=None)
    def test_postings_cache_is_invisible(self, log, pattern):
        cached = _build(log, query_cache_size=0, postings_cache_size=32)
        uncached = _build(log, query_cache_size=0, postings_cache_size=0)
        # Run twice on the cached index: the second detection is served
        # (partially) from decoded postings and must not drift.
        first = cached.detect(pattern)
        second = cached.detect(pattern)
        assert first == second == uncached.detect(pattern)

    @given(log=LOGS, pattern=PATTERNS)
    @settings(max_examples=60, deadline=None)
    def test_count_and_contains_match_detect(self, log, pattern):
        index = _build(log, query_cache_size=0)
        matches = index.detect(pattern)
        assert index.count(pattern) == len(matches)
        assert index.contains(pattern) == sorted({m.trace_id for m in matches})

    @given(log=LOGS, pattern=PATTERNS, within=st.floats(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_count_within_matches_detect(self, log, pattern, within):
        index = _build(log, query_cache_size=0)
        assert index.count(pattern, within=within) == len(
            index.detect(pattern, within=within)
        )

    @given(log=LOGS, pattern=PATTERNS)
    @settings(max_examples=40, deadline=None)
    def test_partition_union_planned_equals_naive(self, log, pattern):
        # Spread traces round-robin over two named partitions plus default,
        # then query the union: planner and naive must still agree.
        def spread(index):
            parts = ["", "p1", "p2"]
            for i, trace_id in enumerate(sorted(log)):
                index.update(
                    EventLog.from_dict({trace_id: log[trace_id]}),
                    partition=parts[i % 3],
                )

        planned = SequenceIndex(query_cache_size=0)
        naive = SequenceIndex(query_cache_size=0, postings_cache_size=0)
        spread(planned)
        spread(naive)

        def left_to_right(partition):
            return naive.detect_with_prefixes(pattern, partition)[len(pattern)]

        assert planned.detect(pattern, partition=None) == left_to_right(None)
        if len(log) >= 2:  # "p1" only exists once a second trace was spread
            assert planned.detect(pattern, partition="p1") == left_to_right("p1")


class TestPlanObject:
    def _index(self):
        return _build(
            {"t1": list("ABCABC"), "t2": list("AABBC"), "t3": list("CBA")}
        )

    def test_order_is_contiguous_permutation(self):
        index = self._index()
        plan = index.explain(["A", "B", "C", "A"])
        n = len(plan.pairs)
        assert sorted(plan.order) == list(range(n))
        # The covered window stays contiguous at every step.
        seen = {plan.order[0]}
        for idx in plan.order[1:]:
            assert idx - 1 in seen or idx + 1 in seen
            seen.add(idx)

    def test_cardinalities_match_statistics(self):
        index = self._index()
        pattern = ["A", "B", "C"]
        plan = index.explain(pattern)
        stats = index.statistics(pattern)
        assert plan.pairs == tuple(zip(pattern, pattern[1:]))
        assert plan.cardinalities == tuple(row.completions for row in stats.pairs)
        assert plan.estimated_cost == min(plan.cardinalities)

    def test_starts_at_rarest_pair(self):
        index = self._index()
        plan = index.explain(["A", "B", "C"])
        rarest = min(
            range(len(plan.cardinalities)), key=lambda i: plan.cardinalities[i]
        )
        assert plan.order[0] == rarest

    def test_reordered_flag(self):
        index = self._index()
        for pattern in (["A", "B", "C"], ["B", "C", "A"], ["A", "B", "C", "A"]):
            plan = index.explain(pattern)
            assert plan.reordered == (plan.order != tuple(range(len(plan.pairs))))

    def test_trivial_plan_for_short_patterns(self):
        index = self._index()
        plan = index.explain(["A"])
        assert plan.pairs == () and plan.order == ()
        assert "left-to-right" in plan.describe()

    def test_describe_lists_every_step(self):
        index = self._index()
        plan = index.explain(["A", "B", "C"])
        lines = plan.describe().splitlines()
        assert len(lines) == len(plan.pairs) + 1
        assert all("cardinality=" in line for line in lines[:-1])

    def test_plan_requires_pairs(self):
        index = self._index()
        with pytest.raises(EmptyPatternError):
            index.query.plan(["A"])


class TestExplainSurface:
    def test_detect_explain_returns_matches_and_plan(self):
        index = _build({"t1": list("ABCABC")}, query_cache_size=0)
        matches, plan = index.detect(["A", "B", "C"], explain=True)
        assert matches == index.detect(["A", "B", "C"])
        assert plan.pattern == ("A", "B", "C")

    def test_explain_bypasses_query_cache(self):
        index = _build({"t1": list("ABCABC")})
        index.detect(["A", "B", "C"])  # warm the result cache
        matches, plan = index.detect(["A", "B", "C"], explain=True)
        assert matches == index.detect(["A", "B", "C"])

    def test_zero_cardinality_short_circuits(self):
        index = _build({"t1": list("ABC")}, query_cache_size=0)
        store_metrics = index.store.metrics
        before = store_metrics.snapshot()
        assert index.detect(["A", "Z"]) == []
        assert index.contains(["A", "Z"]) == []
        after = store_metrics.snapshot()
        # The dead pair is detected from Count alone: the first call issues
        # the one batched Count read, the second hits the planner's
        # Count-row cache -- the Index table is never touched.
        assert after["multi_get_batches"] - before["multi_get_batches"] == 1

    def test_planner_reorders_metric(self):
        index = _build(
            {"t1": list("ABCABC"), "t2": list("ABAB")}, query_cache_size=0
        )
        plan = index.explain(["A", "B", "C"])
        before = index.store.metrics.snapshot().get("planner_reorders", 0)
        index.detect(["A", "B", "C"])
        after = index.store.metrics.snapshot().get("planner_reorders", 0)
        assert after - before == (1 if plan.reordered else 0)

    def test_postings_cache_metrics_accumulate(self):
        index = _build({"t1": list("ABCABC")}, query_cache_size=0)
        index.detect(["A", "B", "C"])
        index.detect(["A", "B", "C"])
        snap = index.store.metrics.snapshot()
        assert snap["postings_cache_hits"] > 0
        assert snap["postings_cache_misses"] > 0
        assert index.postings_cache_stats()["hits"] > 0

    def test_postings_cache_invalidated_by_update(self):
        index = _build({"t1": list("ABC")}, query_cache_size=0)
        assert len(index.detect(["A", "B", "C"])) == 1
        index.update(EventLog.from_dict({"t9": list("ABC")}))
        matches = index.detect(["A", "B", "C"])
        assert sorted(m.trace_id for m in matches) == ["t1", "t9"]

    def test_prefixes_unaffected_by_planner(self):
        log = {"t1": list("ABCABC"), "t2": list("ACBCA")}
        pattern = ["A", "B", "C", "A"]
        planned = _build(log, query_cache_size=0)
        prefixes = planned.detect_with_prefixes(pattern)
        for length, matches in prefixes.items():
            assert matches == planned.detect(pattern[:length])
        assert prefixes == _build(log, postings_cache_size=0).detect_with_prefixes(
            pattern
        )
