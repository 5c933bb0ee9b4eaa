"""The benchmark's own arithmetic: percentiles, open-loop timing, failures."""

import pytest

from common import (
    MAX_MESSAGES,
    Failures,
    OpenLoop,
    StampedStore,
    failed_frac,
    keep_fastest,
    percentile,
    samples_beyond,
    supported_p99_ms,
)


class TestPercentileRule:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_samples_beyond_counts_the_tail(self):
        assert samples_beyond(1_000, 99) == 10
        assert samples_beyond(999, 99) == 9
        assert samples_beyond(10_000, 99.9) == 10
        assert samples_beyond(100, 90) == 10

    def test_p99_needs_a_thousand_samples(self):
        assert supported_p99_ms([0.001] * 990 + [0.005] * 10) == 1.0
        assert supported_p99_ms([0.001] * 989 + [0.005] * 11) == 5.0
        assert supported_p99_ms([0.001] * 999) is None


class TestOpenLoop:
    def test_schedule_is_fixed_by_rate(self):
        loop = OpenLoop(rate=10.0, start=100.0)
        assert loop.due(0) == 100.0
        assert loop.due(25) == pytest.approx(102.5)

    def test_latency_counts_from_due_time(self):
        # Started late behind a stall: the wait is part of the latency.
        assert OpenLoop.latency(due=1.0, finished=1.35) == pytest.approx(0.35)
        assert OpenLoop.lateness(due=1.0, started=1.3) == pytest.approx(0.3)
        assert OpenLoop.lateness(due=1.0, started=0.9) == 0.0

    def test_stall_delays_every_queued_request(self):
        # One generator thread at 10/s; request 0 stalls for 0.35 s and
        # every other request takes 0.01 s.  Requests 1-3 fall due during
        # the stall, so their latency includes waiting for it.
        loop = OpenLoop(rate=10.0, start=0.0)
        clock = 0.0
        latencies, lateness = [], []
        for i in range(6):
            due = loop.due(i)
            clock = max(clock, due)
            lateness.append(loop.lateness(due, clock))
            clock += 0.35 if i == 0 else 0.01
            latencies.append(loop.latency(due, clock))
        assert latencies[0] == pytest.approx(0.35)
        assert latencies[1] == pytest.approx(0.26)
        assert latencies[3] == pytest.approx(0.08)
        assert latencies[4] == pytest.approx(0.01)
        assert max(lateness) == pytest.approx(0.25)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            OpenLoop(rate=0.0, start=0.0)


class TestFailures:
    def test_failed_frac(self):
        assert failed_frac(0, 10) == 0.0
        assert failed_frac(3, 12) == 0.25
        with pytest.raises(ValueError):
            failed_frac(0, 0)
        with pytest.raises(ValueError):
            failed_frac(5, 4)

    def test_counts_per_code_and_keeps_messages(self):
        failures = Failures()
        failures.attempted = 100
        for i in range(MAX_MESSAGES + 3):
            failures.record("bad_request", f"KeyError (229, 'act_{i:03d}')")
        failures.record("overloaded", "too many in-flight queries")
        assert failures.failed == MAX_MESSAGES + 4
        assert failures.failed_frac() == pytest.approx((MAX_MESSAGES + 4) / 100)
        report = failures.report()
        assert report["bad_request"]["count"] == MAX_MESSAGES + 3
        assert report["bad_request"]["messages"][0] == "KeyError (229, 'act_000')"
        assert len(report["bad_request"]["messages"]) == MAX_MESSAGES
        assert report["overloaded"] == {"count": 1, "messages": ["too many in-flight queries"]}

    def test_checks_count_as_attempts(self):
        failures = Failures()
        assert failures.check(True, "wrong_result", "fine")
        assert not failures.check(False, "wrong_result", "pattern X: 3 vs 4")
        assert failures.attempted == 2
        assert failures.failed_frac() == 0.5
        assert failures.report() == {"wrong_result": {"count": 1, "messages": ["pattern X: 3 vs 4"]}}


class FakeStore:
    def __init__(self):
        self.calls = []
        self.metrics = "passed through"

    def get(self, table, key, default=None):
        self.calls.append(("get", table, key))
        return default

    def multi_get(self, table, keys, default=None):
        self.calls.append(("multi_get", table, list(keys)))
        return [default for _ in keys]

    def merge(self, table, key, delta):
        self.calls.append(("merge", table, key, delta))


class TestStepTiming:
    def test_stamps_cut_an_op_into_steps_that_add_up(self):
        inner = FakeStore()
        store = StampedStore(inner)
        store.get("t", 1)
        store.multi_get("t", [1, 2])
        store.merge("t", 3, 4)
        assert inner.calls == [("get", "t", 1), ("multi_get", "t", [1, 2]), ("merge", "t", 3, 4)]
        assert store.metrics == "passed through"
        start, end = store.stamps[0] - 0.5, store.stamps[-1] + 0.25
        steps = store.take(start, end)
        assert len(steps) == 4
        assert steps[0] == pytest.approx(0.5) and steps[-1] == pytest.approx(0.25)
        assert sum(steps) == pytest.approx(end - start)
        assert store.take(1.0, 3.0) == [2.0]

    def test_each_step_keeps_its_fastest_run(self):
        failures = Failures()
        assert keep_fastest([3.0, 1.0, 2.0], [2.0, 4.0, 0.5], failures, "op") == [2.0, 1.0, 0.5]
        assert (failures.attempted, failures.failed) == (1, 0)

    def test_a_different_step_count_is_a_failure(self):
        failures = Failures()
        assert keep_fastest([3.0, 1.0], [2.0], failures, "op 7") == [3.0, 1.0]
        assert failures.counts == {"nondeterministic": 1}
        assert "op 7" in failures.messages["nondeterministic"][0]

