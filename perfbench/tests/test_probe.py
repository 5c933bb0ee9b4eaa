"""Tracing probes observe the program without changing its results."""

import json
from types import SimpleNamespace

from probe import SpanLog, TimedStore, self_times
from repro.core.engine import SequenceIndex
from repro.kvstore import InMemoryStore
from repro.logs.process_generator import generate_process_log
from repro.obs.trace import current_tracer


def test_proxy_gives_identical_results_and_times_calls():
    log = generate_process_log(num_traces=30, num_activities=10, seed=2)
    plain = SequenceIndex(InMemoryStore())
    proxy = TimedStore(InMemoryStore())
    traced = SequenceIndex(proxy)
    plain.update(log)
    traced.update(log)
    pattern = log.trace(log.trace_ids[0]).activities[:3]
    assert plain.detect(pattern) == traced.detect(pattern)
    assert plain.continuations(pattern[:2]) == traced.continuations(pattern[:2])
    assert proxy.stats["merge"].calls > 0
    assert proxy.stats["multi_get"].calls > 0
    assert proxy.stats["multi_get"].items >= proxy.stats["multi_get"].calls
    proxy.active = False
    calls = proxy.stats["multi_get"].calls
    traced.detect(pattern[::-1])
    assert proxy.stats["multi_get"].calls == calls


def test_self_time_subtracts_children():
    spans = [
        SimpleNamespace(parent_index=-1, wall_s=1.0),
        SimpleNamespace(parent_index=0, wall_s=0.3),
        SimpleNamespace(parent_index=1, wall_s=0.1),
        SimpleNamespace(parent_index=0, wall_s=0.2),
    ]
    assert self_times(spans) == [
        pytest_approx(0.5),
        pytest_approx(0.2),
        pytest_approx(0.1),
        pytest_approx(0.2),
    ]


def pytest_approx(value):
    import pytest

    return pytest.approx(value)


def test_span_log_keeps_request_and_parent_ids(tmp_path):
    log = SpanLog()
    for _ in range(2):
        with log.request("bench.op"):
            with current_tracer().span("plan"):
                pass
            with current_tracer().span("fetch_postings") as span:
                span.add("entries", 4)
                with current_tracer().span("lsm.multi_get"):
                    pass
    assert log.counter("fetch_postings", "entries") == 8
    assert log.requests == 2
    assert log.self_total("lsm.multi_get") >= 0.0
    path = tmp_path / "spans.jsonl"
    log.write(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["req"] for r in records] == [0] * 4 + [1] * 4
    by_id = {r["id"]: r for r in records}
    assert len(by_id) == 8
    for record in records:
        if record["name"] == "bench.op":
            assert record["parent"] is None
        else:
            assert by_id[record["parent"]]["req"] == record["req"]
    leaf = next(r for r in records if r["name"] == "lsm.multi_get")
    assert by_id[leaf["parent"]]["name"] == "fetch_postings"
