"""Seeded inputs: same shape per seed, never-repeating queries, and a live
split whose held-back events only ever extend traces forward."""

import itertools

import pytest

from inputs import COMPOSITE, CONTINUATION, PLAIN, Inputs, live_split, op_kind
from repro.core.engine import SequenceIndex
from repro.core.pattern import parse_pattern
from repro.ingest import EngineSink, FeedWriter, TailIngester
from repro.logs.process_generator import generate_process_log


@pytest.fixture(scope="module")
def inputs():
    return Inputs(3)


@pytest.fixture(scope="module")
def bench_log(inputs):
    return inputs.log


def _shape(log):
    return sorted(len(trace) for trace in log)


def test_relabeling_keeps_the_shape_and_changes_the_keys(bench_log):
    other = Inputs(4).log
    assert len(bench_log) == len(other) == 500
    assert bench_log.num_events == other.num_events == 17_298
    assert _shape(bench_log) == _shape(other)
    assert set(bench_log.trace_ids).isdisjoint(other.trace_ids)
    assert Inputs(3).log.trace_ids == bench_log.trace_ids
    first, first_other = next(iter(bench_log)), next(iter(other))
    assert len(first) == len(first_other)
    assert first.activities != first_other.activities


def test_op_mix():
    kinds = [op_kind(i) for i in range(27 * 7)]
    assert kinds.count(CONTINUATION) == 7
    assert kinds[6] == COMPOSITE and kinds[26] == CONTINUATION and kinds[0] == PLAIN


def test_query_stream_never_repeats_and_parses(inputs):
    ops = list(itertools.islice(inputs.query_stream(), 600))
    assert len(set(ops)) == len(ops)
    assert [kind for kind, _ in ops] == [op_kind(i) for i in range(600)]
    for kind, query in ops:
        if kind == COMPOSITE:
            parse_pattern(query)
        elif kind == PLAIN:
            assert 2 <= len(query) <= 10
        else:
            assert 2 <= len(query) <= 3
    assert ops == list(itertools.islice(Inputs(3).query_stream(), 600))


def test_seeds_rename_the_same_queries(inputs):
    other = Inputs(4)
    ours = list(itertools.islice(inputs.query_stream(), 100))
    theirs = list(itertools.islice(other.query_stream(), 100))
    assert [kind for kind, _ in ours] == [kind for kind, _ in theirs]
    assert [len(q) for _, q in ours] == [len(q) for _, q in theirs]
    assert ours != theirs


def test_hot_patterns_are_distinct(inputs):
    patterns = inputs.hot_patterns()
    assert len(patterns) == 64
    assert len({tuple(p) for p in patterns}) == 64
    assert all(len(p) == 4 for p in patterns)


def test_live_split_only_appends_later_timestamps(bench_log):
    base, held = live_split(bench_log)
    assert base.num_events == 11_907 and len(held) == 5_391
    tails = {trace.trace_id: trace.timestamps[-1] for trace in base}
    last_seen = dict(tails)
    for event in held:
        assert event.timestamp > last_seen[event.trace_id]
        last_seen[event.trace_id] = event.timestamp
    assert held == sorted(held, key=lambda ev: (ev.timestamp, ev.trace_id))


def test_live_feed_never_trips_trace_order(tmp_path):
    log = generate_process_log(num_traces=12, num_activities=8, seed=5)
    base, held = live_split(log)
    index = SequenceIndex()
    index.update(base)
    feed = str(tmp_path / "feed.jsonl")
    with FeedWriter(feed) as producer, TailIngester(
        feed, EngineSink(index), str(tmp_path / "ckpt.json"), batch_events=5
    ) as ingester:
        for start in range(0, len(held), 5):
            producer.append(held[start : start + 5])
            ingester.drain()
        assert ingester.stats().events_applied == len(held)
    full = SequenceIndex()
    full.update(log)
    for trace in log:
        assert index.get_trace(trace.trace_id) == full.get_trace(trace.trace_id)
