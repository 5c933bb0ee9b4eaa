"""The micro-batch tail loop: dedup, live visibility, metrics, convergence."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.policies import Policy
from repro.ingest import (
    EngineSink,
    FeedEvent,
    FeedWriter,
    TailIngester,
    drop_indexed,
    index_snapshot,
    load_checkpoint,
)
from repro.kvstore import LSMStore
from repro.obs.registry import REGISTRY


def _ab_events(n, trace="t1"):
    """n alternating A/B events on one trace: n // 2 completions of (A, B)."""
    return [
        Event(trace, "AB"[i % 2], float(i + 1)) for i in range(n)
    ]


def _write_feed(path, events, stamp=True):
    with FeedWriter(path) as writer:
        writer.append(events, stamp=stamp)


class TestDropIndexed:
    def test_unknown_traces_pass_through(self):
        fresh, dropped = drop_indexed(_ab_events(4), lambda trace: None)
        assert len(fresh) == 4 and dropped == 0

    def test_at_or_before_tail_is_dropped(self):
        events = _ab_events(4)  # timestamps 1..4
        fresh, dropped = drop_indexed(events, lambda trace: 2.0)
        assert [e.timestamp for e in fresh] == [3.0, 4.0]
        assert dropped == 2

    def test_tail_advances_within_the_batch(self):
        # Two events with equal timestamps on one trace: the first advances
        # the in-memory tail, so the second is dropped as a duplicate.
        events = [Event("t1", "A", 5.0), Event("t1", "A", 5.0)]
        fresh, dropped = drop_indexed(events, lambda trace: None)
        assert len(fresh) == 1 and dropped == 1

    def test_tail_read_once_per_trace(self):
        calls = []

        def tail_of(trace):
            calls.append(trace)
            return None

        drop_indexed(_ab_events(6) + _ab_events(6, trace="t2"), tail_of)
        assert sorted(calls) == ["t1", "t2"]


def _ab_feed_events(n, trace="t1"):
    return [
        FeedEvent(trace, "AB"[i % 2], float(i + 1)) for i in range(n)
    ]


class TestEngineSink:
    def test_replayed_batch_is_a_no_op(self):
        with SequenceIndex(policy=Policy.STNM) as engine:
            sink = EngineSink(engine)
            events = _ab_feed_events(6)
            assert sink.apply(events) == (6, 0)
            before = len(engine.detect(["A", "B"]))
            assert sink.apply(events) == (0, 6)  # full replay: all deduped
            assert len(engine.detect(["A", "B"])) == before

    def test_straddling_batch_keeps_its_fresh_suffix(self):
        with SequenceIndex(policy=Policy.STNM) as engine:
            sink = EngineSink(engine)
            events = _ab_feed_events(8)
            sink.apply(events[:4])
            assert sink.apply(events) == (4, 4)
            assert len(engine.detect(["A", "B"])) == 4


class TestTailIngester:
    def test_drain_indexes_the_feed(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        checkpoint = str(tmp_path / "cp")
        _write_feed(feed, _ab_events(10))
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as engine:
            with TailIngester(
                feed, EngineSink(engine), checkpoint, batch_events=3
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_applied == 10
            assert stats.events_deduped == 0
            assert stats.lag_bytes == 0
            assert stats.batches == 4  # ceil(10 / 3)
            assert len(engine.detect(["A", "B"])) == 5
        assert load_checkpoint(checkpoint).offset == stats.offset

    def test_live_visibility_without_restart(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp")
            ) as ingester:
                _write_feed(feed, _ab_events(4))
                ingester.drain()
                assert len(engine.detect(["A", "B"])) == 2
                # The feed grows; the same engine instance sees the new
                # events after the next drain -- no reopen, no rebuild.
                with FeedWriter(feed) as writer:
                    writer.append(
                        [Event("t1", "A", 10.0), Event("t1", "B", 11.0)]
                    )
                ingester.drain()
                assert len(engine.detect(["A", "B"])) == 3

    def test_checkpoint_resume_reads_nothing_twice(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        checkpoint = str(tmp_path / "cp")
        _write_feed(feed, _ab_events(6))
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), checkpoint
            ) as ingester:
                ingester.drain()
            with TailIngester(
                feed, EngineSink(engine), checkpoint
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_read == 0
            assert stats.events_applied == 0

    def test_lost_checkpoint_replay_converges(self, tmp_path):
        # The checkpoint is gone but the index survived: the whole feed
        # replays and every event is deduplicated against the indexed
        # tails, leaving the index logically unchanged.
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(8))
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp1")
            ) as ingester:
                ingester.drain()
            before = index_snapshot(engine)
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp2")
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_read == 8
            assert stats.events_applied == 0
            assert stats.events_deduped == 8
            assert index_snapshot(engine) == before

    def test_background_follow_tails_a_growing_feed(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        with SequenceIndex(policy=Policy.STNM) as engine:
            ingester = TailIngester(
                feed,
                EngineSink(engine),
                str(tmp_path / "cp"),
                poll_interval_s=0.005,
            )
            try:
                ingester.start()
                with FeedWriter(feed) as writer:
                    for i in range(4):
                        writer.append(
                            [Event("t1", "AB"[i % 2], float(i + 1))]
                        )
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if ingester.stats().events_applied == 4:
                        break
                    time.sleep(0.01)
                stats = ingester.stop()
                assert stats.events_applied == 4
                assert len(engine.detect(["A", "B"])) == 2
            finally:
                ingester.close()

    def test_rejects_nonpositive_batch_size(self, tmp_path):
        with pytest.raises(ValueError):
            TailIngester(
                str(tmp_path / "f"), None, str(tmp_path / "cp"), batch_events=0
            )


class TestMetrics:
    def test_ingester_exports_progress_and_freshness(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(6))
        with SequenceIndex(policy=Policy.STNM) as engine:
            ingester = TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp"), name="t-ing"
            )
            try:
                ingester.drain()
                rendered = REGISTRY.render()
                assert 'repro_ingest_events_total{ingest="t-ing"} 6' in rendered
                assert 'repro_ingest_lag_bytes{ingest="t-ing"} 0' in rendered
                assert "repro_ingest_freshness_events_total" in rendered
                assert "repro_ingest_freshness_p99_seconds" in rendered
            finally:
                ingester.close()
            assert "t-ing" not in REGISTRY.render()

    def test_freshness_counts_only_stamped_events(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(4), stamp=False)
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp")
            ) as ingester:
                stats = ingester.drain()
                assert stats.events_applied == 4
                samples = ingester.freshness.samples()
                assert samples["repro_ingest_freshness_events_total"] == 0

    def test_replayed_batches_do_not_pollute_freshness(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(4))
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp1")
            ) as ingester:
                ingester.drain()
            # Replay through a fresh checkpoint: all events dedup, and the
            # (stale) stamps must not be re-observed as freshness.
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp2")
            ) as replayer:
                replayer.drain()
                samples = replayer.freshness.samples()
                assert samples["repro_ingest_freshness_events_total"] == 0


class TestSharded:
    def test_sharded_ingest_matches_clean_single_store_build(self, tmp_path):
        events = _ab_events(10) + _ab_events(8, trace="t2")
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, sorted(events, key=lambda e: e.timestamp))
        sharded = SequenceIndex.open(
            str(tmp_path / "shx"), LSMStore, num_shards=2
        )
        try:
            with TailIngester(
                feed, EngineSink(sharded), str(tmp_path / "cp"), batch_events=4
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_applied == 18
            streamed = index_snapshot(sharded)
        finally:
            sharded.close()
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as clean:
            clean.update(events)
            assert streamed == index_snapshot(clean)
