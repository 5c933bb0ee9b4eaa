"""``build``: bulk load of the benchmark log into a fresh on-disk store.

One ``SequenceIndex.update()`` of all 200 traces plus ``flush()`` into an
``LSMStore`` with a 256 KiB memtable, inline size-tiered compaction and the
serial executor.  Flush policy: the memtable is flushed to an SSTable
whenever it exceeds 256 KiB, and a compaction round runs inline after each
flush (four or more similar-sized tables merge); the closing ``flush()``
persists the remainder.  No query runs, so the write path does all the
work: pair creation, the index tables, postings encoding, the WAL,
memtable, flushes, compactions and the generic value codec.

Builds repeat until ``--seconds`` have passed (at least
:data:`MIN_BUILDS`), each into an empty directory, and the build's latency
is its fastest run.  The host runs intermittently slower for seconds at a
time; the fastest of several short builds spread over the run is the
figure that repeats from run to run.  The log is the benchmark log at
scale :data:`BUILD_SCALE`, so that a build lasts a few seconds: the
fastest of a few builds at ``query``'s scale, 8-10 s each, spread as
much as the host.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
from typing import Any

from common import Failures, StampedStore, keep_fastest, metric, print_named
from inputs import COMPOSITE, PLAIN, Inputs
from oracle import Oracle
from probe import CodecProfile, SpanLog, TimedStore
from repro.core.engine import SequenceIndex
from repro.kvstore import LSMStore

MEMTABLE_BYTES = 256 * 1024
#: scale of the built log: 200 traces, 6,592 events, 22 flushes, 6 compactions
BUILD_SCALE = 0.02
#: input generations timed before each build
SETUPS_PER_BUILD = 3
#: builds per run, at least
MIN_BUILDS = 3
ORACLE_PLAIN = 12
ORACLE_COMPOSITE = 4


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def open_store(path: str) -> LSMStore:
    return LSMStore(path, memtable_flush_bytes=MEMTABLE_BYTES)


def one_build(log: Any, path: str, wrap: Any = None) -> tuple[float, SequenceIndex, Any]:
    """Build ``log`` into a fresh store at ``path``; returns (seconds, index, stats)."""
    shutil.rmtree(path, ignore_errors=True)
    start = time.perf_counter()
    store = open_store(path)
    index = SequenceIndex(wrap(store) if wrap else store)
    stats = index.update(log)
    index.flush()
    return time.perf_counter() - start, index, stats


def build_into(seed: int, path: str) -> None:
    """Build the benchmark log for ``seed`` (at ``query``'s scale) into ``path``.

    ``query`` runs this as ``python wl_build.py SEED PATH`` in a child
    interpreter, so the builder's memory never counts against a reader."""
    _seconds, index, _stats = one_build(Inputs(seed).log, path)
    index.close()


def check_detections(index: SequenceIndex, inputs: Inputs, failures: Failures) -> None:
    """Sample of plain and composite detections against the oracles."""
    oracle = Oracle(inputs.log)
    plain = composite = 0
    for kind, query in inputs.query_stream():
        if plain >= ORACLE_PLAIN and composite >= ORACLE_COMPOSITE:
            return
        if kind == PLAIN and plain < ORACLE_PLAIN:
            plain += 1
            problem = oracle.plain(query, index.detect(list(query)))
        elif kind == COMPOSITE and composite < ORACLE_COMPOSITE:
            composite += 1
            problem = oracle.composite(query, index.detect(query))
        else:
            continue
        failures.check(problem is None, "wrong_result", f"build: detect {query!r}: {problem}")


def run(args: Any, workdir: str, failures: Failures, spans: SpanLog) -> dict[str, Any]:
    setup_times: list[float] = []

    def setup() -> Inputs:
        """Input generation, timed before every build, so the samples
        spread over the whole run."""
        for _ in range(SETUPS_PER_BUILD):
            start = time.perf_counter()
            inputs = Inputs(args.seed, BUILD_SCALE)
            setup_times.append(time.perf_counter() - start)
        return inputs

    if args.trace:
        return traced(workdir, failures, spans, Inputs(args.seed, BUILD_SCALE))
    inputs = setup()
    log = inputs.log
    events = log.num_events
    durations: list[float] = []
    best: list[float] | None = None
    index = None
    path = os.path.join(workdir, "store")
    began = time.perf_counter()
    while len(durations) < MIN_BUILDS or time.perf_counter() - began < args.seconds:
        if index is not None:
            index.close()
            setup()
        shutil.rmtree(path, ignore_errors=True)
        start = time.perf_counter()
        seconds, index, _stats = one_build(log, path, StampedStore)
        steps = index.store.take(start, time.perf_counter())
        failures.attempted += 1
        durations.append(seconds)
        best = steps if best is None else keep_fastest(best, steps, failures, f"build {len(durations)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    disk = dir_bytes(path)
    counts = index.store.metrics.snapshot()
    try:
        failures.check(_verified(index), "corruption", "build: store.verify() failed")
        check_detections(index, inputs, failures)
    finally:
        index.close()
    best_s = sum(best)
    print(f"build: {len(durations)} builds of {events} events: {[round(d, 3) for d in durations]} s")
    print_named(
        {
            "build.median_ms": (statistics.median(durations) * 1e3, "ms"),
            "build.fastest_ms": (min(durations) * 1e3, "ms"),
            "build.write_bytes_per_event": (
                (counts["flush_bytes_written"] + counts["compaction_bytes_rewritten"]) / events,
                "B",
            ),
            "failed_frac": (failures.failed_frac(), "ratio"),
        }
    )
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        # One distinct op, the build, so p50 and p90 over ops coincide.
        "ops_per_s": metric(events / best_s, "1/s"),
        "p50_ms": metric(best_s * 1e3, "ms"),
        "p90_ms": metric(best_s * 1e3, "ms"),
        "disk_bytes_per_event": metric(disk / events, "B"),
    }


def _verified(index: SequenceIndex) -> bool:
    try:
        index.store.verify()
    except Exception as exc:  # any scrub failure is a failed check
        print(f"build: verify raised {type(exc).__name__}: {exc}")
        return False
    return True


def traced(workdir: str, failures: Failures, spans: SpanLog, inputs: Inputs) -> dict[str, Any]:
    """One untraced, one traced and one profiled build of the same log.

    The three must leave identical store counters and identical query
    results: tracing observes the program without changing what it does.
    """
    log = inputs.log
    events = log.num_events
    plain_s, plain_ix, _ = one_build(log, os.path.join(workdir, "plain"))
    proxies: list[TimedStore] = []

    def wrap(store: Any) -> TimedStore:
        proxies.append(TimedStore(store))
        return proxies[-1]

    with spans.request("bench.build"):
        traced_s, traced_ix, stats = one_build(log, os.path.join(workdir, "traced"), wrap)
    profile = CodecProfile()
    with profile.op():
        _s, profiled_ix, _ = one_build(log, os.path.join(workdir, "profiled"))
    failures.attempted += 3
    try:
        counts = [ix.store.metrics.snapshot() for ix in (plain_ix, traced_ix, profiled_ix)]
        failures.check(
            counts[0] == counts[1] == counts[2],
            "trace_changed_counts",
            f"build: store counters differ between untraced/traced/profiled builds: {counts}",
        )
        check_detections(traced_ix, inputs, failures)
        check_detections(plain_ix, inputs, failures)
    finally:
        for ix in (plain_ix, traced_ix, profiled_ix):
            ix.close()
    store_stats = proxies[0].stats
    store_s = sum(s.seconds for s in store_stats.values())
    merge = store_stats["merge"]
    codec = profile.totals()
    snap = counts[1]
    return {
        "core.builder.self_s": traced_s - store_s,
        "core.builder.pairs_per_event": stats.pairs_created / events,
        "kvstore.lsm.merge_calls": merge.calls,
        "kvstore.lsm.merge_s": merge.seconds,
        "kvstore.lsm.merge_max_ms": merge.max_s * 1e3,
        "kvstore.lsm.get_calls": store_stats["get"].calls,
        "kvstore.lsm.get_s": store_stats["get"].seconds,
        "kvstore.lsm.flushes": snap["flushes"],
        "kvstore.lsm.flush_s": spans.self_total("lsm.flush"),
        "kvstore.lsm.flush_bytes": snap["flush_bytes_written"],
        "kvstore.lsm.compactions": snap["compactions"],
        "kvstore.lsm.compaction_s": spans.self_total("lsm.compaction"),
        "kvstore.lsm.compaction_bytes": snap["compaction_bytes_rewritten"],
        "kvstore.lsm.write_bytes_per_event": (
            snap["flush_bytes_written"] + snap["compaction_bytes_rewritten"]
        ) / events,
        "kvstore.encoding.encode_value_s": codec["encode_value"][1],
        "kvstore.encoding.decode_value_s": codec["decode_value"][1],
        "kvstore.encoding.value_calls": codec["encode_value"][0] + codec["decode_value"][0],
        "core.postings.encode_s": codec["encode_postings"][1],
        "core.postings.decode_s": codec["decode_postings"][1],
        "obs.tracing_overhead_frac": traced_s / plain_s - 1.0,
    }


if __name__ == "__main__":
    build_into(int(sys.argv[1]), sys.argv[2])
