"""``query``: read-only closed loop over a store built in setup.

The store is written as the ``build`` workload writes it (256 KiB
memtable, inline size-tiered compaction), but from the scale-0.05 log, and
built once in a child interpreter so the builder's memory does not count
here.  ``setup_s`` is the median set-up the query side pays before its
first query: generating the inputs and reopening the store lazily, so
every cache starts cold.  Building a store is gated by the ``build``
workload.

One in-process client runs the first :data:`OPS` ops of a never-repeating
stream: plain STNM patterns of 2-10 activities, every 7th op a composite
pattern, every 27th a hybrid ``continuations()``.  No query repeats, so
the query-result cache never hits; the ops touch far more pairs than the
64-entry postings cache holds, and the ~15 MB store is larger than the
8 MiB block cache.  Planning, postings fetch and decode, intersect, join
and verify therefore dominate, and nothing writes.

The ops run in passes until ``--seconds`` have passed, each pass on a
freshly set-up engine, so every pass starts from the same cold state.
An op's latency is the sum of its steps' fastest runs, a step being the
work between two store calls (:func:`common.keep_fastest`).
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from typing import Any

from common import Failures, StampedStore, keep_fastest, metric, pct_ms, print_named, supported_p99_ms
from inputs import COMPOSITE, CONTINUATION, PLAIN, Inputs
from oracle import Oracle
from probe import CodecProfile, SpanLog, TimedStore
from repro.core.engine import SequenceIndex
from repro.kvstore import LSMStore
import wl_build
import wl_live
from wl_build import dir_bytes

#: set-ups timed before each pass (the last one's engine runs the pass)
SETUPS_PER_PASS = 2
#: distinct ops of a pass; enough for a p99 with ten samples beyond it
OPS = 1000
#: passes over the same ops, each on a freshly opened engine, at least
MIN_PASSES = 3
BUILD_TIMEOUT_S = 120
TOP_K = 5
#: share of plain / composite / continuation ops whose results are checked
CHECK_SHARE = {PLAIN: 0.02, COMPOSITE: 0.08, CONTINUATION: 0.15}
#: ops replayed untraced and traced on fresh engines in the traced run
IDENTITY_OPS = 60
QUERY_SPANS = ("plan", "fetch_postings", "intersect", "join", "verify", "materialize")


def build_store(seed: int, workdir: str, env: dict[str, str]) -> str:
    """Build the store in a child interpreter, which is waited for (and
    killed on a timeout or an interrupt) before this returns."""
    store = os.path.join(workdir, "store")
    subprocess.run(
        [sys.executable, wl_build.__file__, str(seed), store],
        check=True,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    return store


def execute(index: SequenceIndex, kind: str, query: Any) -> list:
    if kind == PLAIN:
        return index.detect(list(query))
    if kind == COMPOSITE:
        return index.detect(query)
    return index.continuations(list(query), mode="hybrid", top_k=TOP_K)


def check_results(kept: list, log: Any, failures: Failures) -> None:
    """Detections against the oracles; continuations against an engine
    built over an in-memory store."""
    oracle = Oracle(log)
    reference = None
    for kind, query, got in kept:
        if kind == CONTINUATION:
            if reference is None:
                reference = SequenceIndex()
                reference.update(log)
            want = reference.continuations(list(query), mode="hybrid", top_k=TOP_K)
            problem = None if got == want else f"{got!r} vs in-memory {want!r}"
        elif kind == PLAIN:
            problem = oracle.plain(query, got)
        else:
            problem = oracle.composite(query, got)
        failures.check(problem is None, "wrong_result", f"query: {kind} {query!r}: {problem}")


def run(args: Any, workdir: str, failures: Failures, spans: SpanLog, env: dict[str, str]) -> dict[str, Any]:
    store = build_store(args.seed, workdir, env)
    opened: list[SequenceIndex] = []

    def reopen() -> SequenceIndex:
        for index in opened:
            index.close()
        opened[:] = [SequenceIndex(StampedStore(LSMStore(store)))]
        return opened[0]

    setup_times: list[float] = []

    def setup() -> tuple[Inputs, SequenceIndex]:
        """What the query side pays before its first query; timed before
        every pass, so the samples spread over the whole run."""
        for _ in range(SETUPS_PER_PASS):
            start = time.perf_counter()
            inputs, index = Inputs(args.seed), reopen()
            setup_times.append(time.perf_counter() - start)
        return inputs, index

    if args.trace:
        values = traced(args, failures, spans, Inputs(args.seed), store)
        # The service, ingest and shard layers are attributed here too, from
        # one session of the live scenario, so the gated workloads cover them.
        values.update(wl_live.traced_layers(args, workdir, failures, spans, env))
        return values
    inputs, index = setup()
    log = inputs.log
    rng = random.Random(args.seed * 31 + 7)
    ops = list(islice(inputs.query_stream(), OPS))
    best: list[list[float] | None] = [None] * OPS
    sizes: list[int | None] = [None] * OPS
    kept: list = []
    passes = 0
    try:
        # Every pass runs the same ops on a freshly opened engine, so each op
        # meets the same cold caches every time and takes the same steps.
        start = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            if passes:
                index = setup()[1]
            for i, (kind, query) in enumerate(ops):
                result, steps = timed_op(index, kind, query, failures)
                best[i] = steps if passes == 0 else keep_fastest(best[i], steps, failures, f"{kind} {query!r}")
                if result is None:
                    continue
                if passes == 0 and rng.random() < CHECK_SHARE[kind]:
                    kept.append((kind, query, result))
                if sizes[i] is None:
                    sizes[i] = len(result)
                elif sizes[i] != len(result):
                    failures.record("nondeterministic", f"{kind} {query!r}: {len(result)} vs {sizes[i]} results")
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        for opened_index in opened:
            opened_index.close()
    check_results(kept, log, failures)
    latencies = [sum(steps) for steps in best]
    print(f"query: {OPS} distinct ops x {passes} passes, {len(kept)} results checked")
    print_named(
        {
            "query.p99_ms": (supported_p99_ms(latencies), "ms"),
            "failed_frac": (failures.failed_frac(), "ratio"),
        }
    )
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_per_s": metric(OPS / sum(latencies), "1/s"),
        "p50_ms": metric(pct_ms(latencies, 50), "ms"),
        "p90_ms": metric(pct_ms(latencies, 90), "ms"),
        "disk_bytes_per_event": metric(dir_bytes(store) / log.num_events, "B"),
    }


def timed_op(index: SequenceIndex, kind: str, query: Any, failures: Failures) -> tuple[Any, list[float]]:
    """Run one op; returns its result (None if it failed, which is counted
    with its message) and the durations of its steps between store calls."""
    failures.attempted += 1
    start = time.perf_counter()
    try:
        result = execute(index, kind, query)
    except Exception as exc:  # every failed op is counted, with its message
        failures.record(type(exc).__name__, f"{kind} {query!r}: {exc}")
        result = None
    return result, index.store.take(start, time.perf_counter())


def traced(args: Any, failures: Failures, spans: SpanLog, inputs: Inputs, store: str) -> dict[str, Any]:
    """Ops rotate between untraced, traced (spans and store proxy) and
    profiled (cProfile) execution over one engine; the untraced and traced
    shares give the tracing overhead."""
    proxy = TimedStore(LSMStore(store))
    proxy.active = False
    index = SequenceIndex(proxy)
    profile = CodecProfile()
    by_kind: dict[str, list[float]] = {PLAIN: [], COMPOSITE: [], CONTINUATION: []}
    mode_seconds = [0.0, 0.0, 0.0]
    mode_ops = [0, 0, 0]
    matches = 0
    before = index.store.metrics.snapshot()
    caches_before = _cache_stats(index)
    try:
        start = time.perf_counter()
        for i, (kind, query) in enumerate(inputs.query_stream()):
            mode = (i + i // 27) % 3  # continuation ops (every 27th) rotate too
            failures.attempted += 1
            t0 = time.perf_counter()
            try:
                if mode == 0:
                    result = execute(index, kind, query)
                elif mode == 1:
                    proxy.active = True
                    with spans.request(f"bench.{kind}"):
                        result = execute(index, kind, query)
                    proxy.active = False
                else:
                    with profile.op():
                        result = execute(index, kind, query)
            except Exception as exc:
                proxy.active = False
                failures.record(type(exc).__name__, f"{kind} {query!r}: {exc}")
                result = []
            t1 = time.perf_counter()
            mode_seconds[mode] += t1 - t0
            mode_ops[mode] += 1
            if mode == 0:
                by_kind[kind].append(t1 - t0)
            if mode == 1 and kind != CONTINUATION:
                matches += len(result)
            if t1 - start >= args.seconds:
                break
        after = index.store.metrics.snapshot()
        caches_after = _cache_stats(index)
    finally:
        index.close()
    identical(inputs, store, failures)
    traced_ops = max(1, mode_ops[1])
    delta = {key: after[key] - before[key] for key in after}
    codec = profile.totals()
    profiled_ops = max(1, profile.ops)
    multi = proxy.stats["multi_get"]
    cache_lookups = delta["block_cache_hits"] + delta["block_cache_misses"]
    probes = delta["bloom_skips"] + delta["sstable_reads"]
    values: dict[str, float] = {
        f"core.query.{name}_s": spans.self_total(name) / traced_ops for name in QUERY_SPANS
    }
    values.update(
        {
            "core.query.survivors_per_match": spans.counter("intersect", "survivors") / max(1, matches),
            "core.postings.decode_s": codec["decode_postings"][1] / profiled_ops,
            "core.postings.entries_decoded": spans.counter("fetch_postings", "entries") / traced_ops,
            "kvstore.encoding.encode_value_s": codec["encode_value"][1] / profiled_ops,
            "kvstore.encoding.decode_value_s": codec["decode_value"][1] / profiled_ops,
            "kvstore.encoding.value_calls": (codec["encode_value"][0] + codec["decode_value"][0]) / profiled_ops,
            "kvstore.lsm.multi_get_calls": multi.calls / traced_ops,
            "kvstore.lsm.multi_get_s": multi.seconds / traced_ops,
            "kvstore.lsm.keys_per_multi_get": multi.items / max(1, multi.calls),
            "kvstore.lsm.get_calls": proxy.stats["get"].calls / traced_ops,
            "kvstore.lsm.get_s": proxy.stats["get"].seconds / traced_ops,
            "kvstore.lsm.block_reads_per_lookup": delta["block_reads"] / max(1, delta["gets"]),
            "kvstore.lsm.block_cache_hit_ratio": delta["block_cache_hits"] / max(1, cache_lookups),
            "kvstore.lsm.bloom_skip_ratio": delta["bloom_skips"] / max(1, probes),
            "core.engine.detect_plain_p50_ms": pct_ms(by_kind[PLAIN], 50),
            "core.engine.detect_composite_p50_ms": pct_ms(by_kind[COMPOSITE], 50),
            "core.engine.continuations_p50_ms": pct_ms(by_kind[CONTINUATION], 50),
            "obs.tracing_overhead_frac": (mode_seconds[1] / traced_ops)
            / (mode_seconds[0] / max(1, mode_ops[0]))
            - 1.0,
        }
    )
    for name in ("postings", "sequence", "query"):
        hits = caches_after[name][0] - caches_before[name][0]
        misses = caches_after[name][1] - caches_before[name][1]
        values[f"core.engine.{name}_cache_hit_ratio"] = hits / max(1, hits + misses)
    return values


def _cache_stats(index: SequenceIndex) -> dict[str, tuple[int, int]]:
    return {
        name: (stats.get("hits", 0), stats.get("misses", 0))
        for name, stats in (
            ("postings", index.postings_cache_stats()),
            ("sequence", index.sequence_cache_stats()),
            ("query", index.query_cache_stats()),
        )
    }


def identical(inputs: Inputs, store: str, failures: Failures) -> None:
    """Replay the first ops untraced and traced on fresh engines: results
    and store counters must match exactly."""
    runs = []
    for trace in (False, True):
        proxy = TimedStore(LSMStore(store))
        proxy.active = trace
        index = SequenceIndex(proxy)
        spans = SpanLog()
        results = []
        try:
            for kind, query in islice(inputs.query_stream(), IDENTITY_OPS):
                if trace:
                    with spans.request(f"bench.{kind}"):
                        results.append(execute(index, kind, query))
                else:
                    results.append(execute(index, kind, query))
            runs.append((results, index.store.metrics.snapshot()))
        finally:
            index.close()
    failures.check(runs[0][0] == runs[1][0], "trace_changed_results", "query: traced results differ")
    failures.check(
        runs[0][1] == runs[1][1],
        "trace_changed_counts",
        f"query: store counters differ traced/untraced: {runs[0][1]} vs {runs[1][1]}",
    )
