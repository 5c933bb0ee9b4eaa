"""``live``: ``repro serve`` over a 2-shard store while events stream in.

Setup splits every trace of the benchmark log: its first 70% of events
(11,907 in all) are indexed into a 2-shard store with ``python -m repro
index --shards 2`` (default store settings), and the rest (5,391) are held
back in timestamp order.  The store is then served by a separate ``python
-m repro serve`` process, so load generator and server do not share one
interpreter lock.

The benchmark process runs two threads with one connection each:

* reader -- an open loop at :data:`READ_RATE` requests/s; each request is a
  ``detect`` of one of 64 hot length-4 patterns drawn Zipf-skewed, so the
  working set fits the 128-entry query cache between writes.  Latency is
  measured from each request's due time.
* writer -- an open loop at :data:`BATCH_RATE` batches/s; each batch
  appends :data:`BATCH_EVENTS` held-back events to a JSONL feed with
  ``FeedWriter`` and drains a ``TailIngester`` into the server through
  ``ServiceSink``.

Backlog rule: a run whose generator fell more than :data:`MAX_LATE_S`
behind its schedule, or whose feed still holds unconsumed bytes after the
last drain, is invalid and counts as failed.

After the window the server is stopped; the shards are reopened and their
canonical snapshot must equal a clean batch build of the same events.

``BENCHMARK.json`` does not gate this workload: its read latencies moved
by more than the largest allowed bound between runs of the same code on
the development host.  The traced ``query`` run calls :func:`traced_layers`
so the service, ingest and shard layers are still attributed.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any

from common import Failures, OpenLoop, median_setup, metric, pct_ms, print_named, supported_p99_ms
from inputs import STREAM_SEED, Inputs, live_split, zipf_weights
from probe import SpanLog
from repro.core.engine import SequenceIndex
from repro.core.model import EventLog, Trace
from repro.ingest import FeedWriter, ServiceSink, TailIngester
from repro.ingest.convergence import index_snapshot
from repro.kvstore import LSMStore
from repro.logs.csv_log import write_csv_log
from repro.service.client import ServiceClient, ServiceError
from repro.shard.index import ShardedSequenceIndex
from wl_build import dir_bytes

SETUP_REPEATS = 3
SHARDS = 2
READ_RATE = 50.0
BATCH_RATE = 1.0
BATCH_EVENTS = 10
ZIPF_EXPONENT = 1.5
HOT_PATTERNS = 64
MAX_LATE_S = 1.0
STOP_TIMEOUT_S = 20.0
#: every n-th reader slot also sends a ping in the traced run
PING_EVERY = 10


#: ``python -m repro`` with SIGINT handled even when the benchmark was started
#: with SIGINT ignored (as background jobs are), so the server drains on it
SERVE = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, store: str, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVE, "serve", "--store", store, "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if " on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
            self.address = (host, int(port))
            with ServiceClient(*self.address) as client:
                client.ping()  # serving, and past its startup output
        except BaseException:
            self.stop()
            raise

    def stop(self) -> float:
        """Drain and stop the server; returns its peak RSS in MB.

        The process is always reaped before this returns: if draining
        times out or is interrupted, the server is killed and waited for.
        """
        if self.proc.returncode is not None:
            return 0.0
        usage = None
        try:
            self.proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while time.monotonic() < deadline:
                pid, _status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                usage = None
                time.sleep(0.05)
        finally:
            if usage is None:
                self.proc.kill()
                _pid, _status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = 0  # reaped here, not by Popen
            self.proc.stdout.close()
        return usage.ru_maxrss / 1024


def index_base(base: EventLog, root: str, env: dict[str, str]) -> None:
    csv_path = os.path.join(root, "base.csv")
    write_csv_log(base, csv_path)
    subprocess.run(
        [
            sys.executable, "-m", "repro", "index", "--log", csv_path,
            "--store", os.path.join(root, "store"), "--shards", str(SHARDS),
        ],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


class Live:
    """State of one live run: inputs, server, and the two load threads."""

    def __init__(self, args: Any, root: str, env: dict[str, str]) -> None:
        self.args = args
        self.root = root
        self.inputs = Inputs(args.seed)
        self.base, self.held = live_split(self.inputs.log)
        os.makedirs(root)
        index_base(self.base, root, env)
        self.server = Server(os.path.join(root, "store"), env)
        self.read_latency: list[float] = []
        self.detect_rtt: list[float] = []
        self.ping_rtt: list[float] = []
        self.ingest_rtt: list[float] = []
        self.append_s: list[float] = []
        self.checkpoint_s: list[float] = []
        self.late_s = [0.0, 0.0]
        #: when each thread's last operation completed
        self.done = [0.0, 0.0]
        self.reads = 0
        self.batches = 0
        self.ingested = 0
        self.lag_bytes = 0
        self.freshness: Any = None

    # -- load threads ---------------------------------------------------------

    def reader(self, loop: OpenLoop, end: float, failures: Failures, lock: threading.Lock, spans: SpanLog) -> None:
        rng = random.Random(STREAM_SEED + 2)
        patterns = self.inputs.hot_patterns(HOT_PATTERNS)
        weights = zipf_weights(len(patterns), ZIPF_EXPONENT)
        with ServiceClient(*self.server.address) as client:
            i = 0
            while loop.due(i) < end:
                due = loop.due(i)
                pattern = rng.choices(patterns, weights)[0]
                _sleep_until(due)
                started = time.perf_counter()
                self.late_s[0] = max(self.late_s[0], loop.lateness(due, started))
                with spans.maybe(self.args.trace, "live.read"):
                    if self.args.trace and i % PING_EVERY == 0:
                        with spans.span("service.ping"):
                            client.ping()
                        self.ping_rtt.append(time.perf_counter() - started)
                        started = time.perf_counter()
                    try:
                        with spans.span("service.detect"):
                            client.detect(pattern)
                    except (ServiceError, OSError) as exc:
                        with lock:
                            failures.record(getattr(exc, "code", type(exc).__name__), f"detect {pattern}: {exc}")
                finished = time.perf_counter()
                self.detect_rtt.append(finished - started)
                self.read_latency.append(loop.latency(due, finished))
                self.done[0] = finished
                i += 1
            self.reads = i

    def writer(self, loop: OpenLoop, end: float, failures: Failures, lock: threading.Lock, spans: SpanLog) -> None:
        feed = os.path.join(self.root, "feed.jsonl")
        rtts = self.ingest_rtt

        class TimedClient:
            def __init__(self, client: ServiceClient) -> None:
                self.client = client

            def ingest(self, *a: Any, **k: Any) -> Any:
                t0 = time.perf_counter()
                try:
                    with spans.span("service.ingest"):
                        return self.client.ingest(*a, **k)
                finally:
                    rtts.append(time.perf_counter() - t0)

        marks: list[float] = []
        with ServiceClient(*self.server.address) as client, FeedWriter(feed) as producer:
            ingester = TailIngester(
                feed,
                ServiceSink(TimedClient(client)),
                os.path.join(self.root, "checkpoint.json"),
                batch_events=BATCH_EVENTS,
                pre_checkpoint_hook=lambda _n: marks.append(time.perf_counter()),
            )
            try:
                j = 0
                while loop.due(j) < end and (j + 1) * BATCH_EVENTS <= len(self.held):
                    due = loop.due(j)
                    _sleep_until(due)
                    self.late_s[1] = max(self.late_s[1], loop.lateness(due, time.perf_counter()))
                    batch = self.held[j * BATCH_EVENTS : (j + 1) * BATCH_EVENTS]
                    with spans.maybe(self.args.trace, "live.ingest"):
                        t0 = time.perf_counter()
                        with spans.span("feed.append"):
                            producer.append(batch)
                        self.append_s.append(time.perf_counter() - t0)
                        marks.clear()
                        try:
                            ingester.drain()
                        except (ServiceError, OSError) as exc:
                            with lock:
                                failures.record(getattr(exc, "code", type(exc).__name__), f"ingest batch {j}: {exc}")
                            break
                    self.done[1] = time.perf_counter()
                    if marks:
                        self.checkpoint_s.append(self.done[1] - marks[-1])
                    j += 1
                stats = ingester.stats()
                self.batches = j
                self.ingested = stats.events_applied
                self.lag_bytes = stats.lag_bytes
                self.freshness = ingester.freshness
            finally:
                ingester.close()

    def measure(self, failures: Failures, spans: SpanLog) -> None:
        lock = threading.Lock()
        start = self.start = time.perf_counter() + 0.2
        end = start + self.args.seconds
        threads = [
            threading.Thread(target=self.reader, args=(OpenLoop(READ_RATE, start), end, failures, lock, spans)),
            threading.Thread(target=self.writer, args=(OpenLoop(BATCH_RATE, start), end, failures, lock, spans)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        failures.attempted += self.reads + self.batches
        late = max(self.late_s)
        failures.check(
            late <= MAX_LATE_S and self.lag_bytes == 0,
            "backlog",
            f"live: generator {late:.3f} s late, feed lag {self.lag_bytes} bytes",
        )

    # -- correctness ----------------------------------------------------------

    def converged(self, failures: Failures) -> None:
        """Reopened shards must hold exactly a clean batch build's index."""
        applied = self.held[: self.ingested]
        sequences: dict[str, list] = {t.trace_id: list(zip(t.activities, t.timestamps)) for t in self.base}
        for event in applied:
            sequences[event.trace_id].append((event.activity, event.timestamp))
        clean = SequenceIndex()
        clean.update(EventLog(Trace.from_pairs(tid, seq) for tid, seq in sequences.items()))
        served = ShardedSequenceIndex.open(os.path.join(self.root, "store"), LSMStore)
        try:
            ok = index_snapshot(served) == index_snapshot(clean)
        finally:
            served.close()
            clean.close()
        failures.check(ok, "diverged", f"live: served index differs from a clean build of {len(applied)} ingested events")


def _sleep_until(instant: float) -> None:
    delay = instant - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def session(
    args: Any, workdir: str, failures: Failures, spans: SpanLog, env: dict[str, str], repeats: int
) -> tuple[float, Live, float, dict[str, Any]]:
    """Set up ``repeats`` times (serving the last), drive the load, stop the
    server and check convergence.  Returns the median set-up seconds, the
    run's state, the server's peak RSS in MB and its ``stats`` reply."""
    lives: list[Live] = []

    def setup() -> Live:
        for live in lives:
            live.server.stop()
            shutil.rmtree(live.root)
        root = os.path.join(workdir, f"live{len(lives)}")
        lives[:] = [Live(args, root, env)]
        return lives[0]

    try:
        setup_s, live = median_setup(setup, repeats)
        live.measure(failures, spans)
        with ServiceClient(*live.server.address) as client:
            shard_stats = client.stats()
    finally:
        peak_rss_mb = lives[-1].server.stop() if lives else 0.0
    live.converged(failures)
    print(
        f"live: {live.reads} reads, {live.batches} batches ({live.ingested} events), "
        f"late {max(live.late_s) * 1e3:.1f} ms"
    )
    print_named(
        {
            "live.read_p99_ms": (supported_p99_ms(live.read_latency), "ms"),
            "live.fresh_p50_ms": (live.freshness.quantile(0.5) * 1e3, "ms"),
            "live.fresh_p90_ms": (live.freshness.quantile(0.9) * 1e3, "ms"),
            "failed_frac": (failures.failed_frac(), "ratio"),
        }
    )
    return setup_s, live, peak_rss_mb, shard_stats


def traced_layers(
    args: Any, workdir: str, failures: Failures, spans: SpanLog, env: dict[str, str]
) -> dict[str, float]:
    """Service, ingest and shard figures from one live session."""
    _setup_s, live, _rss, shard_stats = session(args, workdir, failures, spans, env, 1)
    values = traced_values(live, shard_stats)
    values["service.rejected"] = failures.counts.get("overloaded", 0)
    values["service.errors"] = sum(
        n for code, n in failures.counts.items() if code not in ("overloaded", "backlog", "diverged")
    )
    return values


def run(args: Any, workdir: str, failures: Failures, spans: SpanLog, env: dict[str, str]) -> dict[str, Any]:
    if args.trace:
        return traced_layers(args, workdir, failures, spans, env)
    setup_s, live, peak_rss_mb, _stats = session(args, workdir, failures, spans, env, SETUP_REPEATS)
    events = live.base.num_events + live.ingested
    elapsed = max(live.done) - live.start
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_per_s": metric((live.reads + live.batches) / elapsed, "1/s"),
        "p50_ms": metric(pct_ms(live.read_latency, 50), "ms"),
        "p90_ms": metric(pct_ms(live.read_latency, 90), "ms"),
        "disk_bytes_per_event": metric(dir_bytes(os.path.join(live.root, "store")) / events, "B"),
    }


def traced_values(live: Live, shard_stats: dict[str, Any]) -> dict[str, float]:
    values = {
        "service.ping_rtt_p50_ms": pct_ms(live.ping_rtt, 50),
        "service.detect_rtt_p50_ms": pct_ms(live.detect_rtt, 50),
        "service.ingest_rtt_p50_ms": pct_ms(live.ingest_rtt, 50),
        "service.ingest_rtt_max_ms": max(live.ingest_rtt, default=0.0) * 1e3,
        "ingest.feed_append_ms": pct_ms(live.append_s, 50),
        "ingest.checkpoint_ms": pct_ms(live.checkpoint_s, 50),
        "ingest.batches": live.batches,
        "ingest.lag_bytes_end": live.lag_bytes,
        "ingest.gen_late_max_ms": max(live.late_s) * 1e3,
        "ingest.fresh_p50_ms": live.freshness.quantile(0.5) * 1e3,
        "ingest.fresh_p90_ms": live.freshness.quantile(0.9) * 1e3,
    }
    for entry in shard_stats["shards"]:
        values[f"shard.{entry['shard']}.sstables"] = len(entry.get("sstables", ()))
        values[f"shard.{entry['shard']}.bytes"] = entry.get("file_bytes", 0)
    return values


