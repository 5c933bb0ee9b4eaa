"""Per-layer attribution for traced runs, measured from outside the program.

Three probes, none of which changes the program:

* :class:`TimedStore` -- a delegating proxy around the key-value store the
  benchmark constructs; it times every data call the engine makes.
* :class:`SpanLog` -- collects the program's own :class:`repro.obs.trace.Tracer`
  spans (activated per request from benchmark code), keeps them in memory
  with parent ids and one request id per request, and writes them out as
  JSON lines when the run ends.
* :class:`CodecProfile` -- cProfile totals of the codec functions, which
  only the program calls.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro.obs.trace import Tracer, activate, current_tracer

#: store calls the proxy times; everything else passes straight through
TIMED_CALLS = ("get", "multi_get", "merge", "put", "delete", "scan", "flush")


class CallStats:
    __slots__ = ("calls", "seconds", "max_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_s = 0.0
        self.items = 0


class TimedStore:
    """Delegating proxy: times each data call while :attr:`active`.

    Attribute access the proxy does not define (``metrics``,
    ``storage_stats``, ``verify`` ...) reaches the wrapped store, so the
    engine cannot tell the two apart.
    """

    def __init__(self, store: Any) -> None:
        self._store = store
        self.active = True
        self.stats = {name: CallStats() for name in TIMED_CALLS}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def _timed(self, name: str, items: int, fn: Any, *args: Any, **kwargs: Any) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stats = self.stats[name]
            stats.calls += 1
            stats.seconds += elapsed
            stats.items += items
            if elapsed > stats.max_s:
                stats.max_s = elapsed

    def get(self, table: str, key: Any, default: Any = None) -> Any:
        return self._timed("get", 1, self._store.get, table, key, default)

    def multi_get(self, table: str, keys: Any, default: Any = None) -> list:
        keys = list(keys)
        return self._timed("multi_get", len(keys), self._store.multi_get, table, keys, default)

    def merge(self, table: str, key: Any, delta: Any) -> None:
        return self._timed("merge", 1, self._store.merge, table, key, delta)

    def put(self, table: str, key: Any, value: Any) -> None:
        return self._timed("put", 1, self._store.put, table, key, value)

    def delete(self, table: str, key: Any) -> None:
        return self._timed("delete", 1, self._store.delete, table, key)

    def scan(self, table: str, prefix: Any = None) -> Iterator:
        # Materialize inside the timed call: a generator would return
        # before the store did the work.
        return iter(self._timed("scan", 1, lambda: list(self._store.scan(table, prefix))))

    def flush(self) -> None:
        return self._timed("flush", 1, self._store.flush)


def self_times(spans: list[Any]) -> list[float]:
    """Self wall time of each span: its duration minus its children's."""
    child_wall = [0.0] * len(spans)
    for span in spans:
        if span.parent_index >= 0:
            child_wall[span.parent_index] += span.wall_s
    return [max(0.0, span.wall_s - child_wall[i]) for i, span in enumerate(spans)]


class SpanLog:
    """In-memory span records of traced requests, written out at exit.

    Each request runs under a fresh tracer (:meth:`request`).  Tracers are
    only queued while requests run, so the bookkeeping below does not count
    against the traced requests; on first use the queue is folded into
    per-name self-time and counter totals and into records ``{"req", "id",
    "parent", "name", "wall_s", "cpu_s", "self_s", "counters"}``, where
    ``id``/``parent`` number spans within the run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()  # requests may run on several threads
        self._pending: list[Tracer] = []
        self.records: list[dict[str, Any]] = []
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, dict[str, int]] = {}
        self.requests = 0

    @contextmanager
    def request(self, name: str) -> Iterator[Any]:
        tracer = Tracer(max_spans=1_000_000)
        with activate(tracer):
            with tracer.span(name) as root:
                yield root
        with self._lock:
            self._pending.append(tracer)

    def _fold(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, []
        for tracer in pending:
            self._fold_one(tracer)

    def _fold_one(self, tracer: Tracer) -> None:
        req = self.requests
        self.requests += 1
        base = len(self.records)
        spans = tracer.spans
        for span, own in zip(spans, self_times(spans)):
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own
            totals = self.counters.setdefault(span.name, {})
            for counter, amount in span.counters.items():
                totals[counter] = totals.get(counter, 0) + amount
            self.records.append(
                {
                    "req": req,
                    "id": base + span.index,
                    "parent": base + span.parent_index if span.parent_index >= 0 else None,
                    "name": span.name,
                    "wall_s": span.wall_s,
                    "cpu_s": span.cpu_s,
                    "self_s": own,
                    "counters": dict(span.counters),
                }
            )

    def maybe(self, enabled: bool, name: str) -> Any:
        """:meth:`request` when ``enabled``, else a no-op context."""
        return self.request(name) if enabled else nullcontext()

    @staticmethod
    def span(name: str) -> Any:
        """A child span under the current request (a no-op outside one)."""
        return current_tracer().span(name)

    def self_total(self, span: str) -> float:
        self._fold()
        return self.self_s.get(span, 0.0)

    def counter(self, span: str, name: str) -> int:
        self._fold()
        return self.counters.get(span, {}).get(name, 0)

    def write(self, path: str) -> None:
        self._fold()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


#: (module file suffix, function) of every codec entry point profiled
CODEC_FUNCTIONS = {
    "encode_value": ("kvstore/encoding.py", "encode_value"),
    "decode_value": ("kvstore/encoding.py", "decode_value"),
    "encode_postings": ("core/postings.py", "encode_postings"),
    "decode_postings": ("core/postings.py", "decode_postings"),
}


class CodecProfile:
    """cProfile over selected operations; reports codec totals.

    Times are cumulative (callees included) and carry cProfile's own
    per-call cost, so they attribute shares rather than absolute speed.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.ops = 0

    @contextmanager
    def op(self) -> Iterator[None]:
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()
            self.ops += 1

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, cumulative seconds)`` for each codec function."""
        found = {name: (0, 0.0) for name in CODEC_FUNCTIONS}
        if not self.ops:
            return found
        raw = pstats.Stats(self._profile).stats  # type: ignore[attr-defined]
        for (filename, _line, func), (_cc, calls, _tt, cumulative, _callers) in raw.items():
            for name, (suffix, wanted) in CODEC_FUNCTIONS.items():
                if func == wanted and filename.replace(os.sep, "/").endswith(suffix):
                    found[name] = (found[name][0] + calls, found[name][1] + cumulative)
        return found
