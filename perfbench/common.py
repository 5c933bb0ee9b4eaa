"""Shared pieces of the benchmark: percentiles, failure accounting, timing.

Everything here is pure Python with no dependency on the program under
test, so ``perfbench/tests`` can check it without building anything.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable, Sequence

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: messages kept per failure code (counts are always complete)
MAX_MESSAGES = 5


def _rank(count: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9 % of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile rank."""
    return count - _rank(count, pct)


def supported_p99_ms(samples: Sequence[float]) -> float | None:
    """p99 of ``samples`` (seconds) in ms, or ``None`` when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    if samples_beyond(len(samples), 99.0) < MIN_BEYOND:
        return None
    return percentile(samples, 99.0) * 1e3


class Failures:
    """Failed operations and checks, counted per error code.

    The first :data:`MAX_MESSAGES` messages of every code are kept, so a
    server bug surfaces in the benchmark's output with its text instead of
    being folded into an anonymous error count.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.counts: dict[str, int] = {}
        self.messages: dict[str, list[str]] = {}

    @property
    def failed(self) -> int:
        return sum(self.counts.values())

    def record(self, code: str, message: str) -> None:
        self.counts[code] = self.counts.get(code, 0) + 1
        kept = self.messages.setdefault(code, [])
        if len(kept) < MAX_MESSAGES:
            kept.append(message)

    def check(self, ok: bool, code: str, message: str) -> bool:
        """Count one correctness check; a failing check is a failure."""
        self.attempted += 1
        if not ok:
            self.record(code, message)
        return ok

    def failed_frac(self) -> float:
        return failed_frac(self.failed, self.attempted)

    def report(self) -> dict[str, Any]:
        return {
            code: {"count": self.counts[code], "messages": self.messages[code]}
            for code in sorted(self.counts)
        }


def failed_frac(failed: int, attempted: int) -> float:
    """Failed or refused operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def median_setup(setup: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Run ``setup`` ``repeats`` times; return the median seconds and the
    last result (earlier results are released by their callers' cleanup)."""
    durations = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), result


class OpenLoop:
    """Fixed-rate schedule for an open-loop generator.

    Operation ``i`` is due at ``start + i / rate`` regardless of how long
    earlier operations took, so a stall shows up as latency on the
    operations queued behind it.  Latency is measured from the due time;
    lateness is how far behind its schedule the generator started an
    operation.
    """

    def __init__(self, rate: float, start: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.start = start

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    @staticmethod
    def latency(due: float, finished: float) -> float:
        return finished - due

    @staticmethod
    def lateness(due: float, started: float) -> float:
        return max(0.0, started - due)


def pct_ms(samples: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile of ``samples`` (seconds) in ms; 0 for none."""
    return percentile(samples, pct) * 1e3 if samples else 0.0


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def print_named(figures: dict[str, tuple[float | None, str]]) -> None:
    """Print workload-specific figures, one ``name = value unit`` per line;
    a figure the sample cannot support (``None``) is left out."""
    for name, (value, unit) in figures.items():
        if value is not None:
            print(f"{name} = {value:.6g} {unit}")


class StampedStore:
    """Delegating store proxy that notes when each data call starts.

    One op run from the same starting state is the same sequence of steps
    between store calls every time, so the stamps cut every run of it into
    the same steps, most well under a millisecond long.
    """

    def __init__(self, store: Any) -> None:
        self._store = store
        self.stamps: list[float] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def get(self, table: str, key: Any, default: Any = None) -> Any:
        self.stamps.append(time.perf_counter())
        return self._store.get(table, key, default)

    def multi_get(self, table: str, keys: Any, default: Any = None) -> list:
        self.stamps.append(time.perf_counter())
        return self._store.multi_get(table, keys, default)

    def merge(self, table: str, key: Any, delta: Any) -> None:
        self.stamps.append(time.perf_counter())
        return self._store.merge(table, key, delta)

    def take(self, start: float, end: float) -> list[float]:
        """Durations of the steps from ``start`` through the calls stamped
        since the last take to ``end``; forgets those stamps."""
        marks = [start, *self.stamps, end]
        self.stamps.clear()
        return [b - a for a, b in zip(marks, marks[1:])]


def keep_fastest(best: list[float], steps: list[float], failures: Failures, what: str) -> list[float]:
    """Each step's fastest run so far.

    The host runs intermittently slower, for seconds to minutes at a time,
    so a whole run is rarely fast throughout; the fastest run of each short
    step is the figure that repeats from run to run.  Runs of one op must
    take the same steps: a different count is a failure.
    """
    if not failures.check(
        len(steps) == len(best), "nondeterministic", f"{what}: {len(steps)} steps, {len(best)} before"
    ):
        return best
    return [min(a, b) for a, b in zip(best, steps)]
