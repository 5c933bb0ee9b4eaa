"""Seeded inputs of every workload.

The event log is the registry's ``max_10000`` profile at scale 0.05 (500
traces, 17,298 events) for ``query`` and ``live``, and at scale 0.02 (200
traces, 6,592 events) for ``build``.  The workload seed relabels it: activity names are
permuted and trace ids carry the seed.  Queries and hot patterns are
drawn once from the unlabeled log and renamed the same way, so every seed
runs the same amount of work on differently keyed data: the store's key
order, SSTable layout and cache placement change with the seed, the shape
of the work does not, and run-to-run spread measures the program and the
host rather than a different query mix.  The program only ever sees the
resulting log, patterns and events.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.core.model import Event, EventLog, Trace
from repro.logs.datasets import load_dataset

DATASET = "max_10000"
SCALE = 0.05

#: share of each trace's events indexed before the live run starts
LIVE_BASE_SHARE = 0.7

#: seed of the query stream and hot patterns, drawn from the unlabeled log
STREAM_SEED = 20211


class Inputs:
    """The benchmark log for one seed, and the renaming that made it."""

    def __init__(self, seed: int, scale: float = SCALE) -> None:
        self.seed = seed
        self.base = load_dataset(DATASET, scale)
        names = sorted(self.base.activities())
        shuffled = list(names)
        random.Random(seed).shuffle(shuffled)
        self._rename = dict(zip(names, shuffled))
        self.log = EventLog(
            (
                Trace.from_pairs(
                    self.trace_id(trace.trace_id),
                    [(self.rename(a), ts) for a, ts in zip(trace.activities, trace.timestamps)],
                )
                for trace in self.base
            ),
            name=f"{DATASET}@{scale}#{seed}",
        )

    def rename(self, activity: str) -> str:
        return self._rename[activity]

    def trace_id(self, original: str) -> str:
        # "trace_17" -> "t0042_17": the same length, so store sizes do not
        # depend on the seed.
        return f"t{self.seed % 10000:04d}{original.removeprefix('trace')}"

    def query_stream(self) -> Iterator[tuple[str, object]]:
        return query_stream(self.base, self.rename)

    def hot_patterns(self, count: int = 64, length: int = 4) -> list[list[str]]:
        base, _held = live_split(self.base)
        return [[self.rename(a) for a in p] for p in hot_patterns(base, count, length)]


def gapped_subsequence(rng: random.Random, trace: Trace, length: int) -> list[str]:
    """``length`` activities of ``trace`` in order, at random positions."""
    positions = sorted(rng.sample(range(len(trace)), length))
    activities = trace.activities
    return [activities[p] for p in positions]


def _pick_trace(rng: random.Random, traces: list[Trace], min_len: int) -> Trace:
    while True:
        trace = rng.choice(traces)
        if len(trace) >= min_len:
            return trace


def composite_expression(
    rng: random.Random, log_traces: list[Trace], alphabet: list[str], name: Callable[[str], str]
) -> str:
    """One composite pattern built around a real gapped subsequence.

    The operator -- a window, an alternation, a Kleene plus or a negation
    -- is drawn by ``rng``.
    """
    trace = _pick_trace(rng, log_traces, 4)
    length = rng.randint(3, 4)
    positions = sorted(rng.sample(range(len(trace)), length))
    acts = [name(trace.activities[p]) for p in positions]
    kind = rng.choice(("window", "alternation", "kleene", "negation"))
    if kind == "window":
        span = trace.timestamps[positions[-1]] - trace.timestamps[positions[0]]
        return f"SEQ({', '.join(acts)}) WITHIN {span + rng.randint(0, 20)}"
    if kind == "alternation":
        i = rng.randrange(len(acts))
        other = name(rng.choice(alphabet))
        elements = list(acts)
        if other != acts[i]:
            elements[i] = f"({acts[i]}|{other})"
        return f"SEQ({', '.join(elements)})"
    if kind == "kleene":
        i = rng.randrange(len(acts))
        elements = list(acts)
        elements[i] = f"{acts[i]}+"
        return f"SEQ({', '.join(elements)})"
    forbidden = name(rng.choice([a for a in alphabet if name(a) not in acts]))
    i = rng.randrange(1, len(acts))
    elements = acts[:i] + [f"!{forbidden}"] + acts[i:]
    return f"SEQ({', '.join(elements)})"


#: op kinds of the query stream
PLAIN, COMPOSITE, CONTINUATION = "plain", "composite", "continuation"


def op_kind(index: int) -> str:
    """Every 27th op is a continuation query, every 7th a composite one."""
    if index % 27 == 26:
        return CONTINUATION
    if index % 7 == 6:
        return COMPOSITE
    return PLAIN


def query_stream(log: EventLog, name: Callable[[str], str]) -> Iterator[tuple[str, object]]:
    """Endless never-repeating ``(kind, query)`` stream over ``log``, with
    activities renamed by ``name``.

    Plain patterns have 2-10 activities, sampled as gapped subsequences of
    real traces (so most have completions); composite ones are expressions;
    continuation queries are 2-3 activity prefixes.
    """
    rng = random.Random(STREAM_SEED)
    traces = list(log)
    alphabet = sorted(log.activities())
    seen: set = set()
    index = 0
    while True:
        kind = op_kind(index)
        while True:
            if kind == PLAIN:
                length = rng.randint(2, 10)
                query: object = tuple(
                    map(name, gapped_subsequence(rng, _pick_trace(rng, traces, length), length))
                )
            elif kind == COMPOSITE:
                query = composite_expression(rng, traces, alphabet, name)
            else:
                length = rng.randint(2, 3)
                query = tuple(
                    map(name, gapped_subsequence(rng, _pick_trace(rng, traces, length), length))
                )
            if (kind, query) not in seen:
                seen.add((kind, query))
                break
        yield kind, query
        index += 1


def live_split(log: EventLog) -> tuple[EventLog, list[Event]]:
    """Split every trace: the first 70% of its events form the base log,
    the rest is held back and returned sorted by (timestamp, trace id).

    Held-back events of a trace all come after its base events, so
    appending them in this order only ever extends traces forward.
    """
    base_traces = []
    held: list[Event] = []
    for trace in log:
        keep = int(len(trace) * LIVE_BASE_SHARE)
        pairs = list(zip(trace.activities, trace.timestamps))
        if keep:
            base_traces.append(Trace.from_pairs(trace.trace_id, pairs[:keep]))
        held.extend(Event(trace.trace_id, a, ts) for a, ts in pairs[keep:])
    held.sort(key=lambda ev: (ev.timestamp, ev.trace_id))
    return EventLog(base_traces, name=log.name + ":base"), held


def hot_patterns(log: EventLog, count: int = 64, length: int = 4) -> list[list[str]]:
    """``count`` distinct length-``length`` patterns from real traces."""
    rng = random.Random(STREAM_SEED + 1)
    traces = list(log)
    found: list[list[str]] = []
    seen: set = set()
    while len(found) < count:
        pattern = gapped_subsequence(rng, _pick_trace(rng, traces, length), length)
        if tuple(pattern) not in seen:
            seen.add(tuple(pattern))
            found.append(pattern)
    return found


def zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
