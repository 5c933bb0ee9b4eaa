"""Reference answers the benchmark checks the program's results against.

Plain STNM detection (Algorithm 2) chains per-pair skip-till-next-match
completions; for patterns longer than two it is deliberately not the SASE
automaton's semantics (the chain can drop completions SASE keeps), so the
benchmark checks plain results three ways:

* against :func:`chain_matches`, a direct-from-definition chain over
  brute-force pair completions that shares no code with the program;
* length-2 patterns against the SASE NFA exactly;
* longer patterns by trace containment in the SASE NFA's matches.

Composite patterns go to the ``PatternNfa`` oracle through ``SaseEngine``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.baselines.sase.engine import SaseEngine
from repro.core.pattern import parse_pattern


def pair_completions(
    activities: Sequence[str], stamps: Sequence[float], a: str, b: str
) -> dict[float, float]:
    """STNM completions of ``(a, b)`` in one trace: next ``a``, then the
    next ``b`` after it, resuming after that ``b``."""
    out: dict[float, float] = {}
    i, n = 0, len(activities)
    while i < n:
        while i < n and activities[i] != a:
            i += 1
        j = i + 1
        while j < n and activities[j] != b:
            j += 1
        if j >= n:
            break
        out[stamps[i]] = stamps[j]
        i = j + 1
    return out


def chain_matches(log: Any, pattern: Sequence[str]) -> list[tuple[str, tuple]]:
    """Algorithm 2 by brute force, sorted by (trace id, timestamps)."""
    wanted = set(pattern)
    out = []
    for trace in log:
        activities = trace.activities
        if not wanted.issubset(activities):
            continue
        stamps = trace.timestamps
        first = pair_completions(activities, stamps, pattern[0], pattern[1])
        chains = [[ta, tb] for ta, tb in first.items()]
        for i in range(1, len(pattern) - 1):
            step = pair_completions(activities, stamps, pattern[i], pattern[i + 1])
            chains = [c + [step[c[-1]]] for c in chains if c[-1] in step]
        out.extend((trace.trace_id, tuple(c)) for c in chains)
    return sorted(out)


def as_key(matches: list) -> list[tuple[str, tuple]]:
    return sorted((m.trace_id, tuple(m.timestamps)) for m in matches)


class Oracle:
    """Checks one detection result; returns a mismatch description or ``None``."""

    def __init__(self, log: Any) -> None:
        self.log = log
        self.sase = SaseEngine(log)

    def plain(self, pattern: Sequence[str], got: list) -> str | None:
        got_key = as_key(got)
        want = chain_matches(self.log, pattern)
        if got_key != want:
            return f"{len(got_key)} matches, brute-force chain {len(want)}"
        sase = self.sase.query(list(pattern))
        if len(pattern) == 2 and got_key != as_key(sase):
            return f"{len(got_key)} matches, SASE {len(sase)}"
        if not {t for t, _ in got_key} <= {m.trace_id for m in sase}:
            return "matches in traces where SASE finds none"
        return None

    def composite(self, expression: str, got: list) -> str | None:
        want = self.sase.query(parse_pattern(expression))
        if as_key(got) != as_key(want):
            return f"{len(got)} matches, PatternNfa {len(want)}"
        return None
