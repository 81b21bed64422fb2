"""Outside-in tracing: timing wrappers on the names a caller module binds.

The tracer never edits the program. It replaces an attribute such as
``vjlab.training.encode`` with a wrapper and puts the original back in
``Patches.restore``. Because the wrapper sits on the caller's binding, the
teacher's internal ``encode`` (looked up in ``vjlab.model``) stays apart
from the student's ``encode`` (looked up in ``vjlab.training``).

Pure Python on purpose: ``selftest.py`` checks it without numpy.
"""

from __future__ import annotations

import time
from collections import defaultdict

HOOKS = "trace.hooks_ms"


class Patches:
    """Module attributes replaced by wrappers, restored last-in first-out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._originals: dict[tuple[object, str], object] = {}
        self.missing: list[str] = []

    def patch(self, module, attr: str, make) -> bool:
        """Set ``module.attr`` to ``make(original)``; False if it is gone."""
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return False
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._saved.append((module, attr, original))
        self._originals.setdefault((module, attr), original)
        return True

    def restore(self) -> list[str]:
        """Put every original back; returns the names still not original."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return [f"{m.__name__}.{a}" for (m, a), fn in self._originals.items()
                if getattr(m, a) is not fn]


class Tracer:
    """Spans (name, start, end, parent index, step id) kept in memory.

    ``step`` is set by whoever drives the steps; spans opened while it is
    ``None`` belong to no step. While ``enabled`` is false the wrappers call
    straight through and record nothing.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.step: str | None = None
        self.enabled = True
        self._open: list[int] = []

    def wrap(self, patches: Patches, module, attr: str, name: str, count=None) -> bool:
        """Time calls to ``module.attr`` as spans called ``name``.

        ``count(args, result)`` returns {counter: amount}. It runs after the
        span has closed, inside a span of its own named ``HOOKS``, so the
        tracer's own work is never charged to the layer it observes.
        """
        def make(original):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                result = self.span(name, original, *args, **kwargs)
                if count is not None:
                    self.span(HOOKS, self._count, count, args, result)
                return result
            return traced
        return patches.patch(module, attr, make)

    def span(self, name: str, fn, *args, **kwargs):
        record = [name, self.clock(), None, self._open[-1] if self._open else -1, self.step]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._open.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, as a child of the open span."""
        self.spans.append([name, start, end, self._open[-1] if self._open else -1, self.step])

    def _count(self, count, args, result) -> None:
        for key, amount in count(args, result).items():
            self.counts[key] += amount


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, summed duration and call count."""
    self_t, incl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        self_t[name] += own
        incl[name] += end - start
        calls[name] += 1
    return self_t, incl, calls


def step_profile(spans: list[list]) -> dict[str, float]:
    """Self time per step by span name, averaged over the middle half of steps.

    Steps are ranked by their total time and the fastest and slowest
    quarters are left out, so a burst of contention on a shared machine
    does not land on whichever layer it happened to hit. The names still
    add up: their sum is the mean time of the steps kept.
    """
    per_step: dict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        if span[4] is not None:
            per_step[span[4]][span[0]] += own
    ranked = sorted(per_step.values(), key=lambda names: sum(names.values()))
    kept = ranked[len(ranked) // 4: len(ranked) - len(ranked) // 4]
    profile: dict[str, float] = defaultdict(float)
    for names in kept:
        for name, own in names.items():
            profile[name] += own / len(kept)
    return profile
