"""Time-varying resource schedules.

These play the role of the paper's ``stress`` (CPU) and ``tc`` (network)
emulation: a resource's capacity is a piecewise-constant function of
simulated time. Dynamic SYS A/B chain three 500-second phases; Fig. 20
uses a bandwidth square wave — both are expressible here.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

__all__ = ["ConstantTrace", "PiecewiseTrace", "min_trace", "square_wave"]


class ConstantTrace:
    """A resource level that never changes."""

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError("resource level must be positive")
        if not math.isfinite(value):
            raise ValueError("resource level must be finite")
        self.value = float(value)

    def value_at(self, t: float) -> float:
        """The (constant) resource level at time ``t``."""
        return self.value

    def next_change_after(self, t: float) -> float | None:
        """Constant resources never change; always None."""
        return None

    def scaled(self, factor: float) -> "ConstantTrace":
        """The same resource at ``factor`` times the level."""
        return ConstantTrace(self.value * factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantTrace({self.value})"


class PiecewiseTrace:
    """Piecewise-constant schedule from ``[(start_time, value), ...]``.

    The first segment must start at t=0; times must be strictly
    increasing. Values hold until the next breakpoint and the final
    value holds forever.
    """

    def __init__(self, segments: Sequence[tuple[float, float]]):
        if not segments:
            raise ValueError("need at least one segment")
        times = [float(t) for t, _ in segments]
        values = [float(v) for _, v in segments]
        if times[0] != 0.0:
            raise ValueError("first segment must start at t=0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("segment times must be strictly increasing")
        if any(v <= 0 for v in values):
            raise ValueError("resource levels must be positive")
        if not all(map(math.isfinite, times + values)):
            raise ValueError("segment times and resource levels must be finite")
        self._times = times
        self._values = values

    def value_at(self, t: float) -> float:
        """The resource level active at time ``t``."""
        if t < 0:
            raise ValueError("negative time")
        idx = bisect.bisect_right(self._times, t) - 1
        return self._values[idx]

    def next_change_after(self, t: float) -> float | None:
        """The next breakpoint strictly after ``t`` (None if none left)."""
        idx = bisect.bisect_right(self._times, t)
        if idx >= len(self._times):
            return None
        return self._times[idx]

    def scaled(self, factor: float) -> "PiecewiseTrace":
        """The same schedule at ``factor`` times every level."""
        return PiecewiseTrace([(t, v * factor) for t, v in zip(self._times, self._values)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = list(zip(self._times, self._values))
        return f"PiecewiseTrace({pairs})"


def min_trace(a, b) -> ConstantTrace | PiecewiseTrace:
    """The pointwise minimum of two resource specs (scalars or traces).

    Evaluated over the union of the two specs' breakpoints, with
    consecutive equal levels collapsed; a minimum that never changes
    comes back as a :class:`ConstantTrace`.
    """
    a, b = (
        x if isinstance(x, PiecewiseTrace)
        else PiecewiseTrace([(0.0, x.value if isinstance(x, ConstantTrace) else x)])
        for x in (a, b)
    )
    segments: list[tuple[float, float]] = []
    for t in sorted({*a._times, *b._times}):
        v = min(a.value_at(t), b.value_at(t))
        if not segments or v != segments[-1][1]:
            segments.append((t, v))
    if len(segments) == 1:
        return ConstantTrace(segments[0][1])
    return PiecewiseTrace(segments)


def square_wave(
    low: float, high: float, period: float, *, start_high: bool = False, horizon: float = 1e5
) -> PiecewiseTrace:
    """A square wave alternating every ``period`` seconds up to ``horizon``.

    Fig. 20's bandwidth schedule (30 ↔ 100 Mbps) is one of these.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    segments: list[tuple[float, float]] = []
    t = 0.0
    hi = start_high
    while t < horizon:
        segments.append((t, high if hi else low))
        hi = not hi
        t += period
    return PiecewiseTrace(segments)
