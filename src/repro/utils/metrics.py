"""Experiment metrics: accuracy time-series and the paper's three measures.

The evaluation (paper §5.1.3) uses three performance metrics:

1. model accuracy reached within a given training time,
2. training time until a target accuracy is reached (accuracy sampled
   every 20 iterations),
3. final accuracy once the model has fully converged.

This module implements those measures over ``TimeSeries`` recordings plus
the mean / 95% confidence-interval aggregation the paper applies across
three runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "accuracy_at_time",
    "time_to_accuracy",
    "detect_convergence",
    "mean_and_ci95",
]


@dataclass
class TimeSeries:
    """An append-only ``(time, value)`` series.

    Times must be non-decreasing (simulated clocks never run backwards);
    violating appends raise immediately so bugs surface at the source.
    """

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, t: float, v: float) -> None:
        """Record ``v`` at time ``t`` (times must not decrease)."""
        if self.times and t < self.times[-1] - 1e-12:
            raise ValueError(
                f"non-monotonic time append: {t} after {self.times[-1]}"
            )
        self.times.append(float(t))
        self.values.append(float(v))

    def __len__(self) -> int:
        return len(self.times)

    def __bool__(self) -> bool:
        return bool(self.times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The series as ``(times, values)`` float arrays."""
        return np.asarray(self.times, dtype=float), np.asarray(self.values, dtype=float)

    def value_at(self, t: float) -> float:
        """Last-observation-carried-forward value at time ``t``."""
        if not self.times:
            raise IndexError("empty time series")
        idx = int(np.searchsorted(np.asarray(self.times), t, side="right")) - 1
        if idx < 0:
            return self.values[0]
        return self.values[idx]


def accuracy_at_time(series: TimeSeries, t: float) -> float:
    """Paper metric 1: accuracy achieved by training time ``t``.

    Uses the best accuracy observed up to ``t`` (the paper reports the
    model quality attained within the budget, which is monotone).
    """
    times, values = series.as_arrays()
    mask = times <= t + 1e-12
    if not mask.any():
        return 0.0
    return float(values[mask].max())


def time_to_accuracy(series: TimeSeries, target: float) -> float | None:
    """Paper metric 2: first time at which accuracy ``>= target``.

    Returns ``None`` when the target is never reached within the series.
    """
    times, values = series.as_arrays()
    hits = np.nonzero(values >= target - 1e-12)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0]])


def detect_convergence(
    series: TimeSeries,
    *,
    window: int = 10,
    tolerance: float = 0.002,
) -> tuple[float, float] | None:
    """Paper metric 3: the plateau of a "fully converged" run.

    A run is converged at the first sample index ``i`` such that the best
    accuracy in the trailing ``window`` samples improves on the best
    accuracy before the window by less than ``tolerance``. Returns
    ``(time, accuracy)`` of the plateau, or ``None`` if no plateau exists
    within the recording.
    """
    times, values = series.as_arrays()
    if values.size < 2 * window:
        return None
    running_best = np.maximum.accumulate(values)
    for i in range(window, values.size):
        if running_best[i] - running_best[i - window] < tolerance:
            return float(times[i]), float(running_best[i])
    return None


# Two-sided 97.5% Student-t quantiles for small n (index = degrees of freedom).
_T975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
}


def mean_and_ci95(samples: Sequence[float] | Iterable[float]) -> tuple[float, float]:
    """Mean and 95% confidence half-width over independent runs.

    The paper reports "the average of three runs and error bars mark 95%
    confidence interval"; with n <= 11 we use the exact Student-t
    quantile, falling back to 1.96 for larger n.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("no samples")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    tq = _T975.get(arr.size - 1, 1.96)
    return mean, tq * sem
