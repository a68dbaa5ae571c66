"""Curve utilities: resampling, smoothing, and aligning accuracy series.

Run recordings are event-timed (samples land wherever evaluations
happened), which is awkward for comparison plots and aggregation across
seeds. These helpers put curves on a common clock:

* :func:`resample` — last-observation-carried-forward onto a uniform
  grid;
* :func:`ema` — exponential smoothing for noisy accuracy traces;
* :func:`align_and_average` — mean ± std across runs on a shared grid;
* :func:`auc` — area under the accuracy curve, a budget-free scalar for
  "how fast and how high" comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.utils.metrics import TimeSeries

__all__ = ["resample", "ema", "align_and_average", "auc"]


def resample(series: TimeSeries, grid: np.ndarray) -> np.ndarray:
    """LOCF-resample a series onto ``grid`` (monotone increasing).

    Grid points before the first sample take the first value.
    """
    if not series:
        raise ValueError("cannot resample an empty series")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be non-decreasing")
    times, values = series.as_arrays()
    idx = np.searchsorted(times, grid, side="right") - 1
    idx = np.clip(idx, 0, len(values) - 1)
    return values[idx]


def ema(values: np.ndarray, *, alpha: float = 0.3) -> np.ndarray:
    """Exponential moving average, seeded at the first value."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.copy()
    out = np.empty_like(arr)
    out[0] = arr[0]
    for i in range(1, arr.size):
        out[i] = alpha * arr[i] + (1 - alpha) * out[i - 1]
    return out


def align_and_average(
    series_list: list[TimeSeries], *, points: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and std of several runs on a shared uniform grid.

    The grid spans ``[0, min(last sample time)]`` so every run covers
    every grid point. Returns ``(grid, mean, std)``.
    """
    if not series_list:
        raise ValueError("no series")
    if points < 2:
        raise ValueError("need at least two grid points")
    horizon = min(s.times[-1] for s in series_list)
    grid = np.linspace(0.0, horizon, points)
    stacked = np.vstack([resample(s, grid) for s in series_list])
    return grid, stacked.mean(axis=0), stacked.std(axis=0)


def auc(series: TimeSeries, *, horizon: float | None = None) -> float:
    """Normalized area under the curve over ``[0, horizon]``.

    Computed on the LOCF step function, divided by the horizon, so the
    result lives in the value's own units (an accuracy AUC of 0.6 means
    "0.6 average accuracy over the budget").
    """
    if not series:
        raise ValueError("empty series")
    times, values = series.as_arrays()
    end = horizon if horizon is not None else times[-1]
    if end <= 0:
        raise ValueError("horizon must be positive")
    # step integral: each sample holds until the next (or the horizon).
    # Each stretch is weighted by its share of the horizon — dividing
    # the summed ``value * dt`` instead underflows to 0 when the whole
    # horizon is subnormal.
    total = 0.0
    for i in range(len(times)):
        t0 = times[i]
        if t0 >= end:
            break
        t1 = min(times[i + 1] if i + 1 < len(times) else end, end)
        total += values[i] * (max(0.0, t1 - t0) / end)
    # the stretch before the first sample counts as the first value
    total += values[0] * (min(times[0], end) / end)
    return total
