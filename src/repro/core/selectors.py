"""Pluggable gradient selectors for the data quality assurance module.

The paper positions Max N as one instance of a family: "[gradient]
compression algorithms can be placed in the data quality assurance
module in DLion" (§6, Related Work). This module provides that plug
point. A :class:`GradientSelector` answers two questions per weight
variable:

* ``select(grad, level)`` — which entries ship at quality ``level``;
* ``count_at_levels(grad, levels)`` — how many entries that is at every
  level of a grid, in one pass over the variable, so the
  transmission-speed-assurance grid fit can price a whole level grid.
  ``count_at(grad, level)`` is the ground truth those counts must match:
  the size of the selection itself.

``level`` generalizes Max N's N: it always lives in ``(0, 100]`` and
larger levels ship more data. Implementations:

* :class:`MaxNSelector` — the paper's top-band rule (the default);
* :class:`TopKSelector` — classic top-k sparsification (level = the
  percentage of entries kept), as in Alistarh et al. [3];
* :class:`RandomKSelector` — unbiased random sparsification baseline;
* :class:`ThresholdSelector` — absolute-threshold sparsification, the
  rule family of Gaia-style significance filters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.maxn import keep_threshold, select_max_n

__all__ = [
    "GradientSelector",
    "MaxNSelector",
    "TopKSelector",
    "RandomKSelector",
    "ThresholdSelector",
    "make_selector",
]


class GradientSelector:
    """Interface for data-quality-assurance selection rules."""

    name = "abstract"

    def select(
        self, grad: np.ndarray, level: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(flat_indices, values)`` for quality ``level``."""
        raise NotImplementedError

    def count_at(self, grad: np.ndarray, level: float) -> int:
        """How many entries :meth:`select` keeps: the size of the selection.

        The reference bisection ``fit_level_to_budget`` reads it, and
        every :meth:`count_at_levels` must agree with it.
        """
        return int(self.select(grad, level)[0].size)

    def count_at_levels(self, grad: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`count_at` over an array of levels.

        The batched budget fit (``fit_levels_to_budgets``) prices a
        whole level grid through this in one pass per variable.
        Overrides must return counts exactly equal to ``count_at`` at
        every level and monotone non-decreasing in level. This base
        implementation merely loops over the selection; every selector
        below overrides it.
        """
        return np.array(
            [self.count_at(grad, lv) for lv in levels], dtype=np.int64
        )

    @staticmethod
    def _validate(level: float) -> None:
        if not 0.0 < level <= 100.0:
            raise ValueError(f"level must be in (0, 100], got {level}")

    @staticmethod
    def _validate_levels(levels: np.ndarray) -> np.ndarray:
        levels = np.asarray(levels, dtype=np.float64)
        if levels.size and not ((levels > 0.0) & (levels <= 100.0)).all():
            raise ValueError("levels must all be in (0, 100]")
        return levels


class MaxNSelector(GradientSelector):
    """The paper's Max N: entries within the top-N% magnitude band."""

    name = "maxn"

    def select(self, grad, level):
        return select_max_n(grad, level)

    def count_at_levels(self, grad, levels):
        levels = self._validate_levels(levels)
        mags = np.abs(grad.reshape(-1))
        mx = float(mags.max(initial=0.0))
        if mx == 0.0:
            return np.zeros(levels.size, dtype=np.int64)
        # One sort, then every level is a searchsorted over it, against
        # select_max_n's own thresholds cast to the gradient dtype (as
        # NumPy casts a python-float threshold before comparing).
        order = np.sort(mags)
        thr = np.array(
            [keep_threshold(mx, lv, mags.dtype) for lv in levels.tolist()],
            dtype=mags.dtype,
        )
        below = np.searchsorted(order, thr, side="left")
        return (mags.size - below).astype(np.int64)


class TopKSelector(GradientSelector):
    """Keep the ``level``-percent largest-magnitude entries (at least one).

    Unlike Max N, the payload size is exactly proportional to the
    level, independent of the gradient's value distribution.
    """

    name = "topk"

    def select(self, grad, level):
        self._validate(level)
        flat = grad.reshape(-1)
        mags = np.abs(flat)
        if float(mags.max(initial=0.0)) == 0.0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=flat.dtype)
        k = max(1, math.ceil(flat.size * level / 100.0))
        if k >= flat.size:
            idx = np.arange(flat.size, dtype=np.int64)
        else:
            idx = np.argpartition(mags, flat.size - k)[flat.size - k:]
            idx = np.sort(idx).astype(np.int64)
        return idx, flat[idx]

    def count_at_levels(self, grad, levels):
        levels = self._validate_levels(levels)
        if grad.size == 0 or float(np.abs(grad).max(initial=0.0)) == 0.0:
            return np.zeros(levels.size, dtype=np.int64)
        # keep-``level``-percent, at least one entry
        k = np.ceil(grad.size * levels / 100.0).astype(np.int64)
        return np.minimum(grad.size, np.maximum(1, k))


class RandomKSelector(GradientSelector):
    """Keep a uniform random ``level``-percent of entries.

    The unbiasedness baseline: same payload size as top-k but no
    prioritization — useful to quantify how much the *choice* of
    entries (vs. their count) matters.
    """

    name = "randomk"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def select(self, grad, level):
        self._validate(level)
        flat = grad.reshape(-1)
        if float(np.abs(flat).max(initial=0.0)) == 0.0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=flat.dtype)
        k = max(1, math.ceil(flat.size * level / 100.0))
        if k >= flat.size:
            idx = np.arange(flat.size, dtype=np.int64)
        else:
            idx = np.sort(self.rng.choice(flat.size, size=k, replace=False)).astype(
                np.int64
            )
        return idx, flat[idx]

    # the same count as top-k: only which entries ship differs
    count_at_levels = TopKSelector.count_at_levels


class ThresholdSelector(GradientSelector):
    """Keep entries with ``|g| >= threshold``; ``level`` rescales it.

    The effective threshold is ``base_threshold * (100 / level − 1 + ε)``
    so that higher levels admit more entries, reaching everything as
    level → 100.
    """

    name = "threshold"

    def __init__(self, base_threshold: float = 1e-4):
        if base_threshold <= 0:
            raise ValueError("base_threshold must be positive")
        self.base_threshold = base_threshold

    def select(self, grad, level):
        self._validate(level)
        flat = grad.reshape(-1)
        mags = np.abs(flat)
        if float(mags.max(initial=0.0)) == 0.0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=flat.dtype)
        thr = self.base_threshold * (100.0 / level - 1.0 + 1e-9)
        idx = np.nonzero(mags >= thr)[0].astype(np.int64)
        if idx.size == 0:
            # always ship at least the most significant entry
            idx = np.array([int(np.argmax(mags))], dtype=np.int64)
        return idx, flat[idx]

    def count_at_levels(self, grad, levels):
        levels = self._validate_levels(levels)
        mags = np.abs(grad.reshape(-1))
        if float(mags.max(initial=0.0)) == 0.0:
            return np.zeros(levels.size, dtype=np.int64)
        order = np.sort(mags)
        thr = self.base_threshold * (100.0 / levels - 1.0 + 1e-9)
        # Cast to the gradient dtype so the comparison matches
        # select's ``mags >= thr`` exactly (including overflow of a
        # huge float64 threshold to float32 inf — count 0, floored to 1).
        thr = thr.astype(mags.dtype, copy=False)
        below = np.searchsorted(order, thr, side="left")
        return np.maximum(1, mags.size - below).astype(np.int64)


def make_selector(
    name: str, *, rng: np.random.Generator | None = None, **kwargs
) -> GradientSelector:
    """Factory keyed by selector name."""
    if name == "maxn":
        return MaxNSelector()
    if name == "topk":
        return TopKSelector()
    if name == "randomk":
        if rng is None:
            raise ValueError("randomk needs an rng")
        return RandomKSelector(rng)
    if name == "threshold":
        return ThresholdSelector(**kwargs)
    raise ValueError(f"unknown selector {name!r}")
