"""Local batch size controller (§3.2).

Measures each worker's *relative compute power* (RCP) — "a maximum local
batch size that worker i can process during a given unit time" — by
fitting iteration time against batch size with linear regression over
timed probe iterations, then splits the GBS proportionally (Eq. 5):

    LBS_i = GBS * RCP_i / Σ_j RCP_j

``allocate_lbs`` performs the proportional split with largest-remainder
rounding so that Σ LBS_i == GBS exactly (the paper's invariant);
``lbs_share`` returns one worker's entry of that split, which is all a
worker's control plane needs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import LbsConfig
from repro.utils.linreg import fit_line

__all__ = ["LbsController", "allocate_lbs", "lbs_share"]


def _floor_split(
    gbs: int, rcps: Sequence[float], min_lbs: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The Eq. 5 arithmetic both entry points share.

    Returns ``(base, frac, remainder)``: the floored proportional
    shares, their fractional parts, and the ``gbs - base.sum()`` units
    the largest-remainder rule still has to hand out — one each to the
    ``remainder`` largest ``frac`` entries, ties broken by worker index.
    """
    n = len(rcps)
    if n == 0:
        raise ValueError("no workers")
    if gbs < n * min_lbs:
        raise ValueError(f"GBS {gbs} too small for {n} workers at min_lbs={min_lbs}")
    arr = np.asarray(rcps, dtype=float)
    if (arr < 0).any():
        raise ValueError("RCPs must be non-negative")
    total = arr.sum()
    if total <= 0:
        # No information: fall back to an even split.
        arr = np.ones(n)
        total = float(n)

    raw = gbs * arr / total
    base = np.floor(raw).astype(int)
    return base, raw - base, gbs - int(base.sum())


def allocate_lbs(
    gbs: int, rcps: Sequence[float], *, min_lbs: int = 1
) -> list[int]:
    """Split ``gbs`` across workers proportionally to their RCPs.

    Largest-remainder rounding preserves ``sum(result) == gbs``; every
    worker receives at least ``min_lbs`` (taken from the largest shares
    if the proportional share rounds to zero).
    """
    base, frac, remainder = _floor_split(gbs, rcps, min_lbs)
    base[np.argsort(-frac, kind="stable")[:remainder]] += 1

    if base.min() < min_lbs:
        # Enforce the floor, stealing from the largest allocations.
        for i in range(len(base)):
            while base[i] < min_lbs:
                donor = int(np.argmax(base))
                if base[donor] <= min_lbs:
                    raise ValueError("cannot satisfy min_lbs for all workers")
                base[donor] -= 1
                base[i] += 1
    assert int(base.sum()) == gbs
    return base.tolist()


def lbs_share(
    gbs: int, rcps: Sequence[float], i: int, *, min_lbs: int = 1
) -> int:
    """Worker ``i``'s entry of :func:`allocate_lbs`, without the vector.

    A worker reacting to an RCP share or a GBS announcement needs only
    its own share: its floored proportional share plus one unit when its
    fractional part ranks inside the remainder. The rank is two counting
    passes — no sort, no list. When some floored share is below
    ``min_lbs`` the donor loop may move units between workers, so that
    (rare) case takes the whole-vector path.
    """
    base, frac, remainder = _floor_split(gbs, rcps, min_lbs)
    if not 0 <= i < len(base):
        raise IndexError(f"worker index {i} out of range for {len(base)} workers")
    if base.min() < min_lbs:
        return allocate_lbs(gbs, rcps, min_lbs=min_lbs)[i]
    f = frac[i]
    rank = int((frac > f).sum()) + int((frac[:i] == f).sum())
    return int(base[i]) + (rank < remainder)


class LbsController:
    """Per-worker RCP measurement.

    ``profile`` runs timed probe iterations through a caller-supplied
    ``probe(batch_size) -> seconds`` function (in the simulator this
    consumes simulated time; on real hardware it would wrap a training
    step), fits the time-vs-batch line, and returns the RCP estimate.
    """

    def __init__(self, config: LbsConfig):
        self.config = config
        self.last_fit = None
        self.last_rcp: float | None = None

    def profile(self, probe: Callable[[int], float]) -> float:
        """Measure RCP with the configured probe schedule."""
        xs: list[float] = []
        ys: list[float] = []
        for b in self.config.probe_batches:
            for _ in range(self.config.probe_repeats):
                xs.append(float(b))
                ys.append(float(probe(int(b))))
        fit = fit_line(xs, ys)
        self.last_fit = fit
        self.last_rcp = self._rcp_from_fit(fit, xs, ys)
        return self.last_rcp

    def _rcp_from_fit(self, fit, xs: list[float], ys: list[float]) -> float:
        """Invert the fitted line at the unit time.

        Falls back to a direct throughput estimate when the fit is
        degenerate (noise can produce a non-positive slope on a very
        fast worker).
        """
        unit = self.config.unit_time_s
        if fit.slope > 1e-9:
            rcp = fit.invert(unit)
            if rcp >= 1.0:
                return float(rcp)
        # Fallback: samples/sec from the largest probe, scaled to unit time.
        best = max(x / y for x, y in zip(xs, ys) if y > 0)
        return max(1.0, best * unit)
