"""The Max N data-quality-assurance algorithm (§3.3).

Max N keeps, *per weight variable*, the gradient entries whose absolute
value lies in the top-N% band of that variable's maximum:

    keep i  ⇔  |g_i| >= (1 − N/100) · max|g|

so N = 100 keeps everything (whole-gradient exchange) and N → 0 keeps
only the largest entry. This is the reading consistent with all three of
the paper's statements about N (see DESIGN.md §2). Each weight variable
is filtered independently because "each weight variable has their own
value distribution and convergence speed".

:func:`keep_threshold` is the one place that threshold is written; every
Max-N selection and count compares against it.
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

__all__ = ["keep_threshold", "select_max_n", "select_payload"]


@functools.cache
def _smallest_positive(dtype: np.dtype) -> float:
    return float(np.finfo(dtype).smallest_subnormal)


def keep_threshold(max_abs: float, n_percent: float, dtype: np.dtype) -> float:
    """The Max-N keep threshold ``(1 − N/100)·max|g|`` for ``|g|`` of ``dtype``.

    NumPy casts a python-float threshold to the gradient's dtype before
    comparing, so a threshold below that dtype's smallest positive value
    would compare as zero and keep the variable's zero entries too. For
    N < 100 such a threshold is raised to that smallest value: a nonzero
    maximum never selects a zero entry, as the normalise-first histogram
    in :mod:`repro.core.transmission` already assumes. Any threshold that
    does not underflow is returned unchanged. Pure python after the first
    call per dtype: the planner's warm probes call it once per variable.
    """
    thr = (1.0 - n_percent / 100.0) * max_abs
    floor = _smallest_positive(dtype)
    if thr < floor and n_percent < 100.0:
        return floor
    return thr


def select_max_n(grad: np.ndarray, n_percent: float) -> tuple[np.ndarray, np.ndarray]:
    """Select the Max-N entries of one variable's gradient.

    Returns ``(flat_indices, values)``; the max-magnitude entry is
    always included (for any valid N the band contains the max).
    """
    if not 0.0 < n_percent <= 100.0:
        raise ValueError(f"N must be in (0, 100], got {n_percent}")
    flat = grad.reshape(-1)
    mags = np.abs(flat)
    max_abs = float(mags.max(initial=0.0))
    if max_abs == 0.0:
        # A zero gradient carries no information; send nothing.
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=flat.dtype)
    idx = np.nonzero(mags >= keep_threshold(max_abs, n_percent, flat.dtype))[0]
    return idx.astype(np.int64), flat[idx]


def select_payload(
    grads: Mapping[str, np.ndarray], n_percent: float
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Apply Max N per variable; variables with empty selections are dropped."""
    payload: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, g in grads.items():
        idx, vals = select_max_n(g, n_percent)
        if idx.size:
            payload[name] = (idx, vals)
    return payload
