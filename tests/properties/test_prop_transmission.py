"""Property-based tests for the transmission budget fit.

The batched resolver (:class:`GradientHistograms` + one vectorized
``searchsorted`` per plan) replaced the historical per-link bisection;
this suite pins down the invariants the replacement must preserve:

* the chosen N stays in ``[n_min, n_max]``;
* whenever the chosen N exceeds the floor, the **exact** encoded
  payload at that N fits the budget (the histogram only overcounts);
* the fit is monotone non-decreasing in the budget;
* the batched answer agrees with the reference bisection
  (``_fit_n_bisect``, kept here as the oracle) within one histogram bin
  plus the bisection's precision;
* the generic selector path (``fit_level_to_budget`` with
  :class:`MaxNSelector`) agrees with the Max-N fast path within the
  same granularity, including on degenerate gradients (all-zero,
  single-entry, subnormal magnitudes);
* the planner's stored fold is a *guess* source only: narrowed to int32
  it warm-starts every later plan exactly as the int64 fold would.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.messages import sparse_payload_bytes
from repro.core.config import MaxNConfig
from repro.core.maxn import select_payload
from repro.core.selectors import MaxNSelector
from repro.core.transmission import (
    _BINS,
    GradientHistograms,
    TransmissionPlanner,
    fit_level_to_budget,
    fit_n_to_budget,
)

# One histogram bin of N plus the bisection's precision: the bound on
# how far the batched answer may sit from any exact-count resolver.
BIN_TOL = 100.0 / _BINS + 0.01 + 1e-9


def _fit_n_bisect(grads, budget_bytes, *, n_min=0.85, n_max=100.0, precision=0.01):
    """The pre-batching per-link bisection over the binned upper bound."""
    hist = GradientHistograms(grads)
    if hist.bytes_at(n_max) <= budget_bytes:
        return n_max
    if hist.bytes_at(n_min) > budget_bytes:
        return n_min
    lo, hi = n_min, n_max  # feasible at lo, infeasible at hi
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if hist.bytes_at(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo


grad_dicts = st.dictionaries(
    keys=st.sampled_from(["w1", "w2", "w3"]),
    values=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 400),
        elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
    ),
    min_size=1,
    max_size=3,
)

# Degenerate shapes the batched resolver must survive: all-zero
# variables, single-entry variables, and subnormal magnitudes whose
# normalization (mags / mx) must not overflow or lose the max entry.
tricky_grads = st.dictionaries(
    keys=st.sampled_from(["w1", "w2", "w3"]),
    values=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 50),
        elements=st.sampled_from(
            [0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-3, -1.0, 1e3]
        ),
    ),
    min_size=1,
    max_size=3,
)


@given(grads=grad_dicts, budget=st.floats(1.0, 1e7))
@settings(max_examples=500, deadline=None)
def test_chosen_n_in_bounds(grads, budget):
    n = fit_n_to_budget(grads, budget)
    assert 0.85 <= n <= 100.0


@given(grads=grad_dicts, budget=st.floats(1.0, 1e7))
@settings(max_examples=500, deadline=None)
# A subnormal maximum: (1 - N/100) * max underflows to zero in the
# gradient's dtype, which must not let the zero entry in.
@example(grads={"w1": np.array([5e-324, 0.0])}, budget=32.0)
@example(grads={"w1": np.array([1e-45, 0.0], dtype=np.float32)}, budget=32.0)
def test_payload_fits_budget_unless_floored(grads, budget):
    """The fitted N's exact payload never exceeds the budget, except
    when the quality floor n_min forces a minimum payload."""
    n = fit_n_to_budget(grads, budget)
    if n > 0.85 + 1e-9:
        size = sparse_payload_bytes(select_payload(grads, n))
        assert size <= budget


@given(grads=grad_dicts, b1=st.floats(1.0, 1e6), b2=st.floats(1.0, 1e6))
@settings(max_examples=500, deadline=None)
def test_monotone_in_budget(grads, b1, b2):
    lo, hi = sorted((b1, b2))
    assert fit_n_to_budget(grads, lo) <= fit_n_to_budget(grads, hi) + 1e-9


@given(grads=grad_dicts, budget=st.floats(1.0, 1e7))
@settings(max_examples=500, deadline=None)
def test_batched_matches_bisection(grads, budget):
    """The vectorized searchsorted fit lands within one histogram bin
    (plus the bisection's own precision) of the reference bisection."""
    batched = fit_n_to_budget(grads, budget)
    bisected = _fit_n_bisect(grads, budget)
    assert abs(batched - bisected) <= BIN_TOL


@given(grads=grad_dicts)
@settings(max_examples=100, deadline=None)
def test_infinite_budget_sends_everything(grads):
    assert fit_n_to_budget(grads, 1e12) == 100.0


@given(grads=tricky_grads, budget=st.floats(1.0, 1e5))
@settings(max_examples=500, deadline=None)
def test_generic_maxn_parity(grads, budget):
    """``fit_level_to_budget`` with the Max-N selector (exact counts,
    bisection) agrees with the histogram fast path within one bin —
    including all-zero, single-entry and subnormal variables."""
    fast = fit_n_to_budget(grads, budget)
    generic = fit_level_to_budget(MaxNSelector(), grads, budget)
    assert abs(fast - generic) <= BIN_TOL


@given(grads=tricky_grads, budget=st.floats(1.0, 1e5))
@settings(max_examples=200, deadline=None)
def test_tricky_payload_fits_budget_unless_floored(grads, budget):
    """Exact feasibility holds on degenerate gradients too."""
    n = fit_n_to_budget(grads, budget)
    assert 0.85 <= n <= 100.0
    if n > 0.85 + 1e-9:
        size = sparse_payload_bytes(select_payload(grads, n))
        assert size <= budget


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 3000),
    drift=st.floats(0.0, 2.0),
    cold_uniform=st.booleans(),
    bandwidths=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_int32_fold_warm_starts_like_the_int64_fold(
    seed, size, drift, cold_uniform, bandwidths
):
    """Two planners fold the same cold plan (uniform or not — the most
    recent cold fit is kept, whichever kind); one keeps the int32 fold
    it stored, the other gets the int64 original back. Every later
    uniform plan — budgets and gradient drift drawn — answers the same:
    chosen N, payload, and the fold left behind."""
    rng = np.random.default_rng(seed)
    first = {"w": rng.normal(size=size), "b": rng.normal(size=7)}
    cold = {1: 5.0, 2: 5.0} if cold_uniform else {1: 5.0, 2: 0.5, 3: 2.0}
    narrow = TransmissionPlanner(MaxNConfig())
    wide = TransmissionPlanner(MaxNConfig())
    for planner in (narrow, wide):
        planner.plan(first, cold, 0.05)
    assert narrow._stale_fold.dtype == np.int32
    wide._stale_fold = wide._stale_fold.astype(np.int64)

    for mbps in bandwidths:
        grads = {
            name: g + drift * rng.normal(size=g.shape) for name, g in first.items()
        }
        links = {1: mbps, 2: mbps}
        got, want = narrow.plan(grads, links, 0.05), wide.plan(grads, links, 0.05)
        assert narrow._warm_miss == wide._warm_miss
        np.testing.assert_array_equal(narrow._stale_fold, wide._stale_fold)
        for dst in links:
            assert got[dst][0] == want[dst][0]
            assert got[dst][1].keys() == want[dst][1].keys()
            for name, (idx, vals) in got[dst][1].items():
                np.testing.assert_array_equal(idx, want[dst][1][name][0])
                np.testing.assert_array_equal(vals, want[dst][1][name][1])
