"""Property-based tests for Max N selection invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.maxn import select_max_n

finite_grads = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
)

valid_n = st.floats(0.01, 100.0, allow_nan=False)


@given(g=finite_grads, n=valid_n)
@settings(max_examples=150, deadline=None)
def test_selected_values_match_original(g, n):
    idx, vals = select_max_n(g, n)
    np.testing.assert_array_equal(vals, g.reshape(-1)[idx])


@given(g=finite_grads, n=valid_n)
@settings(max_examples=150, deadline=None)
def test_band_rule_holds_exactly(g, n):
    """Every selected entry is in the top-N% band; no unselected entry is."""
    idx, _ = select_max_n(g, n)
    mags = np.abs(g.reshape(-1))
    mx = mags.max()
    if mx == 0:
        assert idx.size == 0
        return
    thr = (1.0 - n / 100.0) * mx
    if thr == 0.0 and n < 100.0:
        # the threshold underflowed at a subnormal max: the band is
        # still every nonzero entry, never the zeros
        thr = np.nextafter(0.0, 1.0)
    selected = np.zeros(mags.size, dtype=bool)
    selected[idx] = True
    assert (mags[selected] >= thr).all()
    assert (mags[~selected] < thr).all()


@given(g=finite_grads)
@settings(max_examples=100, deadline=None)
def test_max_entry_always_selected_for_nonzero(g):
    mags = np.abs(g.reshape(-1))
    if mags.max() == 0:
        return
    idx, _ = select_max_n(g, 0.01)
    assert np.argmax(mags) in idx


@given(g=finite_grads, n1=valid_n, n2=valid_n)
@settings(max_examples=150, deadline=None)
def test_monotone_nesting(g, n1, n2):
    """A larger N selects a superset of a smaller N's entries."""
    lo, hi = sorted((n1, n2))
    idx_lo, _ = select_max_n(g, lo)
    idx_hi, _ = select_max_n(g, hi)
    assert set(idx_lo.tolist()) <= set(idx_hi.tolist())


@given(g=finite_grads)
@settings(max_examples=100, deadline=None)
def test_n_100_is_identity(g):
    idx, vals = select_max_n(g, 100.0)
    if np.abs(g).max() == 0:
        assert idx.size == 0
    else:
        assert idx.size == g.size
        np.testing.assert_array_equal(vals, g.reshape(-1))


# Scale invariance only holds away from the float underflow boundary:
# a subnormal entry (e.g. 5e-324) times scale < 1 flushes to exactly
# zero, legitimately changing the selection. Keep magnitudes either
# zero or large enough that scaling by 0.01 stays normal.
scale_safe_grads = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 200),
    elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False, width=64
    ).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
)


@given(g=scale_safe_grads, n=valid_n, scale=st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_selection_scale_invariant(g, n, scale):
    """Scaling all gradients never changes which entries are selected."""
    idx1, _ = select_max_n(g, n)
    idx2, _ = select_max_n(g * scale, n)
    np.testing.assert_array_equal(idx1, idx2)
