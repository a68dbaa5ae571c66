"""Property-based tests for the pluggable gradient selectors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.selectors import (
    MaxNSelector,
    RandomKSelector,
    ThresholdSelector,
    TopKSelector,
)

grads = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 300),
    elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
)
levels = st.floats(0.01, 100.0)


def _selectors(rng_seed=0):
    return [
        MaxNSelector(),
        TopKSelector(),
        RandomKSelector(np.random.default_rng(rng_seed)),
        ThresholdSelector(base_threshold=0.5),
    ]


@given(g=grads, level=levels)
@settings(max_examples=120, deadline=None)
def test_all_selectors_return_valid_indices_and_values(g, level):
    for sel in _selectors():
        idx, vals = sel.select(g, level)
        assert idx.size == vals.size
        assert (idx >= 0).all() and (idx < g.size).all()
        assert np.unique(idx).size == idx.size  # no duplicates
        np.testing.assert_array_equal(vals, g.reshape(-1)[idx])


@given(g=grads, level=levels)
@settings(max_examples=120, deadline=None)
def test_count_at_matches_select_for_deterministic_selectors(g, level):
    for sel in (MaxNSelector(), TopKSelector(), ThresholdSelector(0.5)):
        count = sel.count_at_levels(g, np.array([level]))
        assert count.tolist() == [sel.select(g, level)[0].size]


@given(g=grads, l1=levels, l2=levels)
@settings(max_examples=120, deadline=None)
def test_counts_monotone_in_level(g, l1, l2):
    lo, hi = sorted((l1, l2))
    for sel in (MaxNSelector(), TopKSelector(), ThresholdSelector(0.5)):
        assert sel.count_at(g, lo) <= sel.count_at(g, hi)


@given(g=grads)
@settings(max_examples=80, deadline=None)
def test_level_100_ships_all_nonzero_entries(g):
    if np.abs(g).max() == 0:
        return
    nonzero = set(np.nonzero(g.reshape(-1))[0].tolist())
    # Relative selectors ship every informative entry at level 100 (and
    # may include exact zeros, as Max N does).
    for sel in (MaxNSelector(), TopKSelector(), RandomKSelector(np.random.default_rng(0))):
        idx, _ = sel.select(g, 100.0)
        assert nonzero <= set(idx.tolist())
    # The absolute-threshold rule keeps a floor threshold even at level
    # 100, so it only guarantees a non-empty selection.
    idx, _ = ThresholdSelector(0.5).select(g, 100.0)
    assert idx.size >= 1


@given(g=grads, level=levels)
@settings(max_examples=80, deadline=None)
def test_zero_gradient_ships_nothing(g, level):
    z = np.zeros_like(g)
    for sel in _selectors():
        idx, vals = sel.select(z, level)
        assert idx.size == 0
