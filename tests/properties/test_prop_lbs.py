"""Property-based tests for LBS allocation (Eq. 5)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lbs_controller import allocate_lbs, lbs_share

rcps = st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=12)


@given(rcps=rcps, gbs_mult=st.integers(1, 100))
@settings(max_examples=200, deadline=None)
def test_allocation_sums_to_gbs(rcps, gbs_mult):
    gbs = len(rcps) * gbs_mult
    alloc = allocate_lbs(gbs, rcps)
    assert sum(alloc) == gbs


@given(rcps=rcps, gbs_mult=st.integers(1, 100))
@settings(max_examples=200, deadline=None)
def test_every_worker_gets_at_least_one(rcps, gbs_mult):
    gbs = len(rcps) * gbs_mult
    alloc = allocate_lbs(gbs, rcps)
    assert min(alloc) >= 1


@given(rcps=st.lists(st.floats(0.1, 1e4), min_size=2, max_size=8), mult=st.integers(10, 50))
@settings(max_examples=200, deadline=None)
def test_allocation_order_follows_rcp_order(rcps, mult):
    """A strictly more powerful worker never gets a smaller LBS."""
    gbs = len(rcps) * mult
    alloc = allocate_lbs(gbs, rcps)
    for i in range(len(rcps)):
        for j in range(len(rcps)):
            if rcps[i] > rcps[j]:
                assert alloc[i] >= alloc[j] - 1  # rounding slack of one


@given(rcps=st.lists(st.floats(0.1, 1e4), min_size=2, max_size=8), mult=st.integers(2, 40))
@settings(max_examples=200, deadline=None)
def test_proportionality_within_rounding(rcps, mult):
    gbs = len(rcps) * mult
    alloc = allocate_lbs(gbs, rcps)
    total = sum(rcps)
    ideals = [gbs * r / total for r in rcps]
    # The min-LBS floor may transfer units away from the largest shares:
    # each under-floor worker can pull at most one unit per enforcement.
    floor_slack = sum(1 for ideal in ideals if ideal < 1.0)
    for a, ideal in zip(alloc, ideals):
        assert abs(a - ideal) <= 1.0 + floor_slack + 1e-9


@given(rcps=rcps, gbs_mult=st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_deterministic(rcps, gbs_mult):
    gbs = len(rcps) * gbs_mult
    assert allocate_lbs(gbs, rcps) == allocate_lbs(gbs, rcps)


# Small integer-valued RCPs make exact fractional ties and zeros common;
# the 1e-3 entries force shares below one sample (the ``min_lbs`` floor).
tie_heavy_rcps = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1e-3, 1.0, 2.0, 3.0, 1000.0]),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=64,
)


@given(
    rcps=tie_heavy_rcps,
    spare=st.integers(0, 200),
    min_lbs=st.sampled_from([1, 4]),
)
@example(rcps=[1000.0, 1e-3, 1e-3], spare=0, min_lbs=4)  # donor loop runs
@example(rcps=[1.0, 1.0, 1.0], spare=1, min_lbs=1)  # three-way tie, one unit
@example(rcps=[0.0, 0.0, 5.0], spare=3, min_lbs=1)  # zeros beside a live RCP
@example(rcps=[0.0] * 7, spare=3, min_lbs=4)  # all zero: the even-split fallback
@settings(max_examples=300, deadline=None)
def test_own_share_equals_full_allocation(rcps, spare, min_lbs):
    """``lbs_share(..., i)`` is ``allocate_lbs(...)[i]`` for every i."""
    gbs = len(rcps) * min_lbs + spare
    full = allocate_lbs(gbs, rcps, min_lbs=min_lbs)
    shares = [lbs_share(gbs, rcps, i, min_lbs=min_lbs) for i in range(len(rcps))]
    assert shares == full
    assert sum(shares) == gbs
    assert min(shares) >= min_lbs


@pytest.mark.parametrize(
    "gbs, rcps",
    [
        (4, []),  # no workers
        (2, [1.0, 1.0, 1.0]),  # GBS below one sample per worker
        (8, [1.0, -1.0]),  # negative RCP
    ],
)
def test_own_share_rejects_what_allocation_rejects(gbs, rcps):
    with pytest.raises(ValueError) as full:
        allocate_lbs(gbs, rcps)
    with pytest.raises(ValueError) as own:
        lbs_share(gbs, rcps, 0)
    assert str(own.value) == str(full.value)


def test_own_share_rejects_out_of_range_index():
    with pytest.raises(IndexError):
        lbs_share(8, [1.0, 1.0], 2)
    with pytest.raises(IndexError):
        lbs_share(8, [1.0, 1.0], -1)
