"""Property-based tests: chaos-plan membership replay and curve utilities."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.experiments.curves import auc, ema, resample
from repro.utils.metrics import TimeSeries

N_WORKERS = 6


# ------------------------------------------------------------ membership
@st.composite
def crash_plans(draw):
    """Valid crash narratives for a 6-worker cluster: up to three crashes
    per worker, each restarted before the next (the last may be final)."""
    crashes = []
    for worker in range(N_WORKERS):
        k = draw(st.integers(0, 3))
        times = sorted(
            draw(st.lists(st.integers(1, 5000), min_size=k, max_size=k, unique=True))
        )
        for i, t in enumerate(times):
            if i + 1 < k:
                restart = draw(st.integers(1, 2 * (times[i + 1] - t) - 1))
            else:
                restart = draw(st.none() | st.integers(1, 1000))
            crashes.append(CrashEvent(
                2.0 * t, worker,
                restart_after=None if restart is None else float(restart),
            ))
    return ChaosPlan(crashes=crashes)


def replay(plan, t):
    """The active set after every membership event at or before ``t``."""
    state = {w: True for w in range(N_WORKERS)}
    for time, worker, action in plan.membership_events():
        if time <= t:
            state[worker] = action == "join"
    return {w for w, up in state.items() if up}


@given(plan=crash_plans(), t=st.floats(0, 2e4))
@settings(max_examples=150, deadline=None)
def test_active_set_is_subset_of_cluster(plan, t):
    assert replay(plan, t) <= set(range(N_WORKERS))


@given(plan=crash_plans())
@settings(max_examples=100, deadline=None)
def test_everyone_active_at_time_zero_before_events(plan):
    assert replay(plan, 0.0) == set(range(N_WORKERS))
    # Each worker's own events alternate, starting with a leave.
    for worker in range(N_WORKERS):
        actions = [a for _, w, a in plan.membership_events() if w == worker]
        assert actions == ["leave", "join"] * (len(actions) // 2) + (
            ["leave"] if len(actions) % 2 else []
        )


@given(plan=crash_plans())
@settings(max_examples=100, deadline=None)
def test_min_active_is_reachable_lower_bound(plan):
    probes = [0.0] + [time for time, _, _ in plan.membership_events()]
    lo = min(len(replay(plan, t)) for t in probes)
    if lo >= 2:
        plan.validate(N_WORKERS)
    else:
        with pytest.raises(ValueError, match="at least two must stay up"):
            plan.validate(N_WORKERS)


@given(plan=crash_plans(), t=st.floats(0, 2e4))
@settings(max_examples=100, deadline=None)
def test_active_at_matches_event_replay(plan, t):
    down = {
        c.worker for c in plan.crashes
        if c.time <= t and (c.restart_after is None or t < c.time + c.restart_after)
    }
    assert replay(plan, t) == set(range(N_WORKERS)) - down


# ----------------------------------------------------------------- curves
@st.composite
def time_series(draw):
    n = draw(st.integers(1, 30))
    times = sorted(draw(st.lists(st.floats(0, 1e3), min_size=n, max_size=n)))
    values = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    s = TimeSeries()
    for t, v in zip(times, values):
        s.append(t, v)
    return s


@given(s=time_series(), grid_pts=st.integers(2, 40))
@settings(max_examples=150, deadline=None)
def test_resample_values_come_from_series(s, grid_pts):
    grid = np.linspace(0, 1200, grid_pts)
    out = resample(s, grid)
    assert set(np.unique(out)) <= set(s.values)


@given(s=time_series())
@settings(max_examples=100, deadline=None)
def test_resample_at_sample_times_recovers_last_value_per_time(s):
    grid = np.asarray(s.times)
    out = resample(s, grid)
    # duplicate timestamps keep the last appended value (LOCF semantics)
    expected = [s.value_at(t) for t in s.times]
    np.testing.assert_allclose(out, expected)


@given(s=time_series())
# A subnormal horizon: value * dt underflows unless auc weights by dt / end.
@example(s=TimeSeries([0.0, 5e-324], [0.5, 0.5]))
@settings(max_examples=150, deadline=None)
def test_auc_bounded_by_value_range(s):
    assume(s.times[-1] > 0)  # a series ending at t=0 has no horizon
    a = auc(s)
    assert min(s.values) - 1e-9 <= a <= max(s.values) + 1e-9


@given(s=time_series(), alpha=st.floats(0.05, 1.0))
@settings(max_examples=100, deadline=None)
def test_ema_stays_in_value_hull(s, alpha):
    out = ema(np.asarray(s.values), alpha=alpha)
    assert out.min() >= min(s.values) - 1e-9
    assert out.max() <= max(s.values) + 1e-9
