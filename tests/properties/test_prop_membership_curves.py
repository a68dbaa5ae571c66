"""Property-based tests: membership schedules and curve utilities."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cluster.membership import MembershipSchedule
from repro.experiments.curves import auc, ema, resample
from repro.utils.metrics import TimeSeries


# ------------------------------------------------------------ membership
@st.composite
def churn_schedules(draw):
    """Valid alternating leave/join histories for a 6-worker cluster."""
    n_workers = 6
    events = []
    for worker in range(n_workers):
        k = draw(st.integers(0, 3))
        if k == 0:
            continue
        times = sorted(
            draw(
                st.lists(
                    st.floats(0.1, 1e4), min_size=k, max_size=k, unique=True
                )
            )
        )
        for i, t in enumerate(times):
            events.append((t, worker, "leave" if i % 2 == 0 else "join"))
    return MembershipSchedule(events, n_workers=n_workers)


@given(sched=churn_schedules(), t=st.floats(0, 2e4))
@settings(max_examples=150, deadline=None)
def test_active_set_is_subset_of_cluster(sched, t):
    active = sched.active_at(t)
    assert active <= set(range(6))


@given(sched=churn_schedules())
@settings(max_examples=100, deadline=None)
def test_everyone_active_at_time_zero_before_events(sched):
    first = min((e.time for e in sched.events), default=None)
    if first is None or first > 0:
        assert sched.active_at(0.0) == set(range(6))


@given(sched=churn_schedules())
@settings(max_examples=100, deadline=None)
def test_min_active_is_reachable_lower_bound(sched):
    lo = sched.min_active()
    probes = [0.0] + [e.time for e in sched.events]
    sizes = [len(sched.active_at(t)) for t in probes]
    assert lo == min(sizes)


@given(sched=churn_schedules(), t=st.floats(0, 2e4))
@settings(max_examples=100, deadline=None)
def test_active_at_matches_event_replay(sched, t):
    state = {w: True for w in range(6)}
    for ev in sched.events:
        if ev.time <= t:
            state[ev.worker] = ev.action == "join"
    assert sched.active_at(t) == {w for w, a in state.items() if a}


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
