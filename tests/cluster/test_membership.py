"""Membership changes scripted by chaos plans (the elastic-cluster
extension): a crash is a leave and its restart a join."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosPlan, CrashEvent

N_WORKERS = 6


def plan(*crashes):
    return ChaosPlan(crashes=[CrashEvent(*c) for c in crashes])


class TestCrashEvent:
    def test_valid(self):
        ev = CrashEvent(10.0, 2, restart_after=5.0)
        assert (ev.time, ev.worker, ev.restart_after) == (10.0, 2, 5.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CrashEvent(-1.0, 0)
        with pytest.raises(ValueError):
            CrashEvent(1.0, -1)
        with pytest.raises(ValueError):
            CrashEvent(1.0, 0, restart_after=0.0)


class TestMembershipReplay:
    def test_crashes_replay_as_leaves_and_joins(self):
        p = plan((10.0, 3, 40.0), (60.0, 1))
        assert p.membership_events() == [
            (10.0, 3, "leave"), (50.0, 3, "join"), (60.0, 1, "leave"),
        ]

    def test_min_active(self):
        p = plan((10.0, 1, 20.0), (20.0, 2))
        p.validate(4)  # two stay up at t=20
        with pytest.raises(ValueError, match="leaves 1 active worker"):
            p.validate(3)

    def test_state_after_each_instant_counts(self):
        # At t=20 worker 1 leaves before worker 2 rejoins ((time, worker)
        # order): the one-worker moment inside the instant is no dip.
        plan((10.0, 2, 10.0), (20.0, 1)).validate(3)

    def test_double_leave_rejected(self):
        with pytest.raises(ValueError, match="has no restart"):
            plan((10.0, 1), (20.0, 1))

    def test_out_of_range_worker(self):
        with pytest.raises(ValueError, match="only 3 workers"):
            plan((10.0, 7)).validate(3)

    def test_events_sorted_regardless_of_input_order(self):
        p = plan((50.0, 1, 10.0), (10.0, 2, 5.0))
        assert [e[0] for e in p.membership_events()] == [10.0, 15.0, 50.0, 60.0]

    def test_same_time_events_rejected_per_worker(self):
        with pytest.raises(ValueError, match="before its restart"):
            plan((10.0, 1, 5.0), (15.0, 1))

    def test_too_few_workers(self):
        with pytest.raises(ValueError):
            plan((1.0, 0, 5.0)).validate(2)


# ------------------------------------------------ properties over random plans
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
