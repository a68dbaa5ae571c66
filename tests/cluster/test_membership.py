"""Membership changes scripted by chaos plans (the elastic-cluster
extension): a crash is a leave and its restart a join."""

import pytest

from repro.cluster.chaos import ChaosPlan, CrashEvent


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
