"""Tests for the discrete-event clock."""

import pytest

from repro.cluster.simclock import SimClock


class TestScheduling:
    def test_events_fire_in_time_order(self):
        clk = SimClock()
        order = []
        clk.schedule(3.0, order.append, "c")
        clk.schedule(1.0, order.append, "a")
        clk.schedule(2.0, order.append, "b")
        clk.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        clk = SimClock()
        order = []
        for tag in "abcde":
            clk.schedule(1.0, order.append, tag)
        clk.run_until(1.0)
        assert order == list("abcde")

    def test_now_advances_with_events(self):
        clk = SimClock()
        seen = []
        clk.schedule(2.5, lambda: seen.append(clk.now))
        clk.run_until(5.0)
        assert seen == [2.5]
        assert clk.now == 5.0  # clock lands on the horizon

    def test_schedule_in_relative(self):
        clk = SimClock()
        fired = []
        clk.schedule(1.0, lambda: clk.schedule_in(0.5, lambda: fired.append(clk.now)))
        clk.run_until(2.0)
        assert fired == [1.5]

    def test_past_scheduling_rejected(self):
        clk = SimClock()
        clk.schedule(1.0, lambda: None)
        clk.run_until(1.0)
        with pytest.raises(ValueError):
            clk.schedule(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock().schedule_in(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        clk = SimClock()
        fired = []
        ev = clk.schedule(1.0, fired.append, "x")
        ev.cancel()
        clk.run_until(2.0)
        assert fired == []

    def test_peek_skips_cancelled(self):
        clk = SimClock()
        ev = clk.schedule(1.0, lambda: None)
        clk.schedule(2.0, lambda: None)
        ev.cancel()
        assert clk.peek_time() == 2.0

    def test_pending_counts_live_events(self):
        clk = SimClock()
        ev = clk.schedule(1.0, lambda: None)
        clk.schedule(2.0, lambda: None)
        ev.cancel()
        assert clk.pending() == 1


class TestRunControl:
    def test_run_until_leaves_future_events(self):
        clk = SimClock()
        fired = []
        clk.schedule(1.0, fired.append, 1)
        clk.schedule(5.0, fired.append, 5)
        n = clk.run_until(2.0)
        assert n == 1 and fired == [1]
        clk.run_until(10.0)
        assert fired == [1, 5]

    def test_events_may_schedule_events(self):
        clk = SimClock()
        count = []

        def chain(depth):
            count.append(depth)
            if depth < 5:
                clk.schedule_in(1.0, chain, depth + 1)

        clk.schedule(0.0, chain, 0)
        clk.run_until(100.0)
        assert count == [0, 1, 2, 3, 4, 5]

    def test_max_events_bounds_processing(self):
        clk = SimClock()
        for i in range(10):
            clk.schedule(float(i), lambda: None)
        n = clk.run_until(100.0, max_events=4)
        assert n == 4
        assert clk.pending() == 6

    def test_run_drains_everything(self):
        clk = SimClock()
        for i in range(7):
            clk.schedule(float(i), lambda: None)
        assert clk.run() == 7
        assert clk.pending() == 0

    def test_events_processed_counter(self):
        clk = SimClock()
        clk.schedule(1.0, lambda: None)
        clk.schedule(2.0, lambda: None)
        clk.run_until(5.0)
        assert clk.events_processed == 2


class TestPendingCounter:
    """The live-event count must stay exact through every path."""

    @pytest.fixture
    def clk(self):
        return SimClock()

    def test_cancel_then_pending(self, clk):
        evs = [clk.schedule(float(i), lambda: None) for i in range(5)]
        assert clk.pending() == 5
        evs[2].cancel()
        evs[4].cancel()
        assert clk.pending() == 3
        # Double-cancel must not decrement twice.
        evs[2].cancel()
        assert clk.pending() == 3
        clk.run()
        assert clk.pending() == 0

    def test_cancelled_head_drain(self, clk):
        """A cancelled head neither fires nor leaks from the counter."""
        head = clk.schedule(1.0, lambda: None)
        fired = []
        clk.schedule(2.0, fired.append, "live")
        head.cancel()
        assert clk.pending() == 1
        assert clk.peek_time() == 2.0  # drains the cancelled head
        assert clk.pending() == 1
        assert clk.run_until(3.0) == 1
        assert fired == ["live"] and clk.pending() == 0

    def test_cancel_fired_event_is_counter_neutral(self, clk):
        ev = clk.schedule(1.0, lambda: None)
        clk.schedule(2.0, lambda: None)
        clk.run_until(1.5)
        assert clk.pending() == 1
        ev.cancel()  # already fired: flag flips, counter untouched
        assert clk.pending() == 1

    def test_cancel_mid_batch(self, clk):
        """Cancelling a same-timestamp sibling from inside a callback."""
        fired = []
        evs = []

        def killer():
            fired.append("killer")
            evs[1].cancel()

        clk.schedule(1.0, killer)
        evs.append(None)
        evs.append(clk.schedule(1.0, fired.append, "victim"))
        clk.schedule(1.0, fired.append, "bystander")
        clk.run_until(1.0)
        assert fired == ["killer", "bystander"]
        assert clk.pending() == 0
