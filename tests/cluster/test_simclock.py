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

    def test_ties_never_compare_callables_or_args(self):
        """1,000 same-time events whose callables and args refuse ``<``
        and ``==`` still fire in scheduling order: heap comparisons stop
        at the unique ``seq``."""

        class Opaque:
            def __lt__(self, other):
                raise AssertionError("compared with <")

            __gt__ = __le__ = __ge__ = __eq__ = __ne__ = __lt__
            __hash__ = object.__hash__

        class Recorder(Opaque):
            def __init__(self, i):
                self.i = i

            def __call__(self, arg):
                order.append(self.i)

        clk = SimClock()
        order = []
        for i in range(1000):
            clk.schedule(1.0, Recorder(i), Opaque())
        assert clk.run_until(1.0) == 1000
        assert order == list(range(1000))


class TestCancellation:
    """There is no cancellation: a scheduled event stays pending until
    it fires."""

    def test_pending_counts_live_events(self):
        clk = SimClock()
        clk.schedule(1.0, lambda: None)
        clk.schedule(2.0, lambda: None)
        assert clk.pending() == 2
        clk.run_until(1.5)
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
