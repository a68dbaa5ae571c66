"""Property suite: ``SimClock`` against a ``sorted((time, seq))`` oracle.

The oracle states the scheduler's contract executably: it keeps every
scheduled callback in a plain list and, before each firing, re-sorts the
live ones by ``(time, seq)``. Random interleavings of ``schedule`` /
``schedule_in`` / ``cancel`` / ``run_until`` / ``run`` are applied to a
:class:`SimClock` and the oracle in lockstep. After every operation the
two must agree on the firing log (which callbacks fired, in what order,
at what ``now``), the ``now`` trajectory, ``events_processed``,
``pending()``, and ``peek_time()``. Timestamps are drawn from a
tie-prone grid plus arbitrary floats, so same-timestamp runs, cancelled
heads, horizon-boundary events, and events scheduled *during* a
same-time run are all exercised; the past-schedule rejection must raise
on both identically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import SimClock

# A coarse grid makes equal timestamps (and horizons landing exactly on
# event times) common instead of measure-zero.
GRID_TIMES = st.integers(min_value=0, max_value=160).map(lambda k: k * 0.25)
ANY_TIMES = st.one_of(
    GRID_TIMES,
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False,
              allow_infinity=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), ANY_TIMES),
        st.tuples(st.just("schedule_in"),
                  st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                            allow_infinity=False)),
        # Same-instant scheduling: a guaranteed tie with `now`.
        st.tuples(st.just("schedule_now"), st.just(0.0)),
        # A callback that schedules more work when it fires — including
        # at its *own* timestamp, mid-tie.
        st.tuples(st.just("chain"), ANY_TIMES),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("run_until"), GRID_TIMES),
        st.tuples(st.just("run_until_capped"), GRID_TIMES,
                  st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("past"), st.just(0.0)),
    ),
    max_size=60,
)


class _Handle:
    def __init__(self, time: float):
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _OracleClock:
    """The contract, stated the slow way: sort, fire the first, repeat."""

    def __init__(self) -> None:
        self.queue: list[tuple] = []  # (time, seq, fn, args, handle)
        self.seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, time, fn, *args):
        if time < self.now - 1e-12:
            raise ValueError("past")
        time = max(time, self.now)
        handle = _Handle(time)
        self.queue.append((time, self.seq, fn, args, handle))
        self.seq += 1
        return handle

    def schedule_in(self, delay, fn, *args):
        if delay < 0:
            raise ValueError("negative delay")
        return self.schedule(self.now + delay, fn, *args)

    def _live(self) -> list[tuple]:
        live = [e for e in self.queue if not e[4].cancelled]
        return sorted(live, key=lambda e: (e[0], e[1]))

    def peek_time(self):
        live = self._live()
        return live[0][0] if live else None

    def pending(self) -> int:
        return len(self._live())

    def _fire_next(self, horizon: float) -> bool:
        live = self._live()
        if not live or live[0][0] > horizon:
            return False
        entry = live[0]
        self.queue.remove(entry)
        self.now = entry[0]
        entry[2](*entry[3])
        self.events_processed += 1
        return True

    def run_until(self, horizon, *, max_events=None) -> int:
        fired = 0
        while self._fire_next(horizon):
            fired += 1
            if max_events is not None and fired >= max_events:
                return fired  # capped: the clock stays at the last event
        self.now = max(self.now, horizon)
        return fired

    def run(self, *, max_events=10_000_000) -> int:
        fired = 0
        while fired < max_events and self._fire_next(float("inf")):
            fired += 1
        return fired


class _Driver:
    """Applies one op stream to one clock, recording every firing."""

    def __init__(self, clock):
        self.clock = clock
        self.log: list[tuple[str, float]] = []
        self.events: list = []
        self.label = 0

    def _record(self, label: str) -> None:
        self.log.append((label, self.clock.now))

    def _chain(self, label: str, t: float) -> None:
        # Fires mid-tie: schedules a same-time event (must run in this
        # same pass, after the rest of the tie) and a later one.
        self.log.append((label, self.clock.now))
        self.events.append(
            self.clock.schedule(t, self._record, label + "/same"))
        self.events.append(
            self.clock.schedule(t + 0.5, self._record, label + "/later"))

    def apply(self, op: tuple):
        kind = op[0]
        clock = self.clock
        self.label += 1
        label = f"e{self.label}"
        if kind == "schedule":
            t = max(op[1], clock.now)
            self.events.append(clock.schedule(t, self._record, label))
        elif kind == "schedule_in":
            self.events.append(clock.schedule_in(op[1], self._record, label))
        elif kind == "schedule_now":
            self.events.append(clock.schedule(clock.now, self._record, label))
        elif kind == "chain":
            t = max(op[1], clock.now)
            self.events.append(clock.schedule(t, self._chain, label, t))
        elif kind == "cancel":
            if self.events:
                self.events[op[1] % len(self.events)].cancel()
        elif kind == "run_until":
            return clock.run_until(clock.now + op[1])
        elif kind == "run_until_capped":
            return clock.run_until(clock.now + op[1], max_events=op[2])
        elif kind == "run":
            return clock.run(max_events=op[1])
        elif kind == "past":
            t = clock.now - 1.0
            if t >= 0:
                with pytest.raises(ValueError):
                    clock.schedule(t, self._record, label)
        else:  # pragma: no cover
            raise AssertionError(kind)
        return None


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_simclock_matches_sorted_oracle(ops):
    """Every interleaving: identical observable behaviour on both."""
    real = _Driver(SimClock())
    oracle = _Driver(_OracleClock())
    for op in ops:
        r_real = real.apply(op)
        r_oracle = oracle.apply(op)
        assert r_real == r_oracle, (op, r_real, r_oracle)
        assert real.log == oracle.log
        assert real.clock.now == oracle.clock.now
        assert real.clock.events_processed == oracle.clock.events_processed
        assert real.clock.pending() == oracle.clock.pending()
        assert real.clock.peek_time() == oracle.clock.peek_time()
    # Drain both to the end: the tails must agree too.
    assert real.clock.run() == oracle.clock.run()
    assert real.log == oracle.log
    assert real.clock.now == oracle.clock.now
    assert real.clock.pending() == oracle.clock.pending() == 0


def _both():
    return _Driver(SimClock()), _Driver(_OracleClock())


def test_cancelled_events_never_fire_and_leave_the_count():
    for drv in _both():
        clock = drv.clock
        keep = clock.schedule(1.0, drv._record, "keep")
        drop = clock.schedule(1.0, drv._record, "drop")
        drop.cancel()
        drop.cancel()  # idempotent
        assert clock.pending() == 1
        assert clock.run_until(2.0) == 1
        assert drv.log == [("keep", 1.0)]
        keep.cancel()  # after firing: no effect on the queue
        assert clock.pending() == 0 and clock.events_processed == 1


def test_cap_hit_mid_tie_resumes_in_schedule_order():
    for drv in _both():
        clock = drv.clock
        for tag in "abcde":
            clock.schedule(1.0, drv._record, tag)
        assert clock.run_until(5.0, max_events=2) == 2
        # Capped: the clock stays on the tie, not on the horizon.
        assert clock.now == 1.0
        assert clock.pending() == 3 and clock.peek_time() == 1.0
        # An event scheduled now at the same instant queues behind the tie.
        clock.schedule(1.0, drv._record, "f")
        assert clock.run_until(5.0) == 4
        assert [tag for tag, _ in drv.log] == list("abcdef")
        assert {t for _, t in drv.log} == {1.0}
        assert clock.now == 5.0


def test_schedule_at_now_clamps_float_noise_and_rejects_the_past():
    for drv in _both():
        clock = drv.clock
        clock.schedule(1.0, drv._record, "first")
        clock.run_until(1.0)
        with pytest.raises(ValueError):
            clock.schedule(0.5, drv._record, "past")
        # Within the float-noise tolerance: clamped to now, not rejected.
        ev = clock.schedule(1.0 - 1e-13, drv._record, "clamped")
        assert ev.time == 1.0
        assert clock.peek_time() == 1.0
        assert clock.run_until(1.0) == 1
        assert drv.log[-1] == ("clamped", 1.0)
        with pytest.raises(ValueError):
            clock.schedule_in(-0.1, drv._record, "negative")


def test_peek_time_after_cancel_skips_to_the_next_live_event():
    for drv in _both():
        clock = drv.clock
        assert clock.peek_time() is None
        head = clock.schedule(1.0, drv._record, "head")
        tie = clock.schedule(1.0, drv._record, "tie")
        clock.schedule(3.0, drv._record, "tail")
        head.cancel()
        assert clock.peek_time() == 1.0  # the tie is still live
        tie.cancel()
        assert clock.peek_time() == 3.0
        assert clock.pending() == 1
        assert clock.run() == 1
        assert clock.peek_time() is None
        assert drv.log == [("tail", 3.0)]


@pytest.mark.parametrize("cap", [0, -3])
def test_run_with_non_positive_cap_fires_nothing(cap):
    for drv in _both():
        clock = drv.clock
        clock.schedule(1.0, drv._record, "x")
        assert clock.run(max_events=cap) == 0
        assert drv.log == [] and clock.now == 0.0
        assert clock.pending() == 1 and clock.events_processed == 0
