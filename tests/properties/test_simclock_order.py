"""Property suite: ``SimClock`` against a ``sorted((time, seq))`` oracle.

The oracle states the scheduler's contract executably: it keeps every
scheduled callback in a plain list and, before each firing, re-sorts
them by ``(time, seq)``. Random interleavings of ``schedule`` /
``schedule_in`` / ``run_until`` / ``run`` are applied to a
:class:`SimClock` and the oracle in lockstep. After every operation the
two must agree on the firing log (which callbacks fired, in what order,
at what ``now``), the ``now`` trajectory, ``events_processed``,
``pending()``, and ``peek_time()``. Timestamps are drawn from a
tie-prone grid plus arbitrary floats, so same-timestamp runs,
horizon-boundary events, and events scheduled *during* a
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
        st.tuples(st.just("run_until"), GRID_TIMES),
        st.tuples(st.just("run_until_capped"), GRID_TIMES,
                  st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("past"), st.just(0.0)),
    ),
    max_size=60,
)


class _OracleClock:
    """The contract, stated the slow way: sort, fire the first, repeat."""

    def __init__(self) -> None:
        self.queue: list[tuple] = []  # (time, seq, fn, args)
        self.seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, time, fn, *args):
        if time < self.now - 1e-12:
            raise ValueError("past")
        time = max(time, self.now)
        self.queue.append((time, self.seq, fn, args))
        self.seq += 1

    def schedule_in(self, delay, fn, *args):
        if delay < 0:
            raise ValueError("negative delay")
        self.schedule(self.now + delay, fn, *args)

    def _sorted(self) -> list[tuple]:
        return sorted(self.queue, key=lambda e: (e[0], e[1]))

    def peek_time(self):
        queue = self._sorted()
        return queue[0][0] if queue else None

    def pending(self) -> int:
        return len(self.queue)

    def _fire_next(self, horizon: float) -> bool:
        queue = self._sorted()
        if not queue or queue[0][0] > horizon:
            return False
        entry = queue[0]
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
        self.label = 0

    def _record(self, label: str) -> None:
        self.log.append((label, self.clock.now))

    def _chain(self, label: str, t: float) -> None:
        # Fires mid-tie: schedules a same-time event (must run in this
        # same pass, after the rest of the tie) and a later one.
        self.log.append((label, self.clock.now))
        self.clock.schedule(t, self._record, label + "/same")
        self.clock.schedule(t + 0.5, self._record, label + "/later")

    def apply(self, op: tuple):
        kind = op[0]
        clock = self.clock
        self.label += 1
        label = f"e{self.label}"
        if kind == "schedule":
            t = max(op[1], clock.now)
            clock.schedule(t, self._record, label)
        elif kind == "schedule_in":
            clock.schedule_in(op[1], self._record, label)
        elif kind == "schedule_now":
            clock.schedule(clock.now, self._record, label)
        elif kind == "chain":
            t = max(op[1], clock.now)
            clock.schedule(t, self._chain, label, t)
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
        clock.schedule(1.0 - 1e-13, drv._record, "clamped")
        assert clock.peek_time() == 1.0
        assert clock.run_until(1.0) == 1
        assert drv.log[-1] == ("clamped", 1.0)
        with pytest.raises(ValueError):
            clock.schedule_in(-0.1, drv._record, "negative")


@pytest.mark.parametrize("cap", [0, -3])
def test_run_with_non_positive_cap_fires_nothing(cap):
    for drv in _both():
        clock = drv.clock
        clock.schedule(1.0, drv._record, "x")
        assert clock.run(max_events=cap) == 0
        assert drv.log == [] and clock.now == 0.0
        assert clock.pending() == 1 and clock.events_processed == 0
