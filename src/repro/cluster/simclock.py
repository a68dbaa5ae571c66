"""Discrete-event simulation clock.

One binary heap of ``(time, seq, fn, args)`` tuples over simulated
seconds. ``seq`` is a monotonically increasing sequence number assigned
at ``schedule`` time, so ``(time, seq)`` is unique: heap comparisons
stay on C-level float/int tuple items and never reach ``fn`` or
``args``.

Determinism contract: events fire in exact ``(time, seq)`` order — by
timestamp, ties by scheduling order — and the clock never reads wall
time, so every run is bit-deterministic, a prerequisite for the seeded
experiment sweeps.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["SimClock"]


class SimClock:
    """The simulation driver.

    ``schedule`` registers a callback at an absolute simulated time (or
    ``schedule_in`` relative to now); ``run_until`` pumps events in
    timestamp order until the horizon. Callbacks may schedule further
    events. A scheduled event always fires: there is no cancellation.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Register ``fn(*args)`` to fire at absolute simulated ``time``."""
        now = self._now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(
                    f"cannot schedule event in the past: {time} < {now}"
                )
            time = now  # float noise: clamp instead of rejecting
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def schedule_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Register ``fn(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.schedule(self._now + delay, fn, *args)

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or None if empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def _pump(self, horizon: float, max_events: int | None) -> tuple[int, bool]:
        """Fire events with ``time <= horizon``; ``(count, hit the cap)``."""
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= horizon:
            t, _seq, fn, args = heappop(heap)
            self._now = t
            fn(*args)
            processed += 1
            self.events_processed += 1
            if max_events is not None and processed >= max_events:
                return processed, True
        return processed, False

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Process events with ``time <= horizon``; returns the count.

        The clock is left at ``horizon`` (or at the last event if
        ``max_events`` stopped the pump early).
        """
        processed, capped = self._pump(horizon, max_events)
        if not capped:
            self._now = max(self._now, horizon)
        return processed

    def run(self, *, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        if max_events <= 0:
            return 0
        return self._pump(float("inf"), max_events)[0]

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
