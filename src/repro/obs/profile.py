"""Wall-clock profiling hooks for the simulator's real hot paths.

Unlike :mod:`repro.obs.trace` (simulated time), this measures where the
**wall clock** goes: NumPy forward/backward passes, Max-N payload
selection, and event-loop dispatch. ``BENCH_*`` runs and the CLI's
``--profile`` flag use it to attribute runtime to subsystems and pick
the next optimisation target.

Instrumentation sites call the module-level :func:`scope`::

    with profile.scope("nn/loss_and_grads"):
        ...

which resolves the *active* profiler at entry. With no active profiler
(the default) it returns a shared no-op context manager — one function
call and a ``None`` check, no ``perf_counter`` — so always-on
instrumentation costs effectively nothing. Activate a profiler for a
region with::

    prof = Profiler()
    with activate(prof):
        engine.run(...)
    print(prof.report())

The active profiler lives in a :class:`contextvars.ContextVar`, so a
scope entered on another thread attributes to the profiler of the
context that thread runs in instead of racing on a module global.
Recording itself takes a lock.

Scope **totals** are inclusive: a scope's total contains any scopes
entered beneath it on the same thread. Each scope additionally tracks
its **self** (exclusive) time — total minus the time spent in child
scopes — so ``simclock/dispatch`` can report pure dispatch overhead
separate from the nn/ and maxn/ work running inside event callbacks.
Parent/child nesting is tracked per *thread* (``threading.local``), not
per context: a context copied onto another thread would otherwise alias
one frame list across threads. A scope running on another thread is a
root on that thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator

__all__ = ["Profiler", "activate", "active_profiler", "scope", "set_active"]


class _NullScope:
    """Shared do-nothing context manager for the profiling-off path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()

# The active profiler for the *current context*. A ContextVar (not a
# module global) so a copied context carries the profiler onto another
# thread, and nested ``activate`` blocks restore the previous profiler
# on exit.
_active: ContextVar["Profiler | None"] = ContextVar("repro_active_profiler", default=None)

# Frame layout (plain list, no attribute lookups on the hot path):
_F_NAME, _F_T0, _F_CHILD = 0, 1, 2


class _Scope:
    """A running timed scope; records into its profiler on exit."""

    __slots__ = ("profiler", "name", "_frame")

    def __init__(self, profiler: "Profiler", name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self):
        self._frame = self.profiler.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.profiler.end(self._frame)
        return False


class Profiler:
    """Aggregates wall-clock seconds per named scope (thread-safe)."""

    enabled = True

    def __init__(self) -> None:
        # name -> [calls, total_seconds, child_seconds]
        self._totals: dict[str, list] = {}
        # Recording is a read-modify-write; threads may record
        # concurrently.
        self._lock = threading.Lock()
        # Per-thread stack of open frames for parent/child attribution.
        self._frames = threading.local()

    # -- frame API (used by _Scope and by SimClock's pump loop) --------

    def begin(self, name: str) -> list:
        """Open a frame for ``name`` on this thread; returns the frame.

        Pass the frame back to :meth:`end`. Frames on the same thread
        nest; the elapsed time of a child is charged against the
        parent's self time.
        """
        stack = getattr(self._frames, "stack", None)
        if stack is None:
            stack = self._frames.stack = []
        frame = [name, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list, calls: int = 1) -> None:
        """Close ``frame``, recording its inclusive and self time."""
        elapsed = perf_counter() - frame[_F_T0]
        stack = self._frames.stack
        # Unwind to this frame (robust to a callback leaking a scope).
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1][_F_CHILD] += elapsed
        child = frame[_F_CHILD]
        if child > elapsed:  # clock skew guard; self time is never < 0
            child = elapsed
        with self._lock:
            entry = self._totals.get(frame[_F_NAME])
            if entry is None:
                self._totals[frame[_F_NAME]] = [calls, elapsed, child]
            else:
                entry[0] += calls
                entry[1] += elapsed
                entry[2] += child

    def scope(self, name: str) -> _Scope:
        """A context manager timing one entry of ``name``."""
        return _Scope(self, name)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record ``seconds`` of wall time (and ``calls`` entries).

        The time is treated as a leaf measurement: it is charged as
        child time to the innermost open frame on this thread, if any.
        """
        stack = getattr(self._frames, "stack", None)
        if stack:
            stack[-1][_F_CHILD] += seconds
        with self._lock:
            entry = self._totals.get(name)
            if entry is None:
                self._totals[name] = [calls, seconds, 0.0]
            else:
                entry[0] += calls
                entry[1] += seconds

    # -- accessors -----------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, total_seconds)}`` for every scope seen.

        Totals are inclusive of nested scopes (historical shape, kept
        for compatibility); see :meth:`self_totals` for exclusive time.
        """
        with self._lock:
            return {name: (c, s) for name, (c, s, _child) in self._totals.items()}

    def self_totals(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self_seconds)}`` — time *exclusive* of child scopes."""
        with self._lock:
            return {name: (c, s - child) for name, (c, s, child) in self._totals.items()}

    def total(self, name: str) -> float:
        """Total (inclusive) wall seconds recorded under ``name`` (0.0 if unseen)."""
        with self._lock:
            entry = self._totals.get(name)
            return entry[1] if entry else 0.0

    def self_total(self, name: str) -> float:
        """Self (exclusive) wall seconds recorded under ``name`` (0.0 if unseen)."""
        with self._lock:
            entry = self._totals.get(name)
            return entry[1] - entry[2] if entry else 0.0

    def report(self) -> str:
        """A text table of scopes sorted by total wall time (descending).

        ``total s`` is inclusive of nested scopes, so that column does
        not sum to the run's wall time; ``self s`` (total minus child
        scopes entered on the same thread) does, per thread.
        """
        with self._lock:
            totals = {name: tuple(entry) for name, entry in self._totals.items()}
        if not totals:
            return "profile: no scopes recorded"
        rows = sorted(totals.items(), key=lambda kv: -kv[1][1])
        width = max(len("scope"), max(len(n) for n, _ in rows))
        lines = [
            f"{'scope'.ljust(width)}  {'calls':>9}  {'total s':>10}  {'self s':>10}  {'mean ms':>10}",
            f"{'-' * width}  {'-' * 9}  {'-' * 10}  {'-' * 10}  {'-' * 10}",
        ]
        for name, (calls, total, child) in rows:
            mean_ms = (total / calls) * 1e3 if calls else 0.0
            lines.append(
                f"{name.ljust(width)}  {calls:>9d}  {total:>10.4f}  {total - child:>10.4f}  {mean_ms:>10.4f}"
            )
        return "\n".join(lines)


def set_active(profiler: Profiler | None) -> Profiler | None:
    """Install ``profiler`` as the context's target; returns the previous one."""
    previous = _active.get()
    _active.set(profiler)
    return previous


def active_profiler() -> Profiler | None:
    """The currently active profiler, or None when profiling is off."""
    return _active.get()


@contextmanager
def activate(profiler: Profiler) -> Iterator[Profiler]:
    """Make ``profiler`` active for the duration of the block."""
    token = _active.set(profiler)
    try:
        yield profiler
    finally:
        _active.reset(token)


def scope(name: str):
    """Time ``name`` against the active profiler (no-op when none)."""
    profiler = _active.get()
    if profiler is None:
        return _NULL_SCOPE
    return _Scope(profiler, name)
