"""Event tracer: spans + instants in simulated time, Chrome trace JSON.

The tracer records what the simulation did and *when in simulated
seconds* it did it, in the Chrome trace event format — load the output
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``. The
mapping chosen here:

* one trace **process** per worker (pid = worker id, named
  ``worker <id>``), plus one pseudo-process for cluster-wide events
  (GBS changes, membership churn);
* one **thread** per subsystem inside each worker — iteration compute,
  sync-gate waits, outgoing network transfers, the DKT protocol, and
  the batch-size control plane (see the ``TID_*`` constants);
* simulated seconds map to trace microseconds (``ts = t * 1e6``), so
  the viewer's time axis reads directly in simulated time.

Everything is recorded through four primitives: :meth:`Tracer.complete`
(a span with an explicit start and duration — simulated time is known
exactly, so there is no begin/end pairing), :meth:`Tracer.instant`,
:meth:`Tracer.counter` (a numeric timeline, rendered as a track), and
the process/thread naming metadata.

:data:`NULL_TRACER` is the default wired into the engine: every method
is a no-op and ``enabled`` is ``False``, so instrumentation sites guard
argument construction with ``if tracer.enabled:`` and the untraced hot
path pays a single attribute check.

The tracer is deterministic: it never reads wall time, and events are
kept in emission order, so two runs of the same ``(config, topology,
seed)`` produce byte-identical output.

Unlike the profiler, the tracer holds **no** module-global active state
— every instrumentation site reaches its tracer through an explicit
reference (``engine.tracer`` / ``worker.tracer``) — and emission is
single-threaded by construction: all trace calls happen inside event
handlers on the event-loop thread.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TID_ITER",
    "TID_SYNC",
    "TID_NET",
    "TID_DKT",
    "TID_CTRL",
    "THREAD_NAMES",
]

# Per-worker subsystem threads. Fixed ids keep traces comparable across
# runs and give the report tool stable group keys.
TID_ITER = 0  # gradient-computation iterations
TID_SYNC = 1  # sync-gate wait intervals
TID_NET = 2  # outgoing link transfers
TID_DKT = 3  # direct-knowledge-transfer protocol rounds
TID_CTRL = 4  # batch-size / control-plane activity

THREAD_NAMES: Mapping[int, str] = {
    TID_ITER: "iterate",
    TID_SYNC: "sync-wait",
    TID_NET: "net-out",
    TID_DKT: "dkt",
    TID_CTRL: "control",
}


def _us(t_s: float) -> float:
    """Simulated seconds -> trace microseconds (ns-rounded for stability)."""
    return round(t_s * 1e6, 3)


class Tracer:
    """Collects Chrome-trace events over one simulation run."""

    enabled = True

    def __init__(self) -> None:
        # Metadata first so viewers name processes before any event.
        self._meta: list[dict] = []
        self._events: list[dict] = []
        self._named: set[tuple] = set()

    # -- naming --------------------------------------------------------
    def set_process_name(self, pid: int, name: str) -> None:
        """Name a trace process (one per worker / the cluster)."""
        key = ("p", pid)
        if key in self._named:
            return
        self._named.add(key)
        self._meta.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )

    def set_thread_name(self, pid: int, tid: int, name: str) -> None:
        """Name a subsystem thread inside a process."""
        key = ("t", pid, tid)
        if key in self._named:
            return
        self._named.add(key)
        self._meta.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )

    # -- events --------------------------------------------------------
    def complete(
        self,
        name: str,
        pid: int,
        tid: int,
        start_s: float,
        dur_s: float,
        *,
        cat: str = "sim",
        args: dict[str, Any] | None = None,
    ) -> None:
        """A span ``[start_s, start_s + dur_s]`` in simulated seconds."""
        ev = {
            "ph": "X",
            "name": name,
            "cat": cat,
            "pid": pid,
            "tid": tid,
            "ts": _us(start_s),
            "dur": _us(max(dur_s, 0.0)),
        }
        if args:
            ev["args"] = args
        self._events.append(ev)

    def instant(
        self,
        name: str,
        pid: int,
        tid: int,
        t_s: float,
        *,
        cat: str = "sim",
        args: dict[str, Any] | None = None,
        scope: str = "t",
    ) -> None:
        """A zero-duration marker (``scope``: t=thread, p=process, g=global)."""
        ev = {
            "ph": "i",
            "name": name,
            "cat": cat,
            "pid": pid,
            "tid": tid,
            "ts": _us(t_s),
            "s": scope,
        }
        if args:
            ev["args"] = args
        self._events.append(ev)

    def counter(
        self, name: str, pid: int, t_s: float, values: Mapping[str, float]
    ) -> None:
        """A sample on a numeric timeline (GBS / LBS / queue depth)."""
        self._events.append(
            {"ph": "C", "name": name, "pid": pid, "tid": 0, "ts": _us(t_s),
             "args": dict(values)}
        )

    # -- merging -------------------------------------------------------
    def ingest(self, events: list[dict]) -> None:
        """Fold another tracer's :meth:`events` output into this one.

        Used by the live backend to merge per-process child traces into
        the parent's document. Metadata records (``ph == "M"``) are
        deduplicated by (kind, pid[, tid]) like locally-emitted naming;
        everything else is appended in the given order.
        """
        for ev in events:
            if ev.get("ph") == "M":
                if ev.get("name") == "process_name":
                    key = ("p", ev["pid"])
                elif ev.get("name") == "thread_name":
                    key = ("t", ev["pid"], ev.get("tid", 0))
                else:
                    self._meta.append(ev)
                    continue
                if key in self._named:
                    continue
                self._named.add(key)
                self._meta.append(ev)
            else:
                self._events.append(ev)

    # -- export --------------------------------------------------------
    def events(self) -> list[dict]:
        """All recorded events, metadata first, in emission order."""
        return self._meta + self._events

    def delta_events(self, cursor: int) -> tuple[list[dict], int]:
        """Events recorded since ``cursor``, plus the new cursor.

        The incremental counterpart of :meth:`events`, used by the live
        backend's delta shipping: each call returns every non-metadata
        event appended since the previous cursor, prefixed with the
        *full* metadata list (ingest deduplicates metadata, so resending
        it is idempotent and keeps any partial stream self-describing).
        Pass ``0`` for the first call and the returned cursor thereafter.
        """
        fresh = self._events[cursor:]
        if not fresh:
            return [], len(self._events)
        return self._meta + fresh, len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def to_json(self) -> dict:
        """The full Chrome-trace document."""
        return {"displayTimeUnit": "ms", "traceEvents": self.events()}

    def dumps(self) -> str:
        """The trace serialized as a JSON string (deterministic bytes)."""
        return json.dumps(self.to_json(), separators=(",", ":"))

    def write(self, path: str | pathlib.Path) -> None:
        """Write the trace JSON to ``path``."""
        pathlib.Path(path).write_text(self.dumps())


class NullTracer:
    """The default tracer: records nothing, costs one attribute check."""

    enabled = False

    def set_process_name(self, pid: int, name: str) -> None:
        """No-op."""

    def set_thread_name(self, pid: int, tid: int, name: str) -> None:
        """No-op."""

    def complete(self, *a, **kw) -> None:
        """No-op."""

    def instant(self, *a, **kw) -> None:
        """No-op."""

    def counter(self, *a, **kw) -> None:
        """No-op."""

    def events(self) -> list[dict]:
        """Always empty."""
        return []

    def delta_events(self, cursor: int) -> tuple[list[dict], int]:
        """Always empty; the cursor never advances."""
        return [], 0

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
