"""Declarative fault plans shared by both backends (chaos engineering).

A :class:`ChaosPlan` scripts *what goes wrong and when* in one place:

* **crash events** — a worker dies at a modelled time and (optionally)
  comes back ``restart_after`` modelled seconds later;
* **link faults** — a directed (or bidirectional) link suffers a
  *blackout* (every message sent inside the window is lost), random
  *drop* (each message lost with ``probability``), or added *delay*
  (``delay_s`` modelled seconds of extra latency) for a window.

A crash is a leave and its restart a join, through the worker host's one
membership pair (``WorkerHost._leave`` / ``_join``): the simulator books
them on its event heap, so a plan is seed-deterministic. On the live
backend each victim books its own crashes on its modelled clock and
SIGKILLs itself at the crash time, after every other event due then;
its peers declare it dead (a leave), and the supervisor respawns it at
``time + restart_after`` (a join on every host). On both, the worker
host's one send path (``WorkerHost._send``) consults a
:class:`LinkFaultInjector` on every worker message.

All times are **modelled seconds** on both backends' event heaps, so
one plan file drives sim and proc runs identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["CrashEvent", "LinkFault", "ChaosPlan", "LinkFaultInjector"]

_FAULT_KINDS = ("blackout", "drop", "delay")


@dataclass(frozen=True)
class CrashEvent:
    """One worker crash, optionally followed by a supervised restart."""

    time: float
    worker: int
    restart_after: float | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"crash time must be >= 0, got {self.time}")
        if self.worker < 0:
            raise ValueError(f"crash worker id must be >= 0, got {self.worker}")
        if self.restart_after is not None and self.restart_after <= 0:
            raise ValueError(
                f"restart_after must be > 0 (or omitted), got {self.restart_after}"
            )


@dataclass(frozen=True)
class LinkFault:
    """One fault window on a directed link (``bidirectional`` mirrors it)."""

    kind: str
    start: float
    duration: float
    src: int
    dst: int
    probability: float = 1.0
    delay_s: float = 0.0
    bidirectional: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"link fault kind must be one of {_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                "link fault needs start >= 0 and duration > 0, got "
                f"start={self.start} duration={self.duration}"
            )
        if self.src == self.dst:
            raise ValueError(f"link fault src == dst ({self.src})")
        if min(self.src, self.dst) < 0:
            raise ValueError("link endpoints must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1], got {self.probability}"
            )
        if self.kind == "delay" and self.delay_s <= 0:
            raise ValueError(f"delay fault needs delay_s > 0, got {self.delay_s}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, src: int, dst: int) -> bool:
        """Whether this fault applies to the directed link ``src -> dst``."""
        if (self.src, self.dst) == (src, dst):
            return True
        return self.bidirectional and (self.dst, self.src) == (src, dst)


@dataclass(frozen=True)
class ChaosPlan:
    """A validated set of crash events and link-fault windows."""

    crashes: tuple[CrashEvent, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        # Per-worker crash narratives must not overlap: a worker that is
        # down (no restart, or restart still pending) cannot crash again.
        by_worker: dict[int, list[CrashEvent]] = {}
        for c in self.crashes:
            by_worker.setdefault(c.worker, []).append(c)
        for worker, events in by_worker.items():
            events.sort(key=lambda c: c.time)
            for prev, nxt in zip(events, events[1:]):
                if prev.restart_after is None:
                    raise ValueError(
                        f"worker {worker} crashes again at t={nxt.time} but "
                        f"the crash at t={prev.time} has no restart"
                    )
                if nxt.time <= prev.time + prev.restart_after:
                    raise ValueError(
                        f"worker {worker} crashes at t={nxt.time} before its "
                        f"restart at t={prev.time + prev.restart_after} completes"
                    )

    def validate(self, n_workers: int) -> None:
        """Check the plan against the cluster size: every worker id and
        link endpoint must exist, so a plan written for a bigger cluster
        fails loudly with an actionable message instead of silently
        targeting nobody, and at least two workers stay active after
        every instant's crashes and restarts.
        """
        for c in self.crashes:
            if c.worker >= n_workers:
                raise ValueError(
                    f"chaos plan crashes worker {c.worker} but the cluster "
                    f"has only {n_workers} workers (ids 0..{n_workers - 1})"
                )
        for f in self.link_faults:
            for endpoint in (f.src, f.dst):
                if endpoint >= n_workers:
                    raise ValueError(
                        f"chaos plan faults link {f.src}->{f.dst} but the "
                        f"cluster has only {n_workers} workers "
                        f"(ids 0..{n_workers - 1})"
                    )
        events = self.membership_events()
        active = n_workers
        for i, (t, _, action) in enumerate(events):
            active += 1 if action == "join" else -1
            instant_done = i + 1 == len(events) or events[i + 1][0] != t
            if instant_done and active < 2:
                raise ValueError(
                    f"chaos plan leaves {active} active worker(s) at t={t}; "
                    "at least two must stay up"
                )

    # ------------------------------------------------------------------
    # Construction from JSON
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        if not isinstance(data, dict):
            raise ValueError("chaos plan must be a JSON object")
        unknown = set(data) - {"crashes", "link_faults"}
        if unknown:
            raise ValueError(
                f"unknown chaos plan keys {sorted(unknown)}; "
                "expected 'crashes' and/or 'link_faults'"
            )
        crashes = []
        for i, entry in enumerate(data.get("crashes", [])):
            try:
                crashes.append(CrashEvent(**entry))
            except TypeError as exc:
                raise ValueError(f"bad crash entry #{i}: {exc}") from None
        faults = []
        for i, entry in enumerate(data.get("link_faults", [])):
            try:
                faults.append(LinkFault(**entry))
            except TypeError as exc:
                raise ValueError(f"bad link_fault entry #{i}: {exc}") from None
        return cls(crashes=tuple(crashes), link_faults=tuple(faults))

    @classmethod
    def from_file(cls, path: str) -> "ChaosPlan":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def membership_events(self) -> list[tuple[float, int, str]]:
        """Crashes as ``(time, worker, "leave")`` and restarts as
        ``(time, worker, "join")``, in ``(time, worker)`` order — the
        order the simulator applies them in."""
        events: list[tuple[float, int, str]] = []
        for c in self.crashes:
            events.append((c.time, c.worker, "leave"))
            if c.restart_after is not None:
                events.append((c.time + c.restart_after, c.worker, "join"))
        return sorted(events, key=lambda e: e[:2])

    def blackout_windows(self) -> list[LinkFault]:
        """The blackout faults (for partition-gauge bookkeeping)."""
        return [f for f in self.link_faults if f.kind == "blackout"]

    def has_restarts(self) -> bool:
        """Whether any crash event schedules a supervised restart."""
        return any(c.restart_after is not None for c in self.crashes)


class LinkFaultInjector:
    """Deterministic per-message verdicts for a plan's link faults.

    ``on_send(src, dst, t)`` returns ``None`` when the message must be
    dropped (blackout window, or a drop window's coin flip) and the
    extra modelled delay (``>= 0.0``) otherwise. The rng is consumed
    *only* inside drop windows, so attaching an injector to a run whose
    plan has no drop faults perturbs no other random stream.
    """

    def __init__(self, plan: ChaosPlan, rng):
        self._faults = plan.link_faults
        self._rng = rng

    def on_send(self, src: int, dst: int, t: float) -> float | None:
        """Verdict for one message: ``None`` = drop, else extra delay."""
        delay = 0.0
        for f in self._faults:
            if not (f.start <= t < f.end) or not f.covers(src, dst):
                continue
            if f.kind == "blackout":
                return None
            if f.kind == "drop":
                if float(self._rng.random()) < f.probability:
                    return None
            elif f.kind == "delay":
                delay += f.delay_s
        return delay
