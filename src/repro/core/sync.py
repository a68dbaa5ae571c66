"""Training synchronization strategies (§4.2's ``synch_training``).

The framework "internally maintains each worker's current iteration and
received weight variable ids. Based on the information, it can skip or
proceed to the next training iteration as well as identify straggler
workers." Three policies:

* **async** — never wait (Ako's strategy);
* **sync** — lock-step: start iteration ``t+1`` only after gradients of
  iteration ``t`` have arrived from every peer (Baseline);
* **bounded** — bounded staleness with backup workers: proceed as long
  as at most ``backup`` peers are further than ``staleness`` iterations
  behind (Hop; DLion defaults to this with backup = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SyncState", "SyncPolicy", "AsyncPolicy", "LockstepPolicy", "BoundedPolicy", "make_sync_policy"]


@dataclass
class SyncState:
    """What a policy may look at: local progress and peer progress."""

    iteration: int  # iterations this worker has completed
    received_from: dict[int, int] = field(default_factory=dict)
    # received_from[j] = highest iteration index whose gradients from
    # peer j have been applied locally (−1 before any arrive).


class SyncPolicy:
    """Decides when a worker may advance (the synch_training family)."""
    name = "abstract"

    def can_proceed(self, state: SyncState) -> bool:
        """May a worker in ``state`` start its next iteration?"""
        raise NotImplementedError


class AsyncPolicy(SyncPolicy):
    """Never blocks."""

    name = "async"

    def can_proceed(self, state: SyncState) -> bool:
        return True


class LockstepPolicy(SyncPolicy):
    """Fully synchronous: all peers' iteration-(t−1) gradients required."""

    name = "sync"

    def can_proceed(self, state: SyncState) -> bool:
        needed = state.iteration - 1
        if needed < 0:
            return True
        return all(it >= needed for it in state.received_from.values())


class BoundedPolicy(SyncPolicy):
    """Bounded staleness with backup workers.

    Proceed unless *more than* ``backup`` peers lag by more than
    ``staleness`` iterations. ``backup`` is the number of stragglers the
    system tolerates ignoring (Hop sets 1); ``staleness`` is the
    iteration bound (Hop sets 5).
    """

    name = "bounded"

    def __init__(self, staleness: int, backup: int = 0):
        if staleness < 0 or backup < 0:
            raise ValueError("staleness and backup must be non-negative")
        self.staleness = staleness
        self.backup = backup

    def can_proceed(self, state: SyncState) -> bool:
        lagging = sum(
            1
            for it in state.received_from.values()
            if state.iteration - it > self.staleness
        )
        return lagging <= self.backup


def make_sync_policy(mode: str, *, staleness: int = 5, backup: int = 0) -> SyncPolicy:
    """Factory keyed by the ``TrainConfig.sync_mode`` strings."""
    if mode == "async":
        return AsyncPolicy()
    if mode == "sync":
        return LockstepPolicy()
    if mode == "bounded":
        return BoundedPolicy(staleness, backup)
    raise ValueError(f"unknown sync mode {mode!r}")
