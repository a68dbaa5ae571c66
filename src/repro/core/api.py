"""The generic, flexible DLion framework surface (§4.2).

The paper stresses that DLion is a *framework*: other systems are
expressed as small plugins. Two extension points carry all the
system-to-system variation (Table 1):

* ``generate_partial_gradients`` — which gradient entries go to which
  peer this iteration;
* ``synch_training`` — whether the worker may start its next iteration.

:class:`ExchangeStrategy` is that plugin interface. The framework calls
``enqueue`` after every local gradient computation, which internally
invokes ``generate_partial_gradients`` and then the paper's
``send_data`` step, one message per destination, inline (the
index/value split and per-variable keying happen in the message layer).

:class:`WorkerContext` is the narrow view of the worker a strategy is
allowed to touch: identity, peers, clock, its own model variables, the
network resource monitor, and the latest iteration-time estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from repro.core.sync import SyncPolicy, SyncState

__all__ = ["PartialGradients", "WorkerContext", "ExchangeStrategy"]


@dataclass
class PartialGradients:
    """What a strategy emits for one destination.

    ``kind`` selects the wire format: ``"sparse"`` payloads map variable
    name to ``(flat_indices, values)``; ``"dense"`` payloads map
    variable name to a full gradient array. ``chosen_n`` records the
    Max-N value used (DLion only; kept for the Fig. 8/20 series).
    """

    kind: str
    payload: dict
    chosen_n: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sparse", "dense"):
            raise ValueError("kind must be 'sparse' or 'dense'")


class WorkerContext(Protocol):
    """The strategy-visible slice of a worker (see ``core.worker``)."""

    worker_id: int
    n_workers: int

    @property
    def peers(self) -> list[int]:
        """Ids of the peers this worker currently exchanges with."""
        ...

    def now(self) -> float:
        """Current simulated time in seconds."""
        ...

    def iter_time_estimate(self) -> float:
        """Latest estimate of this worker's iteration duration (s)."""
        ...

    def bandwidth_to(self, dst: int) -> float:
        """Monitored bandwidth (Mbps) on the link to peer ``dst``."""
        ...

    def model_variables(self) -> dict[str, np.ndarray]:
        """Live views of the local model's named weight variables."""
        ...


class ExchangeStrategy:
    """Base plugin. Subclasses override the two framework APIs.

    ``setup`` runs once per worker before training; per-worker state
    (accumulators, partition cursors) lives on the strategy instance —
    the engine creates one instance per worker.
    """

    name = "abstract"

    def __init__(self, sync_policy: SyncPolicy):
        self.sync_policy = sync_policy

    def setup(self, ctx: WorkerContext) -> None:
        """Optional per-worker initialization hook."""

    # -- framework API #1 ------------------------------------------------
    def generate_partial_gradients(
        self, ctx: WorkerContext, grads: Mapping[str, np.ndarray]
    ) -> dict[int, PartialGradients]:
        """Return the per-destination payloads for this iteration."""
        raise NotImplementedError

    # -- framework API #2 ------------------------------------------------
    def synch_training(self, ctx: WorkerContext, state: SyncState) -> bool:
        """May the worker start its next iteration?"""
        return self.sync_policy.can_proceed(state)
