"""DLion's own exchange strategy: per-link prioritized gradient exchange.

Each iteration, the partial-gradient-generation module asks the network
resource monitor for the bandwidth of every outgoing link and hands the
gradients to the transmission planner, which fits the largest Max-N per
link (§3.3). Peers behind fast links receive large high-fidelity
payloads; peers behind slow links receive only the statistically most
significant entries.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.api import ExchangeStrategy, PartialGradients, WorkerContext
from repro.core.config import MaxNConfig
from repro.core.sync import SyncPolicy
from repro.core.transmission import TransmissionPlanner

__all__ = ["DLionStrategy"]


class DLionStrategy(ExchangeStrategy):
    """DLion's per-link prioritized gradient exchange (Max N + budgets)."""
    name = "dlion"

    def __init__(self, sync_policy: SyncPolicy, maxn: MaxNConfig):
        super().__init__(sync_policy)
        self.planner = TransmissionPlanner(maxn)

    def generate_partial_gradients(
        self, ctx: WorkerContext, grads: Mapping[str, np.ndarray]
    ) -> dict[int, PartialGradients]:
        bandwidths = {dst: ctx.bandwidth_to(dst) for dst in ctx.peers}
        plans = self.planner.plan(grads, bandwidths, ctx.iter_time_estimate())
        return {
            dst: PartialGradients(kind="sparse", payload=payload, chosen_n=n)
            for dst, (n, payload) in plans.items()
        }
