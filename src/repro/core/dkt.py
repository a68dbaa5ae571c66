"""Direct knowledge transfer (§3.4).

Workers periodically share the average of their last ``l`` training
losses; each worker then asks the currently-best worker (smallest shared
loss) for its weights and merges them into the local model:

    w_local ← w_local − λ (w_local − w_best)

λ = 0 disables DKT; λ = 1 replaces local weights outright. The
*whom-to-send* variants from Fig. 9b: ``all`` (every worker pulls from
the best — Best2all) and ``worst`` (only the currently-worst worker
pulls — Best2worst).
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

import numpy as np

from repro.core.config import DktConfig

__all__ = ["merge_weights", "DktState"]


def merge_weights(
    local: Mapping[str, np.ndarray],
    best: Mapping[str, np.ndarray],
    lam: float,
) -> None:
    """In-place merge ``w_local -= λ (w_local − w_best)`` per variable."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    if lam == 0.0:
        return
    for name, w in local.items():
        wb = best[name]
        if wb.shape != w.shape:
            raise ValueError(f"weight shape mismatch for {name}")
        # w = (1-λ) w + λ w_best, written as two in-place ops.
        w *= 1.0 - lam
        w += lam * wb


class DktState:
    """One worker's view of the DKT protocol.

    Tracks the trailing loss window, the latest loss shares received
    from peers, and decides (a) when this worker should broadcast its
    loss, and (b) whether it should pull weights — and from whom.
    """

    def __init__(self, config: DktConfig, worker: int, n_workers: int):
        self.config = config
        self.worker = worker
        self.n_workers = n_workers
        self._losses: deque[float] = deque(maxlen=config.loss_window)
        # latest shared avg-loss per worker (own entry updated locally)
        self.shared_losses: dict[int, float] = {}
        self.merges_applied = 0

    def record_loss(self, loss: float) -> None:
        """Append one training-loss observation to the trailing window."""
        self._losses.append(float(loss))

    def avg_loss(self) -> float | None:
        """Average of the last ``loss_window`` losses (None before any)."""
        if not self._losses:
            return None
        return float(sum(self._losses) / len(self._losses))

    def _period_at(self, iteration: int) -> int:
        if (
            self.config.early_period_iters is not None
            and iteration <= self.config.early_until_iter
        ):
            return self.config.early_period_iters
        return self.config.period_iters

    def should_share(self, iteration: int) -> bool:
        """Loss shares go out every ``period_iters`` local iterations
        (or every ``early_period_iters`` during the early phase)."""
        return (
            self.config.enabled
            and iteration > 0
            and iteration % self._period_at(iteration) == 0
            and bool(self._losses)
        )

    def on_loss_share(self, sender: int, avg_loss: float) -> None:
        """Record a peer's shared trailing-average loss."""
        self.shared_losses[sender] = float(avg_loss)

    def best_worker(self) -> int | None:
        """The worker with the smallest known shared loss (ties → lowest id)."""
        own = self.avg_loss()
        table = dict(self.shared_losses)
        if own is not None:
            table[self.worker] = own
        if not table:
            return None
        return min(table.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def worst_worker(self) -> int | None:
        """The worker with the largest known shared loss (ties -> lowest id)."""
        own = self.avg_loss()
        table = dict(self.shared_losses)
        if own is not None:
            table[self.worker] = own
        if not table:
            return None
        return max(table.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def trace_args(self) -> dict:
        """A compact protocol-state snapshot for trace instants.

        Deterministic keys and rounded floats so traced runs of the
        same seed stay byte-identical.
        """
        best = self.best_worker()
        avg = self.avg_loss()
        return {
            "best": -1 if best is None else best,
            "avg_loss": None if avg is None else round(avg, 6),
            "peers_known": len(self.shared_losses),
        }

    def pull_target(self) -> int | None:
        """Whom this worker should request weights from right now.

        Returns a peer id, or ``None`` when no pull is due (this worker
        *is* the best, no information yet, or the ``worst`` policy says
        only the worst worker pulls and we are not it).
        """
        if not self.config.enabled:
            return None
        best = self.best_worker()
        if best is None or best == self.worker:
            return None
        if self.config.whom == "worst" and self.worst_worker() != self.worker:
            return None
        return best
