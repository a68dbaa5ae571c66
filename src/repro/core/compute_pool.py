"""Residual of the removed speculative compute pool.

A worker's forward/backward runs inline, in ``collect``, whose one call
site is ``Worker._finish_iteration``. This class (and the uncalled
``prefetch``) survives only because ``benchmarks/e2e/spans.py`` wraps
both names and the harness may not change with the program; once a
``benchmark`` issue drops those two rows, fold ``collect`` into the
worker and delete this file.
"""

from __future__ import annotations

__all__ = ["ComputePool"]


class ComputePool:
    """Stateless: draws one minibatch and computes its gradients."""

    def collect(self, worker, batch: int) -> tuple[float, dict]:
        """This iteration's ``(loss, grads)`` for ``worker``."""
        return worker.model.loss_and_grads(*worker.sampler.draw(batch))

    def prefetch(self) -> None:
        """Nothing to speculate on; kept for the harness (module doc)."""
