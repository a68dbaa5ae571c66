"""A DLion worker: the module wiring of Fig. 10.

Each worker owns a model replica, a data shard sampler, its message
queues, the network resource monitor, the DKT state, and the LBS
controller. Its host (``core.host``; the simulator's is ``core.engine``)
drives workers through the clock; the worker exposes the handlers for
iteration completion and message arrival and implements the strategy-facing
:class:`~repro.core.api.WorkerContext` protocol.

Module map (paper §4.1 → methods here):

* batch size update module      → :meth:`run_profiling`, :meth:`recompute_lbs`
* gradients computation module  → :meth:`finish_iteration`
* partial gradients generation  → strategy call inside :meth:`finish_iteration`
* model update module           → :meth:`on_gradient_message`
* model synchronization module  → :meth:`on_loss_share` / :meth:`on_dkt_request`
  / :meth:`on_weight_message`
* network resource monitor      → :attr:`monitor`
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.messages import (
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.queues import MessageQueues
from repro.core.api import ExchangeStrategy, PartialGradients
from repro.core.compute_pool import ComputePool
from repro.core.config import TrainConfig
from repro.core.dkt import DktState, merge_weights
from repro.core.lbs_controller import LbsController, lbs_share
from repro.core.sync import SyncState
from repro.core.weighted_update import dynamic_batching_weight
from repro.nn.datasets import MinibatchSampler
from repro.nn.model import Model
from repro.obs.trace import TID_CTRL, TID_DKT, TID_ITER, TID_SYNC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.host import WorkerHost

__all__ = ["Worker"]


class Worker:
    """One training participant."""

    def __init__(
        self,
        worker_id: int,
        engine: "WorkerHost",
        model: Model,
        sampler: MinibatchSampler,
        strategy: ExchangeStrategy,
        monitor: NetworkResourceMonitor,
        config: TrainConfig,
        rng: np.random.Generator,
    ):
        self.worker_id = worker_id
        self.engine = engine
        self.tracer = engine.tracer
        self.model = model
        self.sampler = sampler
        self.strategy = strategy
        self.monitor = monitor
        self.config = config
        self.rng = rng

        self.n_workers = engine.n_workers
        self.queues = MessageQueues()
        self.dkt = DktState(config.dkt, worker_id, self.n_workers)
        self.lbs_controller = LbsController(config.lbs)

        # Batch-size state. Until profiling completes, LBS is the even
        # share of the initial GBS.
        self.gbs = config.initial_lbs * self.n_workers
        self.lbs = config.initial_lbs
        self.rcp_table: dict[int, float] = {}

        # Progress / synchronization state.
        self.sync_state = SyncState(
            iteration=0, received_from={p: -1 for p in self.peers}
        )
        self.computing = False
        self.waiting = False
        self.iteration = 0
        # Counts writes to the model replica (own update, peer gradient,
        # DKT merge); checkpoints store it.
        self.model_version = 0

        # Iteration-time estimate (EMA over measured durations), seeded
        # pessimistically until the first iteration completes.
        self._iter_time_ema: float | None = None

        self.stats_grad_msgs_sent = 0
        self.stats_grad_msgs_received = 0

        # Utilization accounting: simulated seconds spent computing
        # gradients vs. blocked on the synchronization gate.
        self.compute_time = 0.0
        self.wait_time = 0.0
        self._wait_started: float | None = None

    # ------------------------------------------------------------------
    # WorkerContext protocol (what strategies may see)
    # ------------------------------------------------------------------
    @property
    def peers(self) -> list[int]:
        """Currently-active peers (the full set when membership is static)."""
        return self.engine.active_peers(self.worker_id)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.engine.clock.now

    def iter_time_estimate(self) -> float:
        """EMA estimate of this worker's iteration duration (s)."""
        if self._iter_time_ema is not None:
            return self._iter_time_ema
        # Before any measurement: assume one second (the LBS unit time).
        return self.config.lbs.unit_time_s

    def _group_size(self) -> int:
        """This worker's exchange-group size (itself + current peers)."""
        return len(self.peers) + 1

    def bandwidth_to(self, dst: int) -> float:
        """Monitored bandwidth (Mbps) on the link to peer ``dst``."""
        return self.monitor.available_bandwidth(dst, self.now())

    def model_variables(self) -> dict[str, np.ndarray]:
        """Live views of the local model's named weight variables."""
        return self.model.variables()

    # ------------------------------------------------------------------
    # Batch size update module
    # ------------------------------------------------------------------
    def run_profiling(self) -> float:
        """Measure RCP via timed probes; returns the simulated cost.

        Probe durations come from the engine's compute model — the
        controller sees only (batch, seconds) pairs, like real profiling.
        """
        probe_times: list[float] = []
        t = self.now()

        def probe(batch: int) -> float:
            dur = self.engine.iteration_duration(self.worker_id, batch, t)
            probe_times.append(dur)
            return dur

        rcp = self.lbs_controller.profile(probe)
        self.rcp_table[self.worker_id] = rcp
        self.recompute_lbs()
        self.engine.broadcast_rcp(self.worker_id, rcp)
        cost = sum(probe_times)
        if self.tracer.enabled:
            self.tracer.complete(
                "rcp-profile", self.worker_id, TID_CTRL, t, cost,
                cat="ctrl", args={"rcp": round(rcp, 6)},
            )
        return cost

    def on_rcp_share(self, msg: RcpShareMessage) -> None:
        """Update the RCP table with a peer's measurement; rebalance LBS."""
        self.rcp_table[msg.sender] = msg.rcp
        self.recompute_lbs()

    def set_gbs(self, gbs: int) -> None:
        """Adopt a new global batch size announced by the GBS controller."""
        if gbs < self.n_workers:
            raise ValueError("GBS below one sample per worker")
        self.gbs = int(gbs)
        self.recompute_lbs()

    def recompute_lbs(self) -> None:
        """Eq. 5 with this worker's current (possibly stale) RCP table.

        The allocation spans the *active* worker set, so the extension's
        membership churn automatically redistributes the GBS across the
        survivors.
        """
        wid = self.worker_id
        if wid not in self.engine.active:
            return
        members = self.engine.active_members()
        n = len(members)
        if not self.config.lbs.enabled:
            # Dynamic batching disabled: even split of the current GBS.
            new = max(self.config.lbs.min_lbs, self.gbs // n)
        else:
            # Peers this worker has not heard from count at its own RCP,
            # so the vector over the id space is a constant fill plus one
            # write per table entry (at most degree + 1 of them under an
            # overlay); nothing of length N is built in Python.
            table = self.rcp_table
            own = table.get(wid, 1.0)
            rcps = np.full(self.engine.n_workers, own, dtype=float)
            for j, rcp in table.items():
                rcps[j] = rcp
            i = wid
            if n < len(rcps):
                # Some ids are inactive: Eq. 5 spans the members only.
                rcps = rcps[members]
                i = bisect_left(members, wid)
            new = lbs_share(self.gbs, rcps, i, min_lbs=self.config.lbs.min_lbs)
        if new != self.lbs:
            self.lbs = new
            self.engine.record_lbs(self.worker_id, new)

    # ------------------------------------------------------------------
    # Elastic membership (extension)
    # ------------------------------------------------------------------
    def on_membership_change(self, active: set[int]) -> None:
        """Adapt bookkeeping to the new active set.

        Sync state keeps progress for peers that stayed, forgets peers
        that left, and seeds newly-(re)joined peers at this worker's own
        iteration so bounded policies do not treat them as stragglers
        for history they were never part of.
        """
        old = self.sync_state.received_from
        self.sync_state.received_from = {
            p: old.get(p, self.iteration) for p in self.peers
        }
        for table in (self.rcp_table, self.dkt.shared_losses):
            for gone in [w for w in table if w not in active]:
                del table[gone]
        self.recompute_lbs()
        if self.waiting:
            self.try_start_iteration()

    # ------------------------------------------------------------------
    # Gradients computation module
    # ------------------------------------------------------------------
    def try_start_iteration(self) -> None:
        """Start the next iteration if the sync policy allows it."""
        if (
            self.computing
            or self.engine.stopped
            or self.worker_id not in self.engine.active
        ):
            return
        if not self.strategy.synch_training(self, self.sync_state):
            if not self.waiting:
                self.waiting = True
                self._wait_started = self.now()
            return
        if self.waiting and self._wait_started is not None:
            waited = self.now() - self._wait_started
            self.wait_time += waited
            self.engine.run_metrics.h_wait_s.observe(waited, self.worker_id)
            if self.tracer.enabled and waited > 0.0:
                self.tracer.complete(
                    "sync-wait", self.worker_id, TID_SYNC,
                    self._wait_started, waited, cat="sync",
                    args={"iteration": self.iteration},
                )
            self._wait_started = None
        self.waiting = False
        self.computing = True
        batch = self.lbs
        dur = self.engine.iteration_duration(self.worker_id, batch, self.now())
        self.compute_time += dur
        self.engine.clock.schedule_in(dur, self._finish_iteration, batch, dur)

    def _finish_iteration(self, batch: int, duration: float) -> None:
        self.computing = False
        if self.worker_id not in self.engine.active:
            # The worker left mid-iteration: no batch is drawn and the
            # iteration never happened.
            return
        ema = self._iter_time_ema
        self._iter_time_ema = duration if ema is None else 0.8 * ema + 0.2 * duration

        # Real gradient computation over the shard (Eq. 6).
        loss, grads = ComputePool().collect(self, batch)
        self.iteration += 1
        self.sync_state.iteration = self.iteration
        self.dkt.record_loss(loss)
        self.engine.record_loss(self.worker_id, loss)
        self.engine.run_metrics.h_iteration_s.observe(duration, self.worker_id)
        if self.tracer.enabled:
            # The compute span covers the simulated iteration duration
            # that just elapsed; it ends at the current instant.
            self.tracer.complete(
                "compute", self.worker_id, TID_ITER,
                self.now() - duration, duration, cat="iter",
                args={
                    "iteration": self.iteration,
                    "batch": batch,
                    "loss": round(float(loss), 6),
                },
            )

        # Local model update: own gradient with db = 1 (Eq. 7 term j=k).
        # The averaging denominator is the size of this worker's
        # exchange group (itself + its peers): exactly n for the paper's
        # all-to-all case, the gossip neighbourhood under a partial
        # overlay, and the surviving group under membership churn.
        self.model.apply_grads(
            grads, lr=self.config.lr, coeff=1.0 / self._group_size()
        )
        self.model_version += 1

        # enqueue: generate_partial_gradients + send_data (§4.2).
        self.enqueue(grads)

        # Model synchronization module hooks.
        if self.dkt.should_share(self.iteration):
            avg = self.dkt.avg_loss()
            if avg is not None:
                if self.tracer.enabled:
                    self.tracer.instant(
                        "dkt-share", self.worker_id, TID_DKT, self.now(),
                        cat="dkt", args=self.dkt.trace_args(),
                    )
                self.engine.broadcast_loss_share(self.worker_id, self.iteration, avg)
                target = self.dkt.pull_target()
                if target is not None:
                    self.engine.run_metrics.c_dkt_pulls.inc(1, self.worker_id)
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "dkt-pull-request", self.worker_id, TID_DKT,
                            self.now(), cat="dkt", args={"target": target},
                        )
                    self.engine.send_control(
                        self.worker_id,
                        target,
                        DktRequestMessage(sender=self.worker_id, iteration=self.iteration),
                    )

        # Periodic re-profiling (batch size update module).
        reprofile = (
            self.config.lbs.enabled
            and self.iteration % self.config.lbs.profile_period_iters == 0
        )

        # Accuracy measurement every eval_period iterations (§5.1.3).
        if self.iteration % self.config.eval_period_iters == 0:
            self.engine.evaluate_worker(self.worker_id)

        if reprofile:
            cost = self.run_profiling()
            self.engine.clock.schedule_in(cost, self.try_start_iteration)
        else:
            self.try_start_iteration()

    # ------------------------------------------------------------------
    # Partial gradients generation + send_data
    # ------------------------------------------------------------------
    def enqueue(self, grads: dict[str, np.ndarray]) -> None:
        """The DLion ``enqueue`` API: plan payloads and ship them, one
        gradient message per destination, through the host's
        ``send_gradients_batch``."""
        plans = self.strategy.generate_partial_gradients(self, grads)
        items = []
        for dst, pg in plans.items():
            items.append((dst, self._wrap_gradients(pg), pg.chosen_n))
            self.stats_grad_msgs_sent += 1
        self.engine.send_gradients_batch(self.worker_id, items)

    def _wrap_gradients(self, pg: PartialGradients) -> GradientMessage:
        """Wrap a planned payload in its wire message."""
        # No copy: every step returns gradient arrays it never touches
        # again (``TestStepsOwnTheirArrays`` pins that), and receivers
        # only read them.
        return GradientMessage(
            sender=self.worker_id,
            iteration=self.iteration,
            lbs=self.lbs,
            sparse=pg.payload if pg.kind == "sparse" else None,
            dense=pg.payload if pg.kind == "dense" else None,
        )

    # ------------------------------------------------------------------
    # Model update module
    # ------------------------------------------------------------------
    def on_gradient_message(self, msg: GradientMessage) -> None:
        """Model update module: apply a peer's (partial) gradients (Eq. 7)."""
        rm = self.engine.run_metrics
        self.queues.push_data(msg)
        rm.g_queue_depth.set(self.queues.data_depth, self.worker_id, "data")
        self.stats_grad_msgs_received += 1
        db = dynamic_batching_weight(
            msg.lbs, self.lbs, enabled=self.config.weighted_update
        )
        coeff = db / self._group_size()
        if msg.dense is not None:
            self.model.apply_grads(msg.dense, lr=self.config.lr, coeff=coeff)
        elif msg.sparse:
            self.model.apply_sparse_grads(msg.sparse, lr=self.config.lr, coeff=coeff)
        self.model_version += 1
        self.queues.pop_data()
        rm.g_queue_depth.set(self.queues.data_depth, self.worker_id, "data")
        if self.tracer.enabled:
            self.tracer.instant(
                "apply-grads", self.worker_id, TID_ITER, self.now(),
                cat="iter",
                args={
                    "from": msg.sender,
                    "iteration": msg.iteration,
                    "entries": msg.num_entries(),
                },
            )

        if msg.sender in self.sync_state.received_from:
            prev = self.sync_state.received_from[msg.sender]
            if msg.iteration > prev:
                self.sync_state.received_from[msg.sender] = msg.iteration
        if self.waiting:
            self.try_start_iteration()

    def on_control_message(self, msg) -> None:
        """Park an opaque control message in the control queue.

        Typed control traffic (loss shares, DKT requests, RCP shares)
        has dedicated handlers; anything else lands here for application
        extensions to ``pop_control``.
        """
        self.queues.push_control(msg)
        self.engine.run_metrics.g_queue_depth.set(
            self.queues.control_depth, self.worker_id, "control"
        )

    # ------------------------------------------------------------------
    # Model synchronization module
    # ------------------------------------------------------------------
    def on_loss_share(self, msg: LossShareMessage) -> None:
        """Record a peer's shared loss for the DKT best-worker table."""
        self.dkt.on_loss_share(msg.sender, msg.avg_loss)

    def on_dkt_request(self, msg: DktRequestMessage) -> None:
        """This worker is (believed to be) the best: ship its weights."""
        if self.tracer.enabled:
            self.tracer.instant(
                "dkt-serve", self.worker_id, TID_DKT, self.now(),
                cat="dkt", args={"requester": msg.sender},
            )
        snapshot = WeightMessage(
            sender=self.worker_id,
            iteration=self.iteration,
            weights=self.model.copy_weights(),
        )
        self.engine.send_weights(self.worker_id, msg.sender, snapshot)

    def on_weight_message(self, msg: WeightMessage) -> None:
        """Merge received best-worker weights into the local model (DKT)."""
        merge_weights(
            self.model.variables(), msg.weights, self.config.dkt.merge_lambda
        )
        self.model_version += 1
        self.dkt.merges_applied += 1
        self.engine.record_dkt_merge(self.worker_id)
        if self.tracer.enabled:
            self.tracer.instant(
                "dkt-merge", self.worker_id, TID_DKT, self.now(),
                cat="dkt",
                args={"from": msg.sender, "iteration": msg.iteration},
            )
