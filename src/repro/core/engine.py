"""The event-driven training engine: the simulator backend.

:class:`TrainingEngine` is a :class:`~repro.core.host.WorkerHost` that
holds every worker and adds only what is simulation: a
:class:`SimClock`, delivery of every message through the modelled links
(:class:`BandwidthMatrix` plus the chaos fault injector), the vectorised
same-instant gradient fan-out, scripted membership events and chaos
markers, and run control.

The engine is deterministic for a ``(config, topology, seed)`` triple —
every random stream derives from the seed through :class:`RngPool`, and
the event clock breaks ties by scheduling order.
"""

from __future__ import annotations

from repro.cluster.chaos import ChaosPlan, LinkFaultInjector
from repro.cluster.membership import MembershipSchedule
from repro.cluster.messages import GradientMessage
from repro.cluster.simclock import SimClock
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.host import RunResult, WorkerHost
from repro.nn.datasets import SyntheticImageDataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TID_NET

__all__ = ["TrainingEngine", "RunResult"]


class TrainingEngine(WorkerHost):
    """Builds and runs one distributed training simulation."""

    def __init__(
        self,
        config: TrainConfig,
        topology: ClusterTopology,
        *,
        seed: int = 0,
        dataset: SyntheticImageDataset | None = None,
        membership=None,
        peer_graph=None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        profiler=None,
        chaos: ChaosPlan | None = None,
    ):
        super().__init__(
            config, topology, SimClock(), seed=seed, dataset=dataset,
            peer_graph=peer_graph, tracer=tracer, metrics=metrics,
            profiler=profiler,
        )

        # Elastic membership (extension; None = the paper's fixed set).
        if membership is not None and membership.n_workers != self.n_workers:
            raise ValueError("membership schedule sized for a different cluster")

        # Unified chaos plan (docs/robustness.md): crash/restart events
        # lower onto the membership machinery (leave + join with the DKT
        # bootstrap pull), so recovery is seed-deterministic; link faults
        # are injected at delivery time through ``_deliver``.
        self.chaos = chaos
        self._fault_injector: LinkFaultInjector | None = None
        if chaos is not None:
            chaos.validate(self.n_workers)
            crash_events = chaos.membership_events()
            if crash_events:
                merged = list(crash_events)
                if membership is not None:
                    merged.extend(
                        (ev.time, ev.worker, ev.action)
                        for ev in membership.events
                    )
                try:
                    membership = MembershipSchedule(merged, self.n_workers)
                except ValueError as exc:
                    raise ValueError(
                        f"chaos plan conflicts with the membership "
                        f"schedule: {exc}"
                    ) from None
            if chaos.link_faults:
                self._fault_injector = LinkFaultInjector(
                    chaos, self.rng_pool.get("chaos")
                )

        self.membership = membership
        if membership is not None and membership.min_active() < 2:
            raise ValueError("schedule drops below two active workers")

        self._record_start()
        self._started = False

    # ------------------------------------------------------------------
    # Message transport (everything crosses the simulated links)
    # ------------------------------------------------------------------
    def _deliver(
        self, src: int, dst: int, nbytes: int, handler, msg, *, kind: str = "msg"
    ) -> None:
        if dst not in self.active:
            return  # destination is offline; the message is lost
        extra = 0.0
        if self._fault_injector is not None:
            verdict = self._fault_injector.on_send(src, dst, self.clock.now)
            if verdict is None:
                self._c_chaos_dropped.inc(1, src, dst)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "chaos-drop", src, TID_NET, self.clock.now,
                        cat="chaos", args={"dst": dst, "kind": kind},
                    )
                return
            extra = verdict
        arrival = extra + self.topology.network.enqueue_transfer(
            src, dst, nbytes, self.clock.now
        )
        if self.tracer.enabled:
            # One span per transfer on the source worker's net-out
            # thread: enqueue -> delivery (queueing + serialization).
            self.tracer.complete(
                f"{kind}->{dst}",
                src,
                TID_NET,
                self.clock.now,
                arrival - self.clock.now,
                cat="net",
                args={"dst": dst, "bytes": int(nbytes)},
            )
        # Membership can change while the message is in flight; check
        # again at delivery time.
        self.clock.schedule(arrival, self._deliver_checked, dst, handler, msg)

    def _deliver_checked(self, dst: int, handler, msg) -> None:
        if dst in self.active:
            handler(msg)

    def send_gradients_batch(
        self, src: int, items: list[tuple[int, GradientMessage, float | None]]
    ) -> None:
        """Ship one worker's same-instant gradient fan-out as a batch.

        ``items`` is ``[(dst, msg, chosen_n), ...]`` in destination
        order. Unless a fault injector is armed, the link arithmetic
        for every live destination runs as one
        :meth:`BandwidthMatrix.enqueue_transfers` call; trace spans,
        delivery scheduling, and link stats still run per destination
        in the original order, so traces, metrics, and event sequence
        numbers are byte-identical to the sequential path. Chaos
        faults, which the batch cannot express, fall back to
        :meth:`send_gradients` per item.
        """
        network = self.topology.network
        if len(items) < 2 or self._fault_injector is not None:
            return super().send_gradients_batch(src, items)
        now = self.clock.now
        active = self.active
        sizes = [msg.wire_bytes() for _dst, msg, _n in items]
        live = [i for i, (dst, _msg, _n) in enumerate(items) if dst in active]
        if live:
            arrivals = network.enqueue_transfers(
                src,
                [items[i][0] for i in live],
                [sizes[i] for i in live],
                now,
            )
        tracer = self.tracer
        tracing = tracer.enabled
        schedule = self.clock.schedule
        workers = self.workers
        k = 0
        for i, (dst, msg, chosen_n) in enumerate(items):
            nbytes = sizes[i]
            if dst in active:
                arrival = float(arrivals[k])
                k += 1
                if tracing:
                    tracer.complete(
                        f"grad->{dst}",
                        src,
                        TID_NET,
                        now,
                        arrival - now,
                        cat="net",
                        args={"dst": dst, "bytes": int(nbytes)},
                    )
                schedule(
                    arrival,
                    self._deliver_checked,
                    dst,
                    workers[dst].on_gradient_message,
                    msg,
                )
            self._record_link(src, dst, nbytes, msg, chosen_n, now)

    # ------------------------------------------------------------------
    # Elastic membership (extension)
    # ------------------------------------------------------------------
    def _apply_membership_event(self, event) -> None:
        worker = self.workers[event.worker]
        if event.action == "leave":
            self.active.discard(event.worker)
            worker.active = False
        else:
            self.active.add(event.worker)
            worker.active = True
            # Resync the rejoiner's iteration counter so bounded/lockstep
            # policies do not stall the cluster while it replays history.
            resume = max(
                (self.workers[w].iteration for w in self.active), default=0
            )
            worker.iteration = max(worker.iteration, resume)
            worker.sync_state.iteration = worker.iteration
        self._membership_changed()
        if self.tracer.enabled:
            self.tracer.instant(
                f"membership-{event.action}",
                self.cluster_pid,
                0,
                self.clock.now,
                cat="membership",
                args={"worker": event.worker, "active": len(self.active)},
                scope="g",
            )
        for w in self.active:
            self.workers[w].on_membership_change(self.active)
        if event.action == "join":
            self._bootstrap_pull(worker)
            worker.try_start_iteration()

    # ------------------------------------------------------------------
    # Chaos bookkeeping (gauge flips + recovery accounting)
    # ------------------------------------------------------------------
    def _schedule_chaos_markers(self) -> None:
        for f in self.chaos.blackout_windows():
            self.clock.schedule(f.start, self._blackout_edge, f, +1)
            self.clock.schedule(f.end, self._blackout_edge, f, -1)
        for c in self.chaos.crashes:
            if c.restart_after is not None:
                self.clock.schedule(
                    c.time + c.restart_after, self._record_recovery, c
                )

    def _record_recovery(self, c) -> None:
        # The sim's recovery takes exactly the plan's modelled downtime,
        # and a lowered leave/join destroys no state, so no iterations
        # are lost — the families are populated so sim and live runs
        # share one catalog (docs/robustness.md discusses the semantic
        # difference).
        self.run_metrics.c_worker_restarts.inc(1, c.worker)
        self.run_metrics.h_recovery_s.observe(c.restart_after, c.worker)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._started = True
        self._arm_gbs_tick()
        if self.membership is not None:
            for event in self.membership.events:
                self.clock.schedule(event.time, self._apply_membership_event, event)
        if self.chaos is not None:
            self._schedule_chaos_markers()
        self._start_workers()

    def run(self, horizon: float) -> RunResult:
        """Advance the simulation to ``horizon`` seconds and finalize."""
        self.advance_to(horizon)
        return self.finalize()

    def advance_to(self, horizon: float) -> None:
        """Pump simulated events up to ``horizon`` (without finalizing)."""
        if not self._started:
            self._start()
        with self.profiled():
            self.clock.run_until(horizon)

    def run_epochs(self, target_epochs: float, *, max_time: float = 1e6) -> RunResult:
        """Run until the cluster has processed ``target_epochs`` of data."""
        if not self._started:
            self._start()
        with self.profiled():
            while self.global_epoch() < target_epochs and self.clock.now < max_time:
                nxt = self.clock.peek_time()
                if nxt is None:
                    break
                self.clock.run_until(
                    min(max_time, max(nxt, self.clock.now + 1.0)),
                    max_events=10_000,
                )
        return self.finalize()
