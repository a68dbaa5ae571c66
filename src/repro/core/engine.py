"""The event-driven training engine.

Ties together the substrate (clock, compute profiles, links, queues)
and the per-worker logic: it builds the dataset shards, models, and
strategies; routes every message through the simulated links; ticks the
GBS controller; and records the run's time series into a
:class:`RunResult`.

The engine is deterministic for a ``(config, topology, seed)`` triple —
every random stream derives from the seed through :class:`RngPool`, and
the event clock breaks ties by scheduling order.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.chaos import ChaosPlan, LinkFault, LinkFaultInjector
from repro.cluster.membership import MembershipSchedule
from repro.cluster.messages import (
    ControlMessage,
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.simclock import SimClock
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.gbs_controller import GbsController
from repro.core.run_metrics import RunMetrics
from repro.core.worker import Worker
from repro.nn.datasets import MinibatchSampler, SyntheticImageDataset
from repro.nn.models import build_model
from repro.obs import profile as _profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, THREAD_NAMES, TID_NET, TID_SYNC
from repro.utils.metrics import TimeSeries, accuracy_at_time
from repro.utils.rng import RngPool

__all__ = ["TrainingEngine", "RunResult"]

# Control-plane propagation delay for GBS announcements (seconds).
_GBS_ANNOUNCE_DELAY = 0.05


@dataclass
class RunResult:
    """Everything a run recorded, plus the paper's derived metrics.

    Run accounting lives in the attached :class:`MetricsRegistry`
    (``metrics``); the historical ``link_bytes`` / ``compute_time`` /
    ``wait_time`` attributes are kept as properties reading from the
    registry, so existing callers and a ``--metrics-out`` dump can
    never disagree.
    """

    n_workers: int
    horizon: float
    accuracy: list[TimeSeries] = field(default_factory=list)
    loss: list[TimeSeries] = field(default_factory=list)
    lbs: list[TimeSeries] = field(default_factory=list)
    gbs: TimeSeries = field(default_factory=TimeSeries)
    # Per ordered link: entries per gradient message and the chosen N.
    link_entries: dict[tuple[int, int], TimeSeries] = field(default_factory=dict)
    link_chosen_n: dict[tuple[int, int], TimeSeries] = field(default_factory=dict)
    iterations: list[int] = field(default_factory=list)
    dkt_merges: int = 0
    epochs: float = 0.0
    events: int = 0
    # Elastic-membership extension: active worker count over time.
    active_workers: TimeSeries = field(default_factory=TimeSeries)
    # The run's metric families (see docs/observability.md for the catalog).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def link_bytes(self) -> dict[tuple[int, int], int]:
        """Gradient-payload bytes shipped per ordered link."""
        counter = self.metrics.get("grad_bytes_total")
        if counter is None:
            return {}
        return {(src, dst): int(v) for (src, dst), v in counter.items()}

    def _per_worker_seconds(self, name: str) -> list[float]:
        counter = self.metrics.get(name)
        if counter is None:
            return [0.0] * self.n_workers
        return [counter.value(w) for w in range(self.n_workers)]

    @property
    def compute_time(self) -> list[float]:
        """Per-worker simulated seconds spent computing gradients."""
        return self._per_worker_seconds("compute_seconds_total")

    @property
    def wait_time(self) -> list[float]:
        """Per-worker simulated seconds blocked on the sync gate."""
        return self._per_worker_seconds("sync_wait_seconds_total")

    def wait_fraction(self, worker: int) -> float:
        """Share of the horizon worker ``worker`` spent sync-blocked."""
        return self.wait_time[worker] / max(self.horizon, 1e-9)

    # -- paper metrics -------------------------------------------------
    def worker_accuracy_at(self, t: float) -> list[float]:
        """Per-worker best accuracy achieved by time ``t``."""
        return [accuracy_at_time(s, t) if len(s) else 0.0 for s in self.accuracy]

    def mean_accuracy_at(self, t: float) -> float:
        """Metric 1: cluster-average accuracy achieved by time ``t``."""
        return float(np.mean(self.worker_accuracy_at(t)))

    def accuracy_deviation_at(self, t: float) -> float:
        """Fig. 17's measure: std-dev of per-worker accuracy at ``t``."""
        return float(np.std(self.worker_accuracy_at(t)))

    def mean_accuracy_series(self) -> TimeSeries:
        """Cluster-average best-so-far accuracy on the union time grid.

        A single merged sweep: every worker's samples are walked once
        while a running per-worker best is maintained, so the cost is
        O(T·W + T log T) over T grid points instead of re-masking every
        series at every grid point (O(T²·W)).
        """
        out = TimeSeries()
        if not self.accuracy:
            return out
        grid = sorted({t for s in self.accuracy for t in s.times})
        series = [(s.times, s.values) for s in self.accuracy]
        cursor = [0] * len(series)
        best = [0.0] * len(series)
        n = len(series)
        for t in grid:
            bound = t + 1e-12  # the tolerance accuracy_at_time applies
            for w, (times, values) in enumerate(series):
                i = cursor[w]
                b = best[w]
                while i < len(times) and times[i] <= bound:
                    if values[i] > b:
                        b = values[i]
                    i += 1
                cursor[w] = i
                best[w] = b
            out.append(t, sum(best) / n)
        return out

    def time_to_accuracy(self, target: float) -> float | None:
        """Metric 2: first time the cluster-average accuracy hits ``target``."""
        series = self.mean_accuracy_series()
        times, values = series.as_arrays()
        hits = np.nonzero(values >= target - 1e-12)[0]
        if hits.size == 0:
            return None
        return float(times[hits[0]])

    def final_mean_accuracy(self) -> float:
        """Cluster-mean accuracy at the end of the run (metric 1)."""
        return self.mean_accuracy_at(self.horizon)


class TrainingEngine:
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
        self.config = config
        self.topology = topology
        self.n_workers = topology.n_workers
        self.rng_pool = RngPool(seed)
        self.clock = SimClock()
        self.stopped = False

        # Observability: the tracer defaults to a no-op (hot paths pay
        # one ``tracer.enabled`` check); the metrics registry is always
        # live because RunResult's accounting reads from it; a profiler,
        # when given, is activated around run()/advance_to().
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self._register_metrics()
        if self.tracer.enabled:
            self._emit_trace_metadata()

        # Elastic membership (extension; None = the paper's fixed set).
        if membership is not None and membership.n_workers != self.n_workers:
            raise ValueError("membership schedule sized for a different cluster")

        # Unified chaos plan (docs/robustness.md): crash/restart events
        # lower onto the membership machinery (leave + join with the DKT
        # bootstrap pull), so recovery is seed-deterministic; link faults
        # are injected at delivery time through ``_deliver``.
        self.chaos = chaos
        self._fault_injector: LinkFaultInjector | None = None
        self._active_blackouts = 0
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
        self.active: set[int] = set(range(self.n_workers))
        if membership is not None:
            if membership.min_active() < 2:
                raise ValueError("schedule drops below two active workers")

        # Partial exchange overlay (extension; None = all-to-all).
        self.peer_graph = peer_graph
        if peer_graph is not None and peer_graph.n_workers != self.n_workers:
            raise ValueError("peer graph sized for a different cluster")
        # Sorted-active-members cache: recompute_lbs reads it on every
        # RCP/GBS update; dropped at the one place the active set
        # changes (_apply_membership_event).
        self._active_members: list[int] | None = None

        # Dataset (shared generation, per-worker shards).
        if dataset is None:
            dataset = self._build_dataset()
        self.dataset = dataset
        shards = dataset.shards(self.n_workers, mode=config.shard_mode)
        self._eval_x = dataset.test_x[: config.eval_subset]
        self._eval_y = dataset.test_y[: config.eval_subset]

        # GBS controller (shared deterministic schedule, §3.2).
        self.gbs_controller = GbsController(
            config.gbs,
            initial_gbs=config.initial_lbs * self.n_workers,
            train_size=dataset.train_size,
        )

        # Workers.
        self.workers: list[Worker] = []
        for w in range(self.n_workers):
            model = build_model(
                config.model, self.rng_pool.get("model-init"), **config.model_kwargs
            )
            sampler = MinibatchSampler(shards[w], self.rng_pool.get(f"sampler/{w}"))
            monitor = NetworkResourceMonitor(w, topology.network)
            strategy = self._build_strategy(w)
            worker = Worker(
                worker_id=w,
                engine=self,
                model=model,
                sampler=sampler,
                strategy=strategy,
                monitor=monitor,
                config=config,
                rng=self.rng_pool.get(f"worker/{w}"),
            )
            strategy.setup(worker)
            self.workers.append(worker)

        # Result recording.
        self.result = RunResult(
            n_workers=self.n_workers, horizon=0.0, metrics=self.metrics
        )
        self.result.accuracy = [TimeSeries() for _ in range(self.n_workers)]
        self.result.loss = [TimeSeries() for _ in range(self.n_workers)]
        self.result.lbs = [TimeSeries() for _ in range(self.n_workers)]
        self.result.iterations = [0] * self.n_workers
        self.result.gbs.append(0.0, self.gbs_controller.gbs)
        self.result.active_workers.append(0.0, len(self.active))
        self._g_gbs.set(self.gbs_controller.gbs)
        self._g_active.set(len(self.active))
        for w in range(self.n_workers):
            self.result.lbs[w].append(0.0, config.initial_lbs)
            self._g_lbs.set(config.initial_lbs, w)

        self._started = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        """Attach the shared run metric catalog (docs/observability.md).

        The families live in :class:`~repro.core.run_metrics.RunMetrics`
        so the live backend registers the identical catalog; the private
        aliases below are what workers reference on their hot paths.
        """
        rm = RunMetrics(self.metrics)
        self.run_metrics = rm
        self._c_grad_bytes = rm.c_grad_bytes
        self._c_grad_msgs = rm.c_grad_msgs
        self._c_weight_bytes = rm.c_weight_bytes
        self._h_chosen_n = rm.h_chosen_n
        self._c_iterations = rm.c_iterations
        self._h_iteration_s = rm.h_iteration_s
        self._h_wait_s = rm.h_wait_s
        self._c_wait_total = rm.c_wait_total
        self._c_compute_total = rm.c_compute_total
        self._c_dkt_merges = rm.c_dkt_merges
        self._c_dkt_pulls = rm.c_dkt_pulls
        self._g_gbs = rm.g_gbs
        self._g_lbs = rm.g_lbs
        self._g_queue_depth = rm.g_queue_depth
        self._c_queue_dropped = rm.c_queue_dropped
        self._g_active = rm.g_active
        self._c_events = rm.c_events
        self._c_chaos_dropped = rm.c_chaos_dropped
        self._g_partition = rm.g_partition
        self._c_profile_seconds = rm.c_profile_seconds
        self._c_profile_calls = rm.c_profile_calls

    def _emit_trace_metadata(self) -> None:
        """Name one trace process per worker plus the cluster pseudo-process."""
        tracer = self.tracer
        for w in range(self.n_workers):
            tracer.set_process_name(w, f"worker {w}")
            for tid, name in THREAD_NAMES.items():
                tracer.set_thread_name(w, tid, name)
        tracer.set_process_name(self.cluster_pid, "cluster")
        tracer.set_thread_name(self.cluster_pid, 0, "control")

    @property
    def cluster_pid(self) -> int:
        """Trace pid for cluster-wide events (one past the worker pids)."""
        return self.n_workers

    def _build_dataset(self) -> SyntheticImageDataset:
        rng = self.rng_pool.get("dataset")
        cfg = self.config
        if cfg.dataset == "cifar_like":
            return SyntheticImageDataset.cifar_like(
                rng,
                train_size=cfg.train_size,
                test_size=cfg.test_size,
                **cfg.dataset_kwargs,
            )
        if cfg.dataset == "imagenet_like":
            return SyntheticImageDataset.imagenet_like(
                rng,
                train_size=cfg.train_size,
                test_size=cfg.test_size,
                **cfg.dataset_kwargs,
            )
        raise ValueError(f"unknown dataset preset {cfg.dataset!r}")

    def _build_strategy(self, worker_id: int):
        # Imported lazily: the registry depends on core.api.
        from repro.baselines.registry import create_strategy

        return create_strategy(self.config, worker_id)

    # ------------------------------------------------------------------
    # Physics queries (used by workers)
    # ------------------------------------------------------------------
    def iteration_duration(self, worker: int, batch: int, t: float) -> float:
        """Simulated duration of one gradient iteration (compute model)."""
        return self.topology.compute[worker].iter_time(
            batch, t, self.rng_pool.get(f"jitter/{worker}")
        )

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

    def send_gradients(
        self, src: int, dst: int, msg: GradientMessage, *, chosen_n: float | None
    ) -> None:
        """Ship a gradient message over the simulated link, recording stats."""
        nbytes = msg.wire_bytes()
        self._deliver(
            src, dst, nbytes, self.workers[dst].on_gradient_message, msg,
            kind="grad",
        )
        if self.config.record_link_stats:
            key = (src, dst)
            self._c_grad_bytes.inc(nbytes, src, dst)
            self._c_grad_msgs.inc(1, src, dst)
            self.result.link_entries.setdefault(key, TimeSeries()).append(
                self.clock.now, msg.num_entries()
            )
            if chosen_n is not None:
                self._h_chosen_n.observe(chosen_n, f"{src}->{dst}")
                self.result.link_chosen_n.setdefault(key, TimeSeries()).append(
                    self.clock.now, chosen_n
                )
                if self.tracer.enabled:
                    self.tracer.counter(
                        f"chosen_n {src}->{dst}", src, self.clock.now,
                        {"n": round(chosen_n, 3)},
                    )

    def send_gradients_batch(
        self, src: int, items: list[tuple[int, GradientMessage, float | None]]
    ) -> None:
        """Ship one worker's same-instant gradient fan-out as a batch.

        ``items`` is ``[(dst, msg, chosen_n), ...]`` in destination
        order. When the network matrix is vector-mode and no fault
        injector is armed, the per-link arithmetic for every live
        destination runs as one vectorized call; trace spans, delivery
        scheduling, and link stats still run per destination in the
        original order, so traces, metrics, and event sequence numbers
        are byte-identical to the sequential path. Anything the batch
        cannot express exactly (chaos faults, egress queues, traced
        bandwidths) falls back to :meth:`send_gradients` per item.
        """
        network = self.topology.network
        if (
            len(items) < 2
            or self._fault_injector is not None
            or not getattr(network, "vectorized", False)
        ):
            for dst, msg, chosen_n in items:
                self.send_gradients(src, dst, msg, chosen_n=chosen_n)
            return
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
        record = self.config.record_link_stats
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
            if record:
                key = (src, dst)
                self._c_grad_bytes.inc(nbytes, src, dst)
                self._c_grad_msgs.inc(1, src, dst)
                self.result.link_entries.setdefault(key, TimeSeries()).append(
                    now, msg.num_entries()
                )
                if chosen_n is not None:
                    self._h_chosen_n.observe(chosen_n, f"{src}->{dst}")
                    self.result.link_chosen_n.setdefault(key, TimeSeries()).append(
                        now, chosen_n
                    )
                    if tracing:
                        tracer.counter(
                            f"chosen_n {src}->{dst}", src, now,
                            {"n": round(chosen_n, 3)},
                        )

    def send_control(self, src: int, dst: int, msg) -> None:
        """Route a control message to the destination worker's handler."""
        if isinstance(msg, DktRequestMessage):
            handler = self.workers[dst].on_dkt_request
        elif isinstance(msg, LossShareMessage):
            handler = self.workers[dst].on_loss_share
        elif isinstance(msg, RcpShareMessage):
            handler = self.workers[dst].on_rcp_share
        elif isinstance(msg, ControlMessage):
            handler = self.workers[dst].on_control_message
        else:
            raise TypeError(f"not a control message: {type(msg).__name__}")
        self._deliver(src, dst, msg.wire_bytes(), handler, msg, kind="ctrl")

    def send_weights(self, src: int, dst: int, msg: WeightMessage) -> None:
        """Ship a full weight snapshot (DKT payload) over the link."""
        nbytes = msg.wire_bytes()
        self._c_weight_bytes.inc(nbytes, src, dst)
        self._deliver(
            src, dst, nbytes, self.workers[dst].on_weight_message, msg,
            kind="weights",
        )

    def active_peers(self, worker: int) -> list[int]:
        """The peers a worker exchanges with: active, and (when a
        partial overlay is configured) adjacent in the peer graph.

        With an overlay this iterates the worker's *neighbourhood*, not
        the active set, so per-event peer bookkeeping costs O(degree)
        — independent of the cluster size (overlay edges never include
        the worker itself, so the result is unchanged from the dense
        scan)."""
        if self.peer_graph is not None:
            active = self.active
            return sorted(
                w for w in self.peer_graph.neighbors(worker) if w in active
            )
        return sorted(w for w in self.active if w != worker)

    def active_members(self) -> list[int]:
        """Sorted active worker ids, cached between membership changes.

        ``recompute_lbs`` needs the full member list on every GBS/RCP
        update; at 1,000 workers re-sorting the active set per call
        dominates, so the engine caches it and invalidates on churn."""
        members = self._active_members
        if members is None:
            members = self._active_members = sorted(self.active)
        return members

    def broadcast_rcp(self, src: int, rcp: float) -> None:
        """Share a worker's measured RCP with every active peer."""
        # Handlers only read the message, so every destination shares it.
        msg = RcpShareMessage(sender=src, rcp=rcp)
        for dst in self.active_peers(src):
            self.send_control(src, dst, msg)

    def broadcast_loss_share(self, src: int, iteration: int, avg_loss: float) -> None:
        """Share a worker's trailing-average loss with every active peer."""
        msg = LossShareMessage(sender=src, iteration=iteration, avg_loss=avg_loss)
        for dst in self.active_peers(src):
            self.send_control(src, dst, msg)

    # ------------------------------------------------------------------
    # Elastic membership (extension)
    # ------------------------------------------------------------------
    def _apply_membership_event(self, event) -> None:
        from repro.cluster.messages import DktRequestMessage

        worker = self.workers[event.worker]
        self._active_members = None  # invalidate the sorted-members cache
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
        self.result.active_workers.append(self.clock.now, len(self.active))
        self._g_active.set(len(self.active))
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
            # Bootstrap: pull fresh weights from the best-known active
            # peer (DKT mechanics double as the join protocol), then
            # resume training.
            target = worker.dkt.pull_target()
            if target is None or target not in self.active:
                candidates = [w for w in self.active if w != event.worker]
                target = candidates[0]
            self.send_control(
                event.worker,
                target,
                DktRequestMessage(sender=event.worker, iteration=worker.iteration),
            )
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

    def _blackout_edge(self, fault: "LinkFault", delta: int) -> None:
        self._active_blackouts += delta
        self._g_partition.set(self._active_blackouts)
        if self.tracer.enabled:
            self.tracer.instant(
                "blackout-start" if delta > 0 else "blackout-end",
                self.cluster_pid, 0, self.clock.now, cat="chaos",
                args={"src": fault.src, "dst": fault.dst,
                      "bidirectional": fault.bidirectional},
                scope="g",
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
    # Progress tracking & the GBS tick
    # ------------------------------------------------------------------
    def global_epoch(self) -> float:
        """Cluster-wide training progress: samples drawn / training size."""
        drawn = sum(w.sampler.samples_drawn for w in self.workers)
        return drawn / self.dataset.train_size

    def _gbs_tick(self) -> None:
        if self.stopped:
            return
        old = self.gbs_controller.gbs
        new = self.gbs_controller.maybe_update(self.global_epoch())
        if new != old:
            self.result.gbs.append(self.clock.now, new)
            self._g_gbs.set(new)
            if self.tracer.enabled:
                self.tracer.counter(
                    "gbs", self.cluster_pid, self.clock.now, {"gbs": new}
                )
                self.tracer.instant(
                    "gbs-update", self.cluster_pid, 0, self.clock.now,
                    cat="ctrl", args={"old": old, "new": new},
                )
            for w in self.workers:
                # Announcement reaches every worker after a short
                # control-plane delay.
                self.clock.schedule_in(_GBS_ANNOUNCE_DELAY, w.set_gbs, new)
        self.clock.schedule_in(self.config.gbs.update_period_s, self._gbs_tick)

    # ------------------------------------------------------------------
    # Recording hooks (called by workers)
    # ------------------------------------------------------------------
    def record_loss(self, worker: int, loss: float) -> None:
        """Record one iteration's training loss (and count the iteration)."""
        self.result.loss[worker].append(self.clock.now, loss)
        self.result.iterations[worker] += 1
        self._c_iterations.inc(1, worker)

    def record_lbs(self, worker: int, lbs: int) -> None:
        """Record a local-batch-size change for the Fig. 6/19 series."""
        self.result.lbs[worker].append(self.clock.now, lbs)
        self._g_lbs.set(lbs, worker)
        if self.tracer.enabled:
            self.tracer.counter("lbs", worker, self.clock.now, {"lbs": lbs})

    def record_dkt_merge(self, worker: int) -> None:
        """Count one applied direct-knowledge-transfer merge."""
        self.result.dkt_merges += 1
        self._c_dkt_merges.inc(1, worker)

    def evaluate_worker(self, worker: int) -> None:
        """Out-of-band accuracy measurement (costs no simulated time)."""
        _, acc = self.workers[worker].model.evaluate(self._eval_x, self._eval_y)
        self.result.accuracy[worker].append(self.clock.now, acc)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._started = True
        if self.config.gbs.enabled:
            self.clock.schedule_in(self.config.gbs.update_period_s, self._gbs_tick)
        if self.membership is not None:
            for event in self.membership.events:
                self.clock.schedule(event.time, self._apply_membership_event, event)
        if self.chaos is not None:
            self._schedule_chaos_markers()
        for w in self.workers:
            if self.config.lbs.enabled:
                cost = w.run_profiling()
                self.clock.schedule_in(cost, w.try_start_iteration)
            else:
                w.try_start_iteration()

    def _profiled(self):
        """Activate this engine's profiler (no-op context when unset)."""
        if self.profiler is not None:
            return _profile.activate(self.profiler)
        return nullcontext()

    def run(self, horizon: float) -> RunResult:
        """Advance the simulation to ``horizon`` seconds and finalize."""
        self.advance_to(horizon)
        return self.finalize()

    def advance_to(self, horizon: float) -> None:
        """Pump simulated events up to ``horizon`` (without finalizing)."""
        if not self._started:
            self._start()
        with self._profiled():
            self.clock.run_until(horizon)

    def run_epochs(self, target_epochs: float, *, max_time: float = 1e6) -> RunResult:
        """Run until the cluster has processed ``target_epochs`` of data."""
        if not self._started:
            self._start()
        with self._profiled():
            while self.global_epoch() < target_epochs and self.clock.now < max_time:
                nxt = self.clock.peek_time()
                if nxt is None:
                    break
                self.clock.run_until(
                    min(max_time, max(nxt, self.clock.now + 1.0)),
                    max_events=10_000,
                )
        return self.finalize()

    def finalize(self) -> RunResult:
        """Stop the run, take final accuracy samples, and close the books."""
        self.stopped = True
        # Final accuracy sample for every worker at the stop time.
        for w in range(self.n_workers):
            self.evaluate_worker(w)
        self.result.horizon = self.clock.now
        for w in self.workers:
            # Close out a wait interval still open at the horizon.
            wait = w.wait_time
            if w.waiting and w._wait_started is not None:
                open_wait = self.clock.now - w._wait_started
                wait += open_wait
                if self.tracer.enabled:
                    self.tracer.complete(
                        "sync-wait", w.worker_id, TID_SYNC, w._wait_started,
                        open_wait, cat="sync",
                    )
            self._c_wait_total.inc(wait, w.worker_id)
            self._c_compute_total.inc(w.compute_time, w.worker_id)
        self.result.epochs = self.global_epoch()
        self.result.events = self.clock.events_processed
        self._c_events.inc(self.clock.events_processed)
        if self.profiler is not None:
            for name, (calls, total) in self.profiler.totals().items():
                self._c_profile_seconds.inc(total, name)
                self._c_profile_calls.inc(calls, name)
        return self.result
