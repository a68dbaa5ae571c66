"""The worker host: the one surface :class:`~repro.core.worker.Worker` talks to.

A :class:`WorkerHost` builds the workers it holds (shards, models,
strategies) and owns everything they call that does not depend on how
time passes or how bytes move, recording into one :class:`RunResult`.
A backend supplies three hooks:

* ``clock`` — ``now``, ``schedule_in`` and ``events_processed``;
* ``_deliver(src, dst, nbytes, handler, msg, *, kind)`` — move one
  message towards worker ``dst``;
* ``global_epoch()`` — cluster-wide progress (default: the workers held
  here; a host that holds a subset adds what it hears of the rest).

:class:`~repro.core.engine.TrainingEngine` (every worker, a simulated
clock, modelled links) and
:class:`~repro.transport.runtime.LiveWorkerRuntime` (one worker, wall
time, real sockets) are the two backends. Construction is deterministic
for ``(config, topology, seed)``: every random stream derives from the
seed through :class:`RngPool` and every host replays the shared
``model-init`` stream in full, so a worker starts from the same model,
shard and jitter stream whichever host builds it.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.messages import (
    ControlMessage,
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.gbs_controller import GbsController
from repro.core.run_metrics import RunMetrics
from repro.core.worker import Worker
from repro.nn.datasets import MinibatchSampler, SyntheticImageDataset
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import activate
from repro.obs.trace import NULL_TRACER, THREAD_NAMES, TID_SYNC
from repro.utils.metrics import TimeSeries, accuracy_at_time
from repro.utils.rng import RngPool

__all__ = ["WorkerHost", "RunResult", "CONTROL_HANDLERS", "MESSAGE_HANDLERS"]

# Control-plane propagation delay for GBS announcements (seconds).
_GBS_ANNOUNCE_DELAY = 0.05

# Message type -> name of the Worker method that handles it. Names, not
# functions: the bound method is looked up on the receiving worker when
# the message is routed.
CONTROL_HANDLERS = {
    DktRequestMessage: "on_dkt_request",
    LossShareMessage: "on_loss_share",
    RcpShareMessage: "on_rcp_share",
    ControlMessage: "on_control_message",
}
MESSAGE_HANDLERS = {
    GradientMessage: "on_gradient_message",
    WeightMessage: "on_weight_message",
    **CONTROL_HANDLERS,
}

# RunResult's series fields by shape, for to_state / absorb.
_PER_WORKER = ("accuracy", "loss", "lbs")
_PER_LINK = ("link_entries", "link_chosen_n")
_CLUSTER = ("gbs", "active_workers")
_STATE = _PER_WORKER + _PER_LINK + _CLUSTER + (
    "iterations", "dkt_merges", "epochs", "events",
)


def _series(table: dict, key) -> TimeSeries:
    """``table[key]``, created on first use (``setdefault`` would build
    and drop a ``TimeSeries`` on every call)."""
    series = table.get(key)
    if series is None:
        series = table[key] = TimeSeries()
    return series


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

    @classmethod
    def blank(
        cls, n_workers: int, *, horizon: float = 0.0, metrics: MetricsRegistry
    ) -> "RunResult":
        """A result with one empty series and a zero count per worker."""
        result = cls(n_workers=n_workers, horizon=horizon, metrics=metrics)
        for name in _PER_WORKER:
            setattr(result, name, [TimeSeries() for _ in range(n_workers)])
        result.iterations = [0] * n_workers
        return result

    def to_state(self) -> dict:
        """A picklable copy of every recorded series and count — the
        inverse of :meth:`absorb`. The metrics registry travels
        separately (``MetricsRegistry.dump_state``)."""
        return copy.deepcopy({name: getattr(self, name) for name in _STATE})

    def absorb(self, state: dict) -> None:
        """Fold a :meth:`to_state` snapshot into this (``blank``) result.

        Per-worker and per-link series extend, counts add and ``epochs``
        keeps the furthest view, so absorbing each worker's state yields
        what one shared result would have recorded. GBS and membership
        are cluster-wide series of which every host records its own
        view: the first one absorbed is kept."""
        for name in _PER_WORKER:
            for mine, theirs in zip(getattr(self, name), state[name]):
                mine.extend(theirs)
        for name in _PER_LINK:
            table = getattr(self, name)
            for key, theirs in state[name].items():
                _series(table, key).extend(theirs)
        for name in _CLUSTER:
            if not getattr(self, name):
                getattr(self, name).extend(state[name])
        for w, n in enumerate(state["iterations"]):
            self.iterations[w] += n
        self.dkt_merges += state["dkt_merges"]
        self.events += state["events"]
        self.epochs = max(self.epochs, state["epochs"])

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


class WorkerHost:
    """Builds the workers it holds and serves the surface they call.

    ``hosted`` names the worker ids this host runs (default: all of
    them). ``workers`` lists them in id order; a message for any other
    id is handed to ``_deliver`` without a handler, because the host
    that holds the destination looks it up on receipt.
    """

    def __init__(
        self,
        config: TrainConfig,
        topology: ClusterTopology,
        clock,
        *,
        seed: int,
        hosted=None,
        dataset: SyntheticImageDataset | None = None,
        peer_graph=None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        profiler=None,
    ):
        self.config = config
        self.topology = topology
        self.n_workers = topology.n_workers
        self.rng_pool = RngPool(seed)
        self.clock = clock
        self.stopped = False
        hosted = range(self.n_workers) if hosted is None else sorted(hosted)

        # Observability: the tracer defaults to a no-op (hot paths pay
        # one ``tracer.enabled`` check); the metrics registry is always
        # live because RunResult's accounting reads from it; a profiler,
        # when given, is activated by ``profiled()``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self._register_metrics()
        if self.tracer.enabled:
            self._emit_trace_metadata(hosted)

        self.active: set[int] = set(range(self.n_workers))
        self._active_blackouts = 0
        # Partial exchange overlay (extension; None = all-to-all).
        self.peer_graph = peer_graph
        if peer_graph is not None and peer_graph.n_workers != self.n_workers:
            raise ValueError("peer graph sized for a different cluster")
        # Sorted-active-members cache: recompute_lbs reads it on every
        # RCP/GBS update; dropped by _membership_changed().
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

        # Workers. model-init is ONE shared stream consumed in id order,
        # so every id draws its model and only the hosted ones keep it.
        # (The strategy registry depends on core.api: imported lazily.)
        from repro.baselines.registry import create_strategy

        self._hosted: dict[int, Worker] = {}
        for w in range(self.n_workers):
            model = build_model(
                config.model, self.rng_pool.get("model-init"), **config.model_kwargs
            )
            if w not in hosted:
                continue
            sampler = MinibatchSampler(shards[w], self.rng_pool.get(f"sampler/{w}"))
            monitor = NetworkResourceMonitor(w, topology.network)
            strategy = create_strategy(config, w)
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
            self._hosted[w] = worker
        self.workers: list[Worker] = list(self._hosted.values())

        self.result = RunResult.blank(self.n_workers, metrics=self.metrics)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        """Attach the shared run metric catalog (docs/observability.md);
        the private aliases are what workers reference on their hot paths."""
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

    def _emit_trace_metadata(self, hosted) -> None:
        """Name one trace process per worker plus the cluster pseudo-process."""
        tracer = self.tracer
        for w in hosted:
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
        cfg = self.config
        if cfg.dataset not in ("cifar_like", "imagenet_like"):
            raise ValueError(f"unknown dataset preset {cfg.dataset!r}")
        return getattr(SyntheticImageDataset, cfg.dataset)(
            self.rng_pool.get("dataset"),
            train_size=cfg.train_size,
            test_size=cfg.test_size,
            **cfg.dataset_kwargs,
        )

    def _record_start(self) -> None:
        """Open every series and gauge with its value at time zero."""
        self.result.gbs.append(0.0, self.gbs_controller.gbs)
        self.result.active_workers.append(0.0, len(self.active))
        self._g_gbs.set(self.gbs_controller.gbs)
        self._g_active.set(len(self.active))
        for w in self._hosted:
            self.result.lbs[w].append(0.0, self.config.initial_lbs)
            self._g_lbs.set(self.config.initial_lbs, w)

    def _start_workers(self) -> None:
        """Kick off every held worker (after its RCP probes, under LBS)."""
        for w in self.workers:
            if self.config.lbs.enabled:
                cost = w.run_profiling()
                self.clock.schedule_in(cost, w.try_start_iteration)
            else:
                w.try_start_iteration()

    def profiled(self):
        """Install this host's profiler's wrappers (no-op context when unset)."""
        if self.profiler is not None:
            return activate(self.profiler)
        return nullcontext()

    # ------------------------------------------------------------------
    # Physics and peer queries (used by workers)
    # ------------------------------------------------------------------
    def iteration_duration(self, worker: int, batch: int, t: float) -> float:
        """Modelled duration of one gradient iteration (compute model)."""
        return self.topology.compute[worker].iter_time(
            batch, t, self.rng_pool.get(f"jitter/{worker}")
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
        dominates, so the host caches it and invalidates on churn."""
        members = self._active_members
        if members is None:
            members = self._active_members = sorted(self.active)
        return members

    def _membership_changed(self) -> None:
        """Book a change of ``active``: cache, series and gauge."""
        self._active_members = None
        self.result.active_workers.append(self.clock.now, len(self.active))
        self._g_active.set(len(self.active))

    # ------------------------------------------------------------------
    # Message sends (everything crosses ``_deliver``)
    # ------------------------------------------------------------------
    def _handler(self, dst: int, name: str):
        """Worker ``dst``'s bound handler; None when another host holds it."""
        worker = self._hosted.get(dst)
        return None if worker is None else getattr(worker, name)

    def _record_link(self, src, dst, nbytes, msg, chosen_n, now) -> None:
        """Per-link accounting of one gradient message (estimate-based,
        so Max-N budgets compare across backends)."""
        key = (src, dst)
        self._c_grad_bytes.inc(nbytes, src, dst)
        self._c_grad_msgs.inc(1, src, dst)
        _series(self.result.link_entries, key).append(now, msg.num_entries())
        if chosen_n is not None:
            self._h_chosen_n.observe(chosen_n, f"{src}->{dst}")
            _series(self.result.link_chosen_n, key).append(now, chosen_n)
            if self.tracer.enabled:
                self.tracer.counter(
                    f"chosen_n {src}->{dst}", src, now, {"n": round(chosen_n, 3)}
                )

    def send_gradients(
        self, src: int, dst: int, msg: GradientMessage, *, chosen_n: float | None
    ) -> None:
        """Ship a gradient message, recording the link stats."""
        nbytes = msg.wire_bytes()
        self._deliver(
            src, dst, nbytes, self._handler(dst, "on_gradient_message"), msg,
            kind="grad",
        )
        self._record_link(src, dst, nbytes, msg, chosen_n, self.clock.now)

    def send_gradients_batch(
        self, src: int, items: list[tuple[int, GradientMessage, float | None]]
    ) -> None:
        """Ship one worker's same-instant gradient fan-out,
        ``[(dst, msg, chosen_n), ...]`` in destination order."""
        for dst, msg, chosen_n in items:
            self.send_gradients(src, dst, msg, chosen_n=chosen_n)

    def send_control(self, src: int, dst: int, msg) -> None:
        """Route a control message to the destination worker's handler."""
        name = CONTROL_HANDLERS.get(type(msg))
        if name is None:
            raise TypeError(f"not a control message: {type(msg).__name__}")
        self._deliver(
            src, dst, msg.wire_bytes(), self._handler(dst, name), msg, kind="ctrl"
        )

    def send_weights(self, src: int, dst: int, msg: WeightMessage) -> None:
        """Ship a full weight snapshot (DKT payload)."""
        nbytes = msg.wire_bytes()
        self._c_weight_bytes.inc(nbytes, src, dst)
        self._deliver(
            src, dst, nbytes, self._handler(dst, "on_weight_message"), msg,
            kind="weights",
        )

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

    def _bootstrap_pull(self, worker: Worker) -> None:
        """Freshness for a (re)joining worker: a DKT-style weight pull
        from the best-known active peer (the lowest id before any loss
        shares) — DKT mechanics double as the join protocol."""
        wid = worker.worker_id
        target = worker.dkt.pull_target()
        if target is None or target not in self.active:
            target = min((w for w in self.active if w != wid), default=None)
        if target is not None:
            self.send_control(
                wid, target,
                DktRequestMessage(sender=wid, iteration=worker.iteration),
            )

    def _blackout_edge(self, fault, delta: int) -> None:
        """A chaos blackout window opened (+1) or closed (-1)."""
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

    # ------------------------------------------------------------------
    # Progress tracking & the GBS tick
    # ------------------------------------------------------------------
    def global_epoch(self) -> float:
        """Cluster-wide training progress: samples drawn / training size."""
        drawn = sum(w.sampler.samples_drawn for w in self.workers)
        return drawn / self.dataset.train_size

    def _arm_gbs_tick(self) -> None:
        """Schedule the next GBS tick (a no-op with the controller off)."""
        if self.config.gbs.enabled:
            self.clock.schedule_in(self.config.gbs.update_period_s, self._gbs_tick)

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
        self._arm_gbs_tick()

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
        """Out-of-band accuracy measurement (costs no modelled time)."""
        held = self._hosted.get(worker)
        if held is None:
            raise ValueError(f"worker {worker} is not held by this host")
        _, acc = held.model.evaluate(self._eval_x, self._eval_y)
        self.result.accuracy[worker].append(self.clock.now, acc)

    def finalize(self) -> RunResult:
        """Stop the run, take final accuracy samples, and close the books."""
        self.stopped = True
        # Final accuracy sample for every worker at the stop time.
        for w in self._hosted:
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
            for name, (calls, seconds) in self.profiler.rows().items():
                self._c_profile_seconds.inc(seconds, name)
                self._c_profile_calls.inc(calls, name)
        return self.result
