"""Per-process worker runtime for the live (``--backend proc``) engine.

:class:`LiveWorkerRuntime` is the :class:`~repro.core.host.WorkerHost`
of one OS process: it holds one :class:`~repro.core.worker.Worker` —
GBS/LBS controllers, ``TransmissionPlanner`` and DKT unchanged — and
everything the worker calls is the host's shared code. Only the hooks
are live:

* **clock** — :class:`WallClock` is the simulator's event heap paced
  to the wall via a ``speedup`` factor, so the same horizons, GBS
  periods, and bandwidth traces apply (a 600-s modelled run at speedup
  20 takes 30 wall seconds);
* **delivery** — a message that survived the host's ``_send`` crosses a
  :class:`~repro.transport.mesh.PeerMesh` (serialized by
  :mod:`repro.transport.codec`, paced by the token-bucket shaper)
  instead of the simulator's modelled links, and enters the receiving
  process's heap as an arrival for the host's ``_receive``;
* **progress** — ``global_epoch`` adds the peers' heartbeat-reported
  sample counts to the worker's own.

Gradient/weight *math* is real — the worker draws real minibatches and
applies real gradients — while iteration timing and RCP probe durations
follow the modelled compute profile (the paper's calibrated
heterogeneity) exactly like the simulator: the real step runs at its
event's due time and never shifts the modelled schedule.

``run_live_worker`` is the child-process entry point: it performs the
port-exchange handshake with :class:`~repro.core.live_engine.LiveEngine`
over a pipe, trains to the horizon, then ships its metrics, series, and
trace events back for merging.

Crash recovery (docs/robustness.md): when the run spec carries a
:class:`~repro.transport.checkpoint.CheckpointConfig`, the runtime
snapshots its full training state every ``interval_s`` modelled
seconds. A child respawned with ``resume=True`` restores the newest
readable checkpoint before binding its port, resumes the cluster's
modelled clock at the offset the supervisor hands it, rejoins the
active set, and bootstraps freshness with a DKT-style weight pull from
a live peer. Surviving children receive ``("revive", worker, port)``
pipe commands and re-open their mesh links to the rejoiner's new port.
A chaos plan's link faults are judged by the host's ``_send``, as in the
simulator, with windows on the modelled clock; an injected delay holds
the frame back in its link's FIFO outbox (``PeerMesh.send(delay_s=)``).
"""

from __future__ import annotations

import asyncio
import os
import threading
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.chaos import ChaosPlan, LinkFaultInjector
from repro.cluster.simclock import SimClock
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.host import MESSAGE_HANDLERS, RunResult, WorkerHost
from repro.obs.flight import FlightRecorder
from repro.obs.profile import Profiler
from repro.obs.trace import TID_NET, Tracer
from repro.transport.checkpoint import CheckpointConfig, load_latest, write_checkpoint
from repro.transport.codec import Heartbeat
from repro.transport.mesh import (
    CHANNEL_CONTROL,
    CHANNEL_DATA,
    PeerMesh,
    TransportConfig,
)
from repro.transport.shm import shm_available

__all__ = ["WallClock", "LiveRunSpec", "LiveWorkerRuntime", "run_live_worker"]

# Version of the checkpoint ``meta`` layout. Checkpoints never outlive
# a run, so restore_from accepts exactly this one.
CHECKPOINT_FORMAT = 3
# Plain-value attributes a checkpoint saves and restores by name.
_WORKER_SCALARS = (
    "iteration", "model_version", "lbs", "gbs", "_iter_time_ema",
    "stats_grad_msgs_sent", "stats_grad_msgs_received", "compute_time", "wait_time",
)
_GBS_SCALARS = ("gbs", "phase", "_last_growth_epoch")


class WallClock(SimClock):
    """The simulator's event heap, paced to the wall.

    Modelled events run on :class:`SimClock`'s ``(time, seq)`` heap with
    the simulator's semantics: inside a callback ``now`` is its *due*
    time, so ``schedule_in(d)`` lands at due + ``d`` however much wall
    time the callback's real work took. The live additions are an anchor
    mapping loop time onto the modelled axis (:meth:`wall_now`) and
    :meth:`arrive`, which books an event from outside the heap — a mesh
    message, a peer death, a supervisor command — and wakes the pacer
    (:meth:`LiveWorkerRuntime.wait_horizon`), the one loop that pumps
    the heap up to the wall.
    """

    def __init__(self, speedup: float):
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        super().__init__()
        self.speedup = float(speedup)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = 0.0
        self._wake = asyncio.Event()

    def start(self, loop: asyncio.AbstractEventLoop, *, offset: float = 0.0) -> None:
        """Anchor the clock so the current loop time reads ``offset``
        modelled seconds (0.0 for a fresh run; a respawned worker is
        started at the cluster's current modelled time)."""
        self._loop = loop
        self._t0 = loop.time() - offset / self.speedup
        self.run_until(offset)

    def wall_now(self) -> float:
        """The modelled time the wall has reached (``now`` before
        :meth:`start`)."""
        if self._loop is None:
            return self.now
        return (self._loop.time() - self._t0) * self.speedup

    def arrive(self, fn, *args) -> None:
        """Book ``fn(*args)`` at ``max(now, wall_now())`` and wake the
        pacer: an arrival is never stamped into the modelled past."""
        self.schedule(max(self.now, self.wall_now()), fn, *args)
        self._wake.set()

    async def idle(self, until: float) -> None:
        """Sleep until the wall reaches the next event (or ``until`` if
        sooner), at most 50 ms, or until :meth:`arrive` wakes it."""
        head = self.peek_time()
        self._wake.clear()
        due = until if head is None else min(head, until)
        delay = min(0.05, (due - self.wall_now()) / self.speedup)
        if delay <= 0.0:
            await asyncio.sleep(0)  # behind the wall: let the transport run
            return
        try:
            await asyncio.wait_for(self._wake.wait(), delay)
        except asyncio.TimeoutError:
            pass


@dataclass(frozen=True)
class LiveRunSpec:
    """Everything a child process needs to run one live worker.

    Must stay picklable: it crosses the ``spawn`` boundary.
    """

    config: TrainConfig
    topology: ClusterTopology
    seed: int
    horizon: float
    speedup: float
    transport: TransportConfig = field(default_factory=TransportConfig)
    trace: bool = False
    profile: bool = False
    host: str = "127.0.0.1"
    # Crash recovery: periodic checkpoints (None disables), the fault
    # plan driving link blackout/drop/delay injection, and where each
    # child redirects its stderr (tailed into supervisor error reports).
    checkpoint: CheckpointConfig | None = None
    chaos: ChaosPlan | None = None
    stderr_dir: str | None = None
    # Telemetry delta shipping: wall seconds between incremental
    # metric/trace/flight shipments to the supervisor (None disables —
    # then only the end-of-run result payload exists, and a SIGKILLed
    # worker's telemetry is lost with it).
    ship_interval_s: float | None = 1.0
    # Shared-memory data lanes between co-hosted workers (see
    # docs/architecture.md, "Transport lanes"). ``shm_token`` is the
    # per-run nonce baked into every ring segment name; the supervisor
    # generates it and sweeps leftover segments after the run.
    shm_lanes: bool = False
    shm_token: str = ""

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.speedup <= 0:
            raise ValueError("speedup must be positive")
        if self.ship_interval_s is not None and self.ship_interval_s <= 0:
            raise ValueError("ship_interval_s must be positive (or None)")


class LiveWorkerRuntime(WorkerHost):
    """The :class:`WorkerHost` of one live worker process.

    Holds exactly one :class:`Worker` and supplies the live hooks: a
    :class:`WallClock`, ``_deliver`` over a :class:`PeerMesh`, and a
    ``global_epoch`` that adds the peers' heartbeat-reported progress to
    its own. On top of that it owns what only a real process needs:
    checkpointing, telemetry delta shipping and the resume path.
    """

    def __init__(self, worker_id: int, spec: LiveRunSpec, *, resume: bool = False):
        self.worker_id = worker_id
        self.spec = spec
        self._failure: BaseException | None = None
        super().__init__(
            spec.config, spec.topology, WallClock(spec.speedup),
            seed=spec.seed, hosted=(worker_id,),
            tracer=Tracer() if spec.trace else None,
            profiler=Profiler() if spec.profile else None,
        )
        self.worker = self.workers[0]

        # Peer progress, fed by heartbeats (the live GBS input).
        self._peer_samples: dict[int, int] = {}

        # Fault injection (chaos plan): the host's send-time verdicts on
        # the modelled clock. The rng stream is per-worker so live drop
        # sampling never perturbs the shared simulator streams.
        if spec.chaos is not None and spec.chaos.link_faults:
            self._fault_injector = LinkFaultInjector(
                spec.chaos, self.rng_pool.get(f"chaos/{worker_id}")
            )

        # Supervisor pipe for throttled progress reports (set by
        # _child_main); lets the parent time chaos kills deterministically
        # and compute lost-iteration counts.
        self.progress_conn = None
        self._last_progress_wall = self._last_ship_wall = float("-inf")
        # Iteration count restored from a checkpoint (0 = fresh start);
        # reported to the supervisor so it can compute lost iterations.
        self.restored_iteration = 0

        # Telemetry delta shipping (crash-safety): cumulative metric
        # snapshots plus incremental trace/flight events go to the
        # supervisor every ship_interval_s wall seconds, so a SIGKILL
        # loses at most one interval of telemetry. The flight recorder
        # is always on — it is the black box when tracing is disabled.
        self.flight = FlightRecorder(worker_id)
        self._trace_cursor = 0

        shm_peers = self._shm_lane_peers(resume)
        self.mesh = PeerMesh(
            worker_id,
            on_message=self._on_mesh_message,
            on_peer_dead=lambda peer: self.clock.arrive(self._on_peer_dead, peer),
            on_error=self.fail,
            on_heartbeat=self._on_heartbeat,
            rate_fn=self._link_rate_bytes,
            config=spec.transport,
            metrics=self.metrics,
            tracer=self.tracer,
            now_fn=lambda: self.clock.now,
            progress_fn=lambda: self.worker.sampler.samples_drawn,
            seed=spec.seed,
            host=spec.host,
            shm_out=shm_peers,
            shm_in=shm_peers,
            shm_token=spec.shm_token,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _shm_lane_peers(self, resume: bool) -> set[int]:
        """Which peers' data links ride the shm lane.

        The rule is symmetric — both ends of a link evaluate the same
        min-of-both-directions modelled bandwidth at t=0 against
        ``transport.shm_min_mbps`` — so sender and receiver always agree
        on a link's lane without negotiating. A respawned worker
        (``resume=True``) stays on TCP everywhere: its peers' ring
        attachments still point at the crashed incarnation's segments,
        and the supervisor's revive path downgrades their links to TCP
        to match (see :meth:`PeerMesh.revive`).
        """
        if not self.spec.shm_lanes or resume or not shm_available():
            return set()
        cutoff = self.spec.transport.shm_min_mbps
        network = self.topology.network
        peers: set[int] = set()
        for dst in range(self.n_workers):
            if dst == self.worker_id:
                continue
            fwd = network.bandwidth_at(self.worker_id, dst, 0.0)
            rev = network.bandwidth_at(dst, self.worker_id, 0.0)
            if min(fwd, rev) >= cutoff:
                peers.add(dst)
        return peers

    def _link_rate_bytes(self, dst: int) -> float:
        """The shaper rate for the link to ``dst``: modelled Mbps at the
        current modelled time, converted to wall bytes/s (sped up so a
        transfer's wall duration equals modelled duration / speedup)."""
        mbps = self.topology.network.bandwidth_at(
            self.worker_id, dst, self.clock.now
        )
        return mbps * 1e6 / 8.0 * self.spec.speedup

    def fail(self, exc: BaseException) -> None:
        """Record the first transport failure; the pacer re-raises it."""
        if self._failure is None:
            self._failure = exc

    # ------------------------------------------------------------------
    # Hook: delivery over the mesh
    # ------------------------------------------------------------------
    def _deliver(self, src, dst, nbytes, msg, kind, delay) -> None:
        """Queue ``msg`` on the mesh link to ``dst`` (control traffic on
        the control channel), held back ``delay / speedup`` wall seconds
        for an injected modelled ``delay``; the receiving process books
        it for ``_receive``."""
        channel = CHANNEL_CONTROL if kind == "ctrl" else CHANNEL_DATA
        self.mesh.send(
            dst, channel, msg, trace_name=f"{kind}->{dst}",
            delay_s=delay / self.spec.speedup,
        )

    # ------------------------------------------------------------------
    # Incoming traffic (mesh callbacks; all on the event-loop thread)
    # ------------------------------------------------------------------
    def _on_mesh_message(self, src: int, channel: int, msg) -> None:
        """Book a worker message as a modelled arrival. Unknown payloads
        are ignored (forward compatibility), and so is traffic after
        the local model is finalized."""
        if type(msg) in MESSAGE_HANDLERS and not self.stopped:
            self.clock.arrive(self._receive, self.worker_id, msg)

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        self._peer_samples[hb.sender] = hb.samples_drawn

    def _on_peer_dead(self, peer: int) -> None:
        """A peer exhausted its retry budget: a leave-style membership
        change, exactly like the simulator's churn events."""
        if peer not in self.active:
            return
        self.active.discard(peer)
        self._peer_samples.pop(peer, None)
        self.flight.record("peer-dead", self.clock.now, {"peer": peer})
        self._apply_membership()

    def on_peer_revived(self, peer: int, addr: tuple[str, int]) -> None:
        """The supervisor respawned ``peer`` at ``addr``: rebuild the
        mesh links and fold the rejoin into a membership change.

        Always refreshes the links — even when this worker never got
        around to declaring the peer dead (a fast restart can beat the
        retry budget), the old links point at a port nobody listens on
        and must be superseded before their retry loop gives up.
        """
        self.mesh.revive(peer, addr)
        self.flight.record("peer-revived", self.clock.now, {"peer": peer})
        if peer in self.active:
            return
        self.active.add(peer)
        self._apply_membership()

    def _apply_membership(self) -> None:
        """Book a change of ``active`` and tell the worker."""
        self._membership_changed()
        self.worker.on_membership_change(self.active)

    # ------------------------------------------------------------------
    # Chaos bookkeeping (the flight record of blackout edges)
    # ------------------------------------------------------------------
    def _blackout_edge(self, fault, delta: int) -> None:
        self.flight.record(
            "blackout-start" if delta > 0 else "blackout-end",
            self.clock.now, {"src": fault.src, "dst": fault.dst},
        )
        # Never below zero, whatever order a resumed worker's catch-up
        # edges fire in.
        super()._blackout_edge(fault, max(delta, -self._active_blackouts))

    # ------------------------------------------------------------------
    # Checkpointing (crash recovery)
    # ------------------------------------------------------------------
    def _layer_state(self) -> tuple[dict, dict]:
        """(arrays, meta) for per-layer step state: BatchNorm running
        statistics as arrays, Dropout RNG positions as picklable dicts."""
        arrays: dict = {}
        rng_states: dict[int, dict] = {}
        for i, layer in enumerate(self.worker.model.layers):
            mean = getattr(layer, "running_mean", None)
            if mean is not None:
                arrays[f"__bn{i}/mean"] = mean.copy()
                arrays[f"__bn{i}/var"] = layer.running_var.copy()
            rng = getattr(layer, "rng", None)
            if rng is not None:
                rng_states[i] = rng.bit_generator.state
        return arrays, rng_states

    def checkpoint_state(self) -> tuple[dict, dict]:
        """Everything needed to resume this worker after a SIGKILL."""
        w = self.worker
        arrays = {name: arr.copy() for name, arr in w.model.variables().items()}
        layer_arrays, layer_rngs = self._layer_state()
        arrays.update(layer_arrays)
        meta = {
            "format": CHECKPOINT_FORMAT,
            "worker": self.worker_id,
            "seed": self.spec.seed,
            "n_workers": self.n_workers,
            "iteration": w.iteration,
            "time": self.clock.now,
            "worker_state": {name: getattr(w, name) for name in _WORKER_SCALARS},
            "samples_drawn": w.sampler.samples_drawn,
            "rng": {
                "sampler": w.sampler.rng.bit_generator.state,
                "worker": w.rng.bit_generator.state,
                "jitter": self.rng_pool.get(
                    f"jitter/{self.worker_id}"
                ).bit_generator.state,
                "layers": layer_rngs,
            },
            "rcp_table": dict(w.rcp_table),
            "received_from": dict(w.sync_state.received_from),
            "dkt": {
                "losses": list(w.dkt._losses),
                "shared_losses": dict(w.dkt.shared_losses),
                "merges_applied": w.dkt.merges_applied,
            },
            "gbs_controller": {
                name: getattr(self.gbs_controller, name) for name in _GBS_SCALARS
            },
            "peer_samples": dict(self._peer_samples),
            "metrics": self.metrics.dump_state(),
            "result": self.result.to_state(),
        }
        return arrays, meta

    def restore_from(self, arrays: dict, meta: dict) -> None:
        """Rebuild worker state from a checkpoint (before mesh start).

        Weights, RNG stream positions, counters, controller state, and
        the recorded series come back exactly; anything in flight at
        the crash (outbox frames, queued peer messages, an unfinished
        iteration) is lost by design — see docs/robustness.md.
        """
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint format {meta.get('format')!r} is not the "
                f"supported format {CHECKPOINT_FORMAT}"
            )
        if meta.get("seed") != self.spec.seed or meta.get("worker") != self.worker_id:
            raise ValueError(
                f"checkpoint mismatch: written by worker {meta.get('worker')} "
                f"seed {meta.get('seed')}, restoring as worker "
                f"{self.worker_id} seed {self.spec.seed}"
            )
        w = self.worker
        weights = {
            name: arr for name, arr in arrays.items() if not name.startswith("__bn")
        }
        w.model.set_weights(weights)
        for i, layer in enumerate(w.model.layers):
            mean_key = f"__bn{i}/mean"
            if mean_key in arrays:
                np.copyto(layer.running_mean, arrays[mean_key])
                np.copyto(layer.running_var, arrays[f"__bn{i}/var"])
            rng = getattr(layer, "rng", None)
            if rng is not None and i in meta["rng"]["layers"]:
                rng.bit_generator.state = meta["rng"]["layers"][i]
        w.sampler.rng.bit_generator.state = meta["rng"]["sampler"]
        w.rng.bit_generator.state = meta["rng"]["worker"]
        self.rng_pool.get(f"jitter/{self.worker_id}").bit_generator.state = (
            meta["rng"]["jitter"]
        )
        for name in _WORKER_SCALARS:
            setattr(w, name, meta["worker_state"][name])
        w.sync_state.iteration = w.iteration
        w.sync_state.received_from = dict(meta["received_from"])
        w.sampler.samples_drawn = meta["samples_drawn"]
        w.rcp_table = dict(meta["rcp_table"])
        w.dkt._losses.extend(meta["dkt"]["losses"])
        w.dkt.shared_losses = dict(meta["dkt"]["shared_losses"])
        w.dkt.merges_applied = meta["dkt"]["merges_applied"]
        for name in _GBS_SCALARS:
            setattr(self.gbs_controller, name, meta["gbs_controller"][name])
        self._peer_samples = dict(meta["peer_samples"])
        # Counters add onto a fresh registry: an exact restore.
        self.metrics.merge_state(meta["metrics"])
        self.result.absorb(meta["result"])
        self.restored_iteration = w.iteration

    def _mark(self, name: str) -> None:
        """Note a lifecycle event at the current iteration: always in the
        flight recorder, and in the trace when tracing."""
        now = self.clock.now
        self.flight.record(name, now, {"iteration": self.worker.iteration})
        if self.tracer.enabled:
            self.tracer.instant(
                name, self.worker_id, TID_NET, now,
                cat="chaos", args={"iteration": self.worker.iteration},
            )

    def _checkpoint_tick(self) -> None:
        if self.stopped:
            return
        cfg = self.spec.checkpoint
        arrays, meta = self.checkpoint_state()
        write_checkpoint(
            cfg.directory, self.worker_id, arrays, meta, retention=cfg.retention
        )
        self._mark("checkpoint")
        self.clock.schedule_in(cfg.interval_s, self._checkpoint_tick)

    # ------------------------------------------------------------------
    # Hook: progress; recording override
    # ------------------------------------------------------------------
    def global_epoch(self) -> float:
        """Estimated cluster progress: own samples plus the peers' last
        heartbeat-reported counts, over the training-set size."""
        drawn = self.worker.sampler.samples_drawn + sum(self._peer_samples.values())
        return drawn / self.dataset.train_size

    def record_loss(self, worker: int, loss: float) -> None:
        """Record one iteration's loss, then leave a flight record."""
        super().record_loss(worker, loss)
        self.flight.record(
            "iteration", self.clock.now,
            {"iteration": self.worker.iteration, "loss": round(float(loss), 5)},
        )

    def _housekeep(self, wall: float) -> None:
        """The pacer's wall-cadence chores (``wall`` in seconds).

        A throttled ``("progress", w, iteration, t)`` to the supervisor
        — cheap (a few dozen bytes, at most ~4 Hz wall) and what lets
        the parent gate chaos kills on real progress and account for
        lost iterations after a crash — and a telemetry delta every
        ``ship_interval_s``.
        """
        if self.progress_conn is None:
            return
        if wall - self._last_progress_wall >= 0.25:
            self._last_progress_wall = wall
            try:
                self.progress_conn.send(
                    ("progress", self.worker_id, self.worker.iteration, self.clock.now)
                )
            except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
                self.progress_conn = None
        interval = self.spec.ship_interval_s
        if interval is not None and wall - self._last_ship_wall >= interval:
            self._last_ship_wall = wall
            self.ship_delta()

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start_training(
        self, loop: asyncio.AbstractEventLoop, *, resume: dict | None = None
    ) -> None:
        """Anchor the clock and kick off the worker's training loop.

        ``resume`` (from the supervisor's go message) carries the
        cluster's current modelled time and active set: the clock jumps
        to the offset (the crash gap stays visible in every series),
        the restored worker re-seeds its sync state at its own
        iteration, and freshness comes from a DKT-style pull against a
        live peer — the same bootstrap the simulator's join events run.
        """
        if resume is None:
            self.clock.start(loop)
            self._record_start()
            self._start_workers()
        else:
            self.clock.start(loop, offset=float(resume.get("clock_offset", 0.0)))
            w = self.worker
            self._g_lbs.set(w.lbs, self.worker_id)
            self._g_gbs.set(self.gbs_controller.gbs)
            # Peers have advanced past the checkpoint; re-seed the sync
            # gate at our own (restored) iteration so neither side
            # blocks on history the other never saw.
            w.sync_state.received_from = {p: w.iteration for p in w.peers}
            self.active = {self.worker_id} | set(resume.get("active", ()))
            self._apply_membership()
            self._mark("worker-rejoined")
            self._bootstrap_pull(w)
            w.try_start_iteration()
        self._arm_gbs_tick()
        cfg = self.spec.checkpoint
        if cfg is not None:
            self.clock.schedule_in(cfg.interval_s, self._checkpoint_tick)
        if self.spec.chaos is not None:
            self._schedule_blackout_markers(self.spec.chaos)

    async def wait_horizon(self, inbox: asyncio.Queue | None = None) -> None:
        """The pacer: run the modelled events the wall has reached, up
        to the horizon.

        Each pass books supervisor commands (peer revivals) as arrivals,
        does the wall-cadence housekeeping, pumps every event due by the
        wall, then idles until the next one is due or an arrival wakes
        it. A callback exception propagates out of here, and so does the
        first transport failure the mesh reported.
        """
        clock = self.clock
        horizon = self.spec.horizon
        while clock.now < horizon:
            if self._failure is not None:
                raise self._failure
            while inbox is not None and not inbox.empty():
                msg = inbox.get_nowait()
                if msg and msg[0] == "revive":
                    clock.arrive(self.on_peer_revived, msg[1], (self.spec.host, msg[2]))
            due = clock.wall_now()
            self._housekeep(due / clock.speedup)
            clock.run_until(min(due, horizon))
            await clock.idle(horizon)
        if self._failure is not None:
            raise self._failure

    # ------------------------------------------------------------------
    # Telemetry delta shipping
    # ------------------------------------------------------------------
    def ship_delta(self) -> None:
        """Ship one incremental telemetry delta to the supervisor.

        The metrics snapshot is *cumulative* (``dump_state`` of the
        whole registry): the parent keeps only the latest one per
        incarnation, so shipping is idempotent and a lost delta costs
        one interval of staleness, never double counting. Trace events
        ship incrementally through a cursor; flight-recorder events are
        drained (shipped exactly once).
        """
        if self.progress_conn is None:
            return
        trace_events, self._trace_cursor = self.tracer.delta_events(
            self._trace_cursor
        )
        payload = {
            "iteration": self.worker.iteration,
            "time": self.clock.now,
            "metrics": self.metrics.dump_state(),
            "trace_events": trace_events,
            "flight": self.flight.drain(),
        }
        try:
            self.progress_conn.send(("delta", self.worker_id, payload))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            self.progress_conn = None

    def finalize(self) -> RunResult:
        """Stop training, take the final accuracy sample, close books."""
        self.flight.record(
            "finalize", self.clock.now, {"iteration": self.worker.iteration}
        )
        return super().finalize()

    def result_payload(self) -> dict:
        """The picklable per-worker result shipped back to the parent.

        ``trace_events`` and ``flight`` are incremental past the last
        shipped delta (the parent accumulates the delta stream), so a
        run with shipping disabled ships everything here and a run with
        shipping enabled ships only the tail — no duplicates either way.
        """
        trace_events, self._trace_cursor = self.tracer.delta_events(
            self._trace_cursor
        )
        return {
            "result": self.result.to_state(),
            "metrics": self.metrics.dump_state(),
            "trace_events": trace_events,
            "flight": self.flight.drain(),
        }


async def _child_main(
    worker_id: int, spec: LiveRunSpec, conn, resume: bool = False
) -> None:
    loop = asyncio.get_running_loop()
    inbox: asyncio.Queue = asyncio.Queue()

    def _pump() -> None:
        # The pipe pump: a daemon thread blocks on conn.recv() and
        # forwards every parent message into the event loop, so the
        # child can react to supervisor commands (peer revivals) at any
        # point of the run, not just at fixed handshake steps.
        try:
            while True:
                msg = conn.recv()
                loop.call_soon_threadsafe(inbox.put_nowait, msg)
        except (EOFError, OSError):
            try:
                loop.call_soon_threadsafe(inbox.put_nowait, ("eof",))
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    runtime = LiveWorkerRuntime(worker_id, spec, resume=resume)
    if resume and spec.checkpoint is not None:
        restored = load_latest(spec.checkpoint.directory, worker_id)
        if restored is not None:
            runtime.restore_from(*restored)
    runtime.progress_conn = conn
    threading.Thread(target=_pump, name="pipe-pump", daemon=True).start()
    port = await runtime.mesh.start()
    conn.send(("port", worker_id, port, runtime.restored_iteration))
    message = await inbox.get()
    if message[0] != "ports":  # pragma: no cover - protocol error
        raise RuntimeError(f"expected port map, got {message[0]!r}")
    port_map = {w: (spec.host, p) for w, p in message[1].items()}
    with runtime.profiled():
        await runtime.mesh.connect(port_map)
    conn.send(("ready", worker_id))
    message = await inbox.get()
    if message[0] != "go":  # pragma: no cover - protocol error
        raise RuntimeError(f"expected go, got {message[0]!r}")
    resume_info = message[1] if len(message) > 1 else None
    with runtime.profiled():
        runtime.start_training(loop, resume=resume_info)
        await runtime.wait_horizon(inbox)
        runtime.finalize()
    await runtime.mesh.close()
    conn.send(("result", worker_id, runtime.result_payload()))


def run_live_worker(
    worker_id: int, spec: LiveRunSpec, conn, resume: bool = False
) -> None:
    """Child-process entry point (must stay importable for ``spawn``).

    ``resume=True`` marks a supervised respawn: the child restores its
    newest checkpoint before handshaking, and ``start_training`` runs
    the rejoin path with the context the go message carries.
    """
    if spec.stderr_dir:
        # Capture crash output where the supervisor can tail it into
        # handshake-failure and unexpected-death error reports.
        try:
            os.makedirs(spec.stderr_dir, exist_ok=True)
            log = open(
                os.path.join(spec.stderr_dir, f"worker{worker_id}.stderr.log"),
                "ab",
                buffering=0,
            )
            os.dup2(log.fileno(), 2)
        except OSError:  # pragma: no cover - stderr capture is best-effort
            pass
    try:
        asyncio.run(_child_main(worker_id, spec, conn, resume))
    except BaseException:  # noqa: BLE001 - everything goes to the parent
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
