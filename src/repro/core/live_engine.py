"""LiveEngine: the multi-process (``--backend proc``) run orchestrator.

Spawns one OS process per DLion worker (each running a
:class:`~repro.transport.runtime.LiveWorkerRuntime` over an asyncio TCP
:class:`~repro.transport.mesh.PeerMesh`), coordinates the port-exchange
handshake over pipes, and merges every child's metrics registry (series
included) and trace events into the same :class:`~repro.core.engine.RunResult`
shape the simulator produces — so ``report``, ``--metrics-out``, and the
experiment tooling work on live runs unchanged. A child's telemetry
deltas and its final result are one payload shape, folded by one path.

The engine is also the crash **supervisor** (docs/robustness.md). A
:class:`~repro.cluster.chaos.ChaosPlan`'s crashes are events on each
victim's own modelled clock: the child reports ``("crashed", worker,
iteration, t)`` and SIGKILLs itself. A death that follows such a report
is scripted: with a ``restart_after`` the worker is respawned with
``resume=True`` (the child restores its newest checkpoint), walked
through a private port/ready handshake, and rejoined — the new port is
fanned out to the survivors as ``("revive", worker, port)`` pipe
commands so they re-open their mesh links; without one it is retired.
Any other death fails the run with the dead child's captured stderr
tail in the error.

The engine is hang-proof by construction: every phase of the handshake
and the result collection runs against a wall-clock deadline, and any
child that misses it (or reports an error) causes the remaining
processes to be terminated before the failure is raised.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time

from repro.cluster.chaos import ChaosPlan
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.host import RunResult
from repro.core.run_metrics import RunMetrics
from repro.obs import live_status
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.transport.checkpoint import CheckpointConfig
from repro.transport.mesh import TransportConfig
from repro.transport.runtime import LiveRunSpec, run_live_worker

__all__ = ["LiveEngine"]

# How much of a dead child's captured stderr to quote in errors.
_STDERR_TAIL_BYTES = 2048
# How many of each worker's newest lifecycle events the status snapshot
# retains (all of them stay in the merged registry).
_EVENTS_TAIL = 16
# Wall-clock deadline for each handshake phase (ports, ready, results).
_HANDSHAKE_TIMEOUT_S = 60.0


class _Child:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "proc", "conn", "port", "last_iteration", "last_time", "crash",
        "restarts", "stats_prev_iter", "stats_prev_wall",
    )

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.port: int | None = None
        self.last_iteration = 0       # iteration of the newest delta
        self.last_time = 0.0          # its modelled timestamp
        self.crash: tuple | None = None  # its ("crashed", ...) report
        self.restarts = 0
        self.stats_prev_iter = 0      # iteration at the last stats tick
        self.stats_prev_wall: float | None = None


class LiveEngine:
    """Runs one training job as real communicating worker processes."""

    def __init__(
        self,
        config: TrainConfig,
        topology: ClusterTopology,
        *,
        seed: int = 0,
        speedup: float = 20.0,
        transport: TransportConfig | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        profile: bool = False,
        host: str = "127.0.0.1",
        checkpoint: CheckpointConfig | None = None,
        ship_interval_s: float = 1.0,
        stats_interval_s: float | None = None,
        status_dir: str | None = None,
    ):
        self.config = config
        self.topology = topology
        self.n_workers = topology.n_workers
        self.seed = seed
        self.speedup = float(speedup)
        self.transport = transport if transport is not None else TransportConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profile = profile
        self.host = host
        self.checkpoint = checkpoint
        if ship_interval_s <= 0:
            raise ValueError("ship_interval_s must be positive")
        self.ship_interval_s = ship_interval_s
        if stats_interval_s is not None and stats_interval_s <= 0:
            raise ValueError("stats_interval_s must be positive or None")
        self.stats_interval_s = stats_interval_s
        self.status_dir = status_dir
        self._stderr_dir: str | None = None
        self._reset_telemetry()

    def _reset_telemetry(self) -> None:
        """Empty the telemetry stores (once per run). Registry states are
        cumulative (the newest per worker wins); trace streams accumulate
        in arrival order."""
        self._states: dict[int, dict] = {}
        self._trace: dict[int, list] = {}
        self.deltas_received = 0

    # ------------------------------------------------------------------
    def run(
        self,
        horizon: float,
        *,
        chaos: ChaosPlan | None = None,
        grace_s: float = 60.0,
    ) -> RunResult:
        """Run every worker process to the modelled ``horizon`` and merge.

        ``chaos`` scripts crashes (supervised respawn + rejoin when the
        event carries ``restart_after``) and link faults on the modelled
        clock. ``grace_s`` bounds how long past the modelled horizon's
        wall equivalent the parent waits before declaring a child hung
        and terminating it.
        """
        if chaos is not None:
            chaos.validate(self.n_workers)
        self._reset_telemetry()
        checkpoint = self.checkpoint
        tmp_ckpt_dir = None
        if checkpoint is None and chaos is not None and chaos.has_restarts():
            # Respawned children restore from disk; give them somewhere
            # to checkpoint even when the caller did not configure it.
            tmp_ckpt_dir = tempfile.mkdtemp(prefix="dlion-ckpt-")
            checkpoint = CheckpointConfig(directory=tmp_ckpt_dir)
        self._stderr_dir = tempfile.mkdtemp(prefix="dlion-stderr-")
        spec = LiveRunSpec(
            config=self.config,
            topology=self.topology,
            seed=self.seed,
            horizon=horizon,
            speedup=self.speedup,
            transport=self.transport,
            trace=self.tracer.enabled,
            profile=self.profile,
            host=self.host,
            checkpoint=checkpoint,
            chaos=chaos,
            stderr_dir=self._stderr_dir,
            ship_interval_s=self.ship_interval_s,
        )
        # The worker processes are the parallel compute stage: pin each
        # child's BLAS pool to one thread so W processes do not
        # oversubscribe the machine W*cores-fold. Spawned children
        # inherit the environment before their numpy import; setdefault
        # so an operator's explicit setting wins.
        for var in (
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "OMP_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, "1")
        ctx = multiprocessing.get_context("spawn")
        children: dict[int, _Child] = {}
        try:
            for w in range(self.n_workers):
                children[w] = self._spawn(ctx, w, spec, resume=False)

            port_msgs = self._recv_expected(children, "port")
            for w, msg in port_msgs.items():
                children[w].port = msg[2]
            port_map = {w: c.port for w, c in children.items()}
            for c in children.values():
                c.conn.send(("ports", port_map))
            self._recv_expected(children, "ready")
            for c in children.values():
                c.conn.send(("go",))

            reported = self._supervise(
                ctx, spec, children, horizon, chaos, grace_s
            )
        finally:
            for c in children.values():
                if c.proc.is_alive():
                    c.proc.terminate()
            for c in children.values():
                c.proc.join(timeout=5.0)
                if c.proc.is_alive():  # pragma: no cover - last resort
                    c.proc.kill()
                    c.proc.join(timeout=5.0)
            for c in children.values():
                try:
                    c.conn.close()
                except OSError:  # pragma: no cover
                    pass
            shutil.rmtree(self._stderr_dir, ignore_errors=True)
            self._stderr_dir = None
            if tmp_ckpt_dir is not None:
                shutil.rmtree(tmp_ckpt_dir, ignore_errors=True)
        return self._merge(reported, horizon)

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, ctx, w: int, spec: LiveRunSpec, *, resume: bool) -> _Child:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=run_live_worker,
            args=(w, spec, child_conn, resume),
            daemon=True,
            name=f"dlion-worker-{w}",
        )
        proc.start()
        child_conn.close()  # the child holds its own copy
        return _Child(proc, parent_conn)

    def _stderr_tail(self, w: int) -> str:
        """The tail of a child's captured stderr, formatted for an error."""
        if not self._stderr_dir:
            return ""
        path = os.path.join(self._stderr_dir, f"worker{w}.stderr.log")
        try:
            with open(path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - _STDERR_TAIL_BYTES))
                tail = fh.read().decode("utf-8", "replace").strip()
        except OSError:
            return ""
        if not tail:
            return ""
        return f"\n--- worker {w} stderr (tail) ---\n{tail}"

    # ------------------------------------------------------------------
    # Handshake phases
    # ------------------------------------------------------------------
    def _recv_expected(
        self,
        children: dict[int, _Child],
        expected: str,
        who: str = "live worker",
    ) -> dict[int, tuple]:
        """Collect one ``expected``-tagged message from every child
        (``who`` names them in errors: the first spawn or a respawn)."""
        out: dict[int, tuple] = {}
        deadline = time.monotonic() + _HANDSHAKE_TIMEOUT_S
        pending = set(children)
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"{who}(s) {sorted(pending)} did not report "
                    f"{expected!r} within {_HANDSHAKE_TIMEOUT_S:.0f}s"
                )
            for w in sorted(pending):
                c = children[w]
                if not c.proc.is_alive() and not c.conn.poll():
                    raise RuntimeError(
                        f"{who} {w} died during the {expected!r} "
                        "handshake" + self._stderr_tail(w)
                    )
                if c.conn.poll(0.01):
                    try:
                        msg = c.conn.recv()
                    except EOFError:
                        raise RuntimeError(
                            f"{who} {w} closed its pipe during the "
                            f"{expected!r} handshake" + self._stderr_tail(w)
                        ) from None
                    if msg[0] == "error":
                        raise RuntimeError(
                            f"{who} {w} failed during startup:\n{msg[2]}"
                        )
                    if msg[0] != expected:
                        raise RuntimeError(
                            f"{who} {w}: expected {expected!r}, got {msg[0]!r}"
                        )
                    out[w] = msg
                    pending.discard(w)
        return out

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise(
        self,
        ctx,
        spec: LiveRunSpec,
        children: dict[int, _Child],
        horizon: float,
        chaos: ChaosPlan | None,
        grace_s: float,
    ) -> set[int]:
        """The post-go supervisor loop; returns the workers that
        reported a final result.

        Relays telemetry, judges deaths (a scripted crash's victim is
        respawned or retired, any other death fails the run), fires due
        respawns, and collects results — all against the horizon wall
        deadline.
        """
        rm = RunMetrics(self.metrics)
        go_t0 = time.monotonic()
        deadline = go_t0 + horizon / self.speedup + grace_s
        killed: set[int] = set()               # dead for good, by script
        pending = set(children)                # workers still owing a result
        # Scheduled respawns: [{at, worker, crash_time, lost_baseline}].
        respawns: list[dict] = []

        # Cluster-health emission cadence: the --stats-interval print and
        # the --status-dir snapshot share one tick.
        stats_every = self.stats_interval_s
        if stats_every is None and self.status_dir is not None:
            stats_every = 1.0
        last_stats = go_t0

        while pending:
            now = time.monotonic()
            if stats_every is not None and now - last_stats >= stats_every:
                last_stats = now
                self._emit_stats(children, killed, go_t0, now, horizon)
            awaiting = {r["worker"] for r in respawns}
            if now > deadline:
                # Hang-proofing: a worker that outlives the horizon plus
                # grace is terminated; the run fails loudly.
                for w in sorted(pending - awaiting):
                    children[w].proc.terminate()
                raise RuntimeError(
                    f"live worker(s) {sorted(pending)} missed the horizon "
                    f"deadline (+{grace_s:.0f}s grace); terminated"
                )

            # 1. Fire due respawns.
            for r in list(respawns):
                if now >= r["at"]:
                    respawns.remove(r)
                    awaiting.discard(r["worker"])
                    self._respawn(ctx, spec, children, r, go_t0, rm)

            # 2. Drain child pipes (one message per child per sweep; the
            #    0.02-s polls double as the loop's pacing). A death is
            #    judged only once its pipe is drained, so a crash report
            #    always comes first.
            for w in sorted(pending - awaiting):
                c = children[w]
                try:
                    msg = c.conn.recv() if c.conn.poll(0.02) else None
                except EOFError:
                    msg = None  # the child is gone, or going
                if msg is not None:
                    if msg[0] == "error":
                        raise RuntimeError(
                            f"live worker {w} failed:\n{msg[2]}"
                        )
                    self._on_child_message(c, w, msg, pending)
                    continue
                if c.proc.is_alive():
                    continue
                if c.crash is None:
                    raise RuntimeError(
                        f"live worker {w} exited without reporting a "
                        "result" + self._stderr_tail(w)
                    )
                _, _, iteration, t = c.crash
                if self.tracer.enabled:
                    self.tracer.instant(
                        "worker-killed", self.n_workers, 0, t,
                        cat="chaos", args={"worker": w}, scope="g",
                    )
                restart_after = next(
                    ev.restart_after for ev in chaos.crashes
                    if (ev.worker, ev.time) == (w, t)
                )
                if restart_after is None:
                    killed.add(w)
                    pending.discard(w)
                else:
                    respawns.append({
                        "at": go_t0 + (t + restart_after) / self.speedup,
                        "worker": w,
                        "crash_time": t,
                        "lost_baseline": iteration,
                    })
        return set(children) - killed

    def _on_child_message(
        self, c: _Child, w: int, msg: tuple, pending: set
    ) -> None:
        """Book one post-go ``crashed`` / ``delta`` / ``result`` message."""
        if msg[0] == "crashed":
            c.crash = msg
        elif msg[0] in ("delta", "result"):
            self._note_delta(c, w, msg[2])
            if msg[0] == "result":
                pending.discard(w)

    def _respawn(
        self,
        ctx,
        spec: LiveRunSpec,
        children: dict[int, _Child],
        r: dict,
        go_t0: float,
        rm: RunMetrics,
    ) -> None:
        """Respawn one crashed worker with ``resume=True`` and rejoin it."""
        w = r["worker"]
        old = children[w]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover
            pass
        child = self._spawn(ctx, w, spec, resume=True)
        child.restarts = old.restarts + 1
        children[w] = child

        msg = self._recv_expected({w: child}, "port", "respawned worker")[w]
        child.port = msg[2]
        restored = child.last_iteration = int(msg[3])
        # The rejoiner only dials live peers (a no-restart casualty's old
        # port would just burn its reconnect budget).
        live = {
            i: c.port
            for i, c in children.items()
            if i == w or c.proc.is_alive()
        }
        child.conn.send(("ports", live))
        self._recv_expected({w: child}, "ready", "respawned worker")

        # Survivors first: re-opening their links before the rejoiner
        # starts training narrows the window in which its DKT bootstrap
        # pull could go unanswered.
        for i, c in children.items():
            if i != w and c.proc.is_alive():
                try:
                    c.conn.send(("revive", w, child.port))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
        now = time.monotonic()
        clock_offset = (now - go_t0) * self.speedup
        child.conn.send((
            "go",
            {
                "clock_offset": clock_offset,
                "active": sorted(i for i in live if i != w),
            },
        ))

        rm.c_worker_restarts.inc(1, w)
        # The modelled outage, as on the simulator: crash to rejoin.
        rm.h_recovery_s.observe(clock_offset - r["crash_time"], w)
        lost = max(0, r["lost_baseline"] - restored)
        if lost:
            rm.c_lost_iterations.inc(lost, w)
        if self.tracer.enabled:
            self.tracer.complete(
                "recovery", self.n_workers, 0,
                r["crash_time"], clock_offset - r["crash_time"],
                cat="chaos",
                args={
                    "worker": w,
                    "restored_iteration": restored,
                    "lost_iterations": lost,
                },
            )

    # ------------------------------------------------------------------
    # Telemetry deltas and cluster health
    # ------------------------------------------------------------------
    def _note_delta(self, c: _Child, w: int, payload: dict) -> None:
        """Fold one telemetry payload from worker ``w``: a delta, or the
        final result (its last delta).

        Registry states are cumulative, so the newest one simply replaces
        its predecessor (idempotent, no double-count) — a final result
        supersedes the worker's deltas, and a respawned worker's payloads
        its previous incarnation's. Trace events are incremental and
        accumulate.
        """
        c.last_iteration = payload["iteration"]
        c.last_time = payload["time"]
        self._states[w] = payload["metrics"]
        self._trace.setdefault(w, []).extend(payload["trace_events"])
        self.deltas_received += 1

    def _emit_stats(
        self,
        children: dict[int, _Child],
        killed: set[int],
        go_t0: float,
        now: float,
        horizon: float,
    ) -> None:
        """One cluster-health tick: print a line and/or write a snapshot."""
        workers: dict[int, dict] = {}
        t_model = 0.0
        for w, c in sorted(children.items()):
            alive = c.proc.is_alive() and w not in killed
            prev_wall = c.stats_prev_wall
            rate = 0.0
            if prev_wall is not None and now > prev_wall:
                rate = (c.last_iteration - c.stats_prev_iter) / (now - prev_wall)
            c.stats_prev_iter = c.last_iteration
            c.stats_prev_wall = now
            workers[w] = {
                "iteration": c.last_iteration,
                "time": round(c.last_time, 3),
                "rate": round(max(rate, 0.0), 3),
                "alive": alive,
                "restarts": c.restarts,
            }
            if alive:
                t_model = max(t_model, c.last_time)
        # Every worker's newest state, folded into one throwaway registry
        # (cheap at stats cadence).
        reg = MetricsRegistry()
        for state in self._states.values():
            reg.merge_state(state)
        snapshot = live_status.build_snapshot(
            time_model_s=t_model,
            horizon_s=horizon,
            wall_elapsed_s=now - go_t0,
            speedup=self.speedup,
            workers=workers,
            cluster=self._cluster_health(reg),
            events_tail=live_status.events_tail(
                reg.get("lifecycle_events"), _EVENTS_TAIL
            ),
        )
        if self.stats_interval_s is not None:
            print(live_status.render_health_line(snapshot), flush=True)
        if self.status_dir is not None:
            live_status.write_snapshot(self.status_dir, snapshot)

    def _cluster_health(self, reg: MetricsRegistry) -> dict:
        """The cluster-wide transport numbers of ``reg``, the merge of
        every worker's newest state."""

        def total(name):
            fam = reg.get(name)
            return sum(v for _, v in fam.items()) if fam is not None else 0

        def peak(name):
            fam = reg.get(name)
            vals = [v for _, v in fam.items()] if fam is not None else []
            return max(vals) if vals else 0

        lat = reg.get("transport_frame_latency_seconds")
        return {
            "frame_latency_p99_s": (
                lat.percentile_all(0.99) if lat is not None else None
            ),
            "send_msgs_total": total("transport_send_msgs_total"),
            "send_bytes_total": total("transport_send_bytes_total"),
            "stall_seconds_total": round(
                total("transport_stall_seconds_total"), 3
            ),
            "outbox_depth_max": peak("transport_outbox_depth"),
            "queue_depth_max": peak("queue_depth"),
            "queue_dropped_total": total("queue_dropped_total"),
            "deltas_received": self.deltas_received,
        }

    # ------------------------------------------------------------------
    # Result merging
    # ------------------------------------------------------------------
    def _merge(self, reported: set[int], horizon: float) -> RunResult:
        """Merge one newest registry state per worker, then the trace.

        The ``reported`` workers' final states go first, in ascending
        order: a series key keeps its first writer, so the cluster-wide
        series (GBS, membership, epochs) are the lowest surviving
        worker's view. Then every worker that never reported a final
        result (a retired crash victim) comes back from its newest
        delta — its counters and series survive up to one shipping
        interval behind the crash.
        """
        late = sorted(set(self._states) - reported)
        for w in sorted(reported) + late:
            self.metrics.merge_state(self._states[w])
        if self.tracer.enabled:
            for _, events in sorted(self._trace.items()):
                self.tracer.ingest(events)
        return RunResult(self.n_workers, horizon, self.metrics)
