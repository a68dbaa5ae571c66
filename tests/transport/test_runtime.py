"""Direct tests of LiveWorkerRuntime, in-process: no mesh.start(), no
child process. Checkpoint round trip, the format gate, the behaviour the
live backend now inherits from the shared WorkerHost, the supervisor's
merge of worker payloads and deltas, the pacer that runs the
simulator's event heap against a (here: fake) wall clock, scripted
crashes on that heap, and the supervisor's judgement of a dead child."""

import asyncio
import dataclasses
import os
import signal

import numpy as np
import pytest

import repro.transport.runtime as runtime_module
from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.cluster.messages import GradientMessage
from repro.core.live_engine import LiveEngine, _Child
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.obs.trace import Tracer
from repro.transport.checkpoint import CheckpointConfig, load_latest
from repro.transport.runtime import (
    CHECKPOINT_FORMAT,
    LiveRunSpec,
    LiveWorkerRuntime,
    WallClock,
)

N_WORKERS = 3


@pytest.fixture(scope="module")
def spec():
    env = get_environment("Homo A")
    workload = workload_for(env)
    return LiveRunSpec(
        config=build_config("dlion", workload),
        topology=build_topology(env, workload, n_workers=N_WORKERS),
        seed=0, horizon=30.0, speedup=5.0, trace=True,
    )


@pytest.fixture
def runtime(spec):
    return LiveWorkerRuntime(0, spec)


@pytest.fixture
def started(runtime):
    """A runtime whose clock is anchored to a loop that never runs."""
    loop = asyncio.new_event_loop()
    runtime.clock.start(loop)
    yield runtime
    loop.close()


def _record_a_few_hooks(rt):
    rt._record_start()
    for loss in (2.3, 2.1, 1.9):
        rt.record_loss(0, loss)
    rt.record_lbs(0, 24)
    rt.record_dkt_merge(0)
    rt.evaluate_worker(0)
    msg = GradientMessage(
        sender=0, iteration=3, lbs=24, dense={"w": np.ones(4, dtype=np.float32)}
    )
    rt.send_gradients(0, 1, msg, chosen_n=25.0)
    rt.worker.iteration = 3


def _assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same(a[k], b[k])
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif hasattr(a, "__dict__"):
        _assert_same(vars(a), vars(b))
    else:
        assert a == b


class TestCheckpointRoundTrip:
    def test_restore_reproduces_the_checkpoint(self, runtime, spec):
        _record_a_few_hooks(runtime)
        arrays, meta = runtime.checkpoint_state()
        assert meta["format"] == CHECKPOINT_FORMAT == 5
        assert "result" not in meta

        fresh = LiveWorkerRuntime(0, spec)
        fresh.restore_from(arrays, meta)
        assert fresh.restored_iteration == 3
        # Series and counters come back through meta["metrics"].
        restored = fresh.result
        assert restored.iterations == [3, 0, 0] and restored.dkt_merges == 1
        assert restored.loss[0].values == [2.3, 2.1, 1.9]
        assert restored.lbs[0] == runtime.result.lbs[0]
        assert restored.accuracy[0] == runtime.result.accuracy[0]
        assert restored.link_chosen_n[(0, 1)].values == [25.0]
        arrays2, meta2 = fresh.checkpoint_state()
        _assert_same(arrays, arrays2)
        _assert_same(meta, meta2)

    @pytest.mark.parametrize("system", ["gaia", "ako", "dlion"])
    def test_strategy_state_survives_a_restore(self, spec, system):
        """Residual accumulators, Ako's cursor and partition count, and
        the planner's warm-fit state come back as checkpointed."""
        workload = workload_for(get_environment("Homo A"))
        spec = dataclasses.replace(spec, config=build_config(system, workload))
        rt = LiveWorkerRuntime(0, spec)
        w = rt.worker
        rng = np.random.default_rng(0)
        for _ in range(2):
            grads = {
                name: rng.standard_normal(v.shape).astype(v.dtype)
                for name, v in w.model.variables().items()
            }
            w.strategy.generate_partial_gradients(w, grads)
        arrays, meta = rt.checkpoint_state()
        fresh = LiveWorkerRuntime(0, spec)
        fresh.restore_from(arrays, meta)
        _assert_same(w.strategy, fresh.worker.strategy)

    @pytest.mark.parametrize(
        "patch,match",
        [
            ({"seed": 99}, "checkpoint mismatch"),
            ({"worker": 1}, "checkpoint mismatch"),
            ({"format": 1}, "checkpoint format 1"),
        ],
    )
    def test_mismatch_raises(self, runtime, spec, patch, match):
        arrays, meta = runtime.checkpoint_state()
        with pytest.raises(ValueError, match=match):
            LiveWorkerRuntime(0, spec).restore_from(arrays, {**meta, **patch})


class TestSharedHostBehaviour:
    def test_gbs_tick_traces_like_the_simulator(self, started):
        gc = started.gbs_controller
        gc.maybe_update = lambda epoch: gc.gbs * 2
        old = gc.gbs
        started._gbs_tick()
        events = {e["name"]: e for e in started.tracer.events() if "name" in e}
        assert events["gbs-update"]["args"] == {"old": old, "new": old * 2}
        assert events["gbs"]["pid"] == started.cluster_pid
        assert started.result.gbs.values == [old * 2]

    def test_finalize_closes_an_open_sync_wait(self, runtime):
        runtime.worker.waiting = True
        runtime.worker._wait_started = 0.0
        result = runtime.finalize()
        assert any(e.get("name") == "sync-wait" for e in runtime.tracer.events())
        assert len(result.accuracy[0]) == 1
        assert runtime.stopped

    def test_broadcast_shares_one_message(self, runtime, monkeypatch):
        sent = []
        monkeypatch.setattr(
            runtime.mesh, "send",
            lambda dst, channel, msg, **kw: sent.append((dst, msg)),
        )
        runtime.broadcast_rcp(0, 1.5)
        runtime.broadcast_loss_share(0, 4, 0.5)
        assert [dst for dst, _ in sent] == [1, 2, 1, 2]
        assert sent[0][1] is sent[1][1] and sent[2][1] is sent[3][1]

    def test_active_members_cached_until_membership_changes(
        self, runtime, monkeypatch
    ):
        monkeypatch.setattr(runtime.mesh, "revive", lambda peer, addr: None)
        members = runtime.active_members()
        assert members == [0, 1, 2] and runtime.active_members() is members
        runtime._on_peer_dead(2)
        assert runtime.active_members() == [0, 1]
        runtime.on_peer_revived(2, ("127.0.0.1", 1))
        assert runtime.active_members() == [0, 1, 2]
        assert runtime.result.active_workers.values == [2.0, 3.0]

    def test_record_hooks_bump_the_result(self, runtime):
        runtime.record_loss(0, 1.0)
        runtime.record_dkt_merge(0)
        assert runtime.result.iterations == [1, 0, 0]
        assert runtime.result.dkt_merges == 1
        payload = runtime.payload()
        assert set(payload) == {"iteration", "time", "metrics", "trace_events"}
        assert payload["metrics"]["iterations_total"]["series"] == {(0,): 1.0}

    def test_foreign_worker_is_rejected(self, runtime):
        with pytest.raises(ValueError, match="not held"):
            runtime.evaluate_worker(1)


class _Pipe:
    """The supervisor end of a child's pipe: keeps what it is sent."""

    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


def _in_process_cluster(spec):
    """A supervisor and one runtime per worker, each runtime's pipe a
    :class:`_Pipe`, every worker started."""
    engine = LiveEngine(spec.config, spec.topology, seed=spec.seed)
    runtimes = [LiveWorkerRuntime(w, spec) for w in range(N_WORKERS)]
    for rt in runtimes:
        rt.progress_conn = _Pipe()
        rt._record_start()
    return engine, runtimes


def _fold(engine, rt, *, final=False):
    """Ship ``rt``'s delta (or, ``final``, finalize it and send its
    result) through the supervisor's message path."""
    w = rt.worker_id
    if final:
        rt.finalize()
        msg = ("result", w, rt.payload())
    else:
        rt.ship_delta()
        msg = rt.progress_conn.sent[-1]
    pending = {w}
    engine._on_child_message(_Child(None, None), w, msg, pending)
    assert pending == (set() if final else {w})


def _events(result, w):
    """Worker ``w``'s merged lifecycle events as {(event, peer): values}."""
    fam = result.metrics.get("lifecycle_events")
    return {
        (event, peer): series.values
        for (worker, event, peer), series in fam.items()
        if worker == w
    }


class TestMerge:
    def test_payloads_then_the_deltas_of_workers_that_never_reported(self, spec):
        """LiveEngine._merge over in-process workers: 0 and 1 report a
        final payload, 2 only ever shipped a delta (a kill)."""
        engine, runtimes = _in_process_cluster(spec)
        for w, rt in enumerate(runtimes):
            rt.record_loss(w, 2.0 - w / 10)
            _fold(engine, rt)
        runtimes[0].record_loss(0, 1.5)  # past worker 0's delta
        runtimes[1].run_metrics.s_gbs.append(1.0, 999)  # another GBS view
        runtimes[1]._peer_samples = {0: 10_000}  # a further epoch estimate
        for w in (0, 1):
            _fold(engine, runtimes[w], final=True)
        result = engine._merge({0, 1}, spec.horizon)
        assert result.iterations == [2, 1, 1]  # a payload supersedes deltas
        assert [len(s) for s in result.loss] == result.iterations
        assert result.loss[2].values == [1.8]
        assert result.lbs[2] == runtimes[2].result.lbs[2]
        assert result.gbs == runtimes[0].result.gbs
        assert result.epochs == runtimes[0].result.epochs
        assert result.epochs < runtimes[1].result.epochs

    def test_marked_events_ship_in_the_delta(self, spec):
        _, runtimes = _in_process_cluster(spec)
        rt = runtimes[0]
        rt.worker.iteration = 7
        rt._mark("checkpoint")
        rt._mark("peer-dead", 2)
        fam = rt.metrics.get("lifecycle_events")
        assert fam.label_names == ("worker", "event", "peer")
        assert fam.series(0, "checkpoint", -1).values == [7]
        rt.ship_delta()
        [(kind, w, payload)] = rt.progress_conn.sent
        assert (kind, w) == ("delta", 0)
        assert set(payload) == {"iteration", "time", "metrics", "trace_events"}
        shipped = payload["metrics"]["lifecycle_events"]["series"]
        assert set(shipped) == {(0, "checkpoint", -1), (0, "peer-dead", 2)}
        # With tracing on, each event is also a Chrome instant.
        instants = [
            (e["name"], e["args"]["peer"])
            for e in payload["trace_events"] if e.get("cat") == "lifecycle"
        ]
        assert instants == [("checkpoint", -1), ("peer-dead", 2)]

    def test_a_final_result_supersedes_the_deltas(self, spec):
        engine, runtimes = _in_process_cluster(spec)
        rt = runtimes[1]
        rt._mark("peer-dead", 2)
        _fold(engine, rt)
        _fold(engine, rt)  # the same state again: idempotent
        rt._mark("peer-revived", 2)
        _fold(engine, rt, final=True)
        result = engine._merge({1}, spec.horizon)
        assert _events(result, 1) == {
            ("peer-dead", 2): [0], ("peer-revived", 2): [0], ("finalize", -1): [0],
        }
        assert engine.deltas_received == 3

    def test_a_worker_without_a_final_payload_keeps_its_events(self, spec):
        engine, runtimes = _in_process_cluster(spec)
        victim = runtimes[2]
        victim.worker.iteration = 4
        victim._mark("checkpoint")
        _fold(engine, victim)
        victim._mark("peer-dead", 0)  # after its last delta: lost with it
        for rt in runtimes[:2]:
            rt._mark("peer-dead", 2)
            _fold(engine, rt, final=True)
        result = engine._merge({0, 1}, spec.horizon)
        assert _events(result, 2) == {("checkpoint", -1): [4]}
        for w in (0, 1):
            assert set(_events(result, w)) == {("peer-dead", 2), ("finalize", -1)}

    def test_cluster_series_come_from_the_lowest_surviving_worker(self, spec):
        """Worker 0 only shipped a delta, so the cluster-wide series are
        worker 1's: final states merge before delta-only ones."""
        engine, runtimes = _in_process_cluster(spec)
        runtimes[0].run_metrics.s_gbs.append(1.0, 111)
        _fold(engine, runtimes[0])
        runtimes[2]._peer_samples = {0: 10_000}  # a further epoch estimate
        for w, rt in enumerate(runtimes[1:], start=1):
            rt.run_metrics.s_gbs.append(1.0, 100 * w)
            _fold(engine, rt, final=True)
        result = engine._merge({1, 2}, spec.horizon)
        assert result.gbs == runtimes[1].result.gbs
        assert result.gbs.values[-1] == 100
        assert result.epochs == runtimes[1].result.epochs
        assert result.epochs < runtimes[2].result.epochs


class FakeLoop:
    """Just the ``time()`` a clock anchors to; tests move it by hand."""

    def __init__(self, t: float = 100.0):
        self.t = t

    def time(self) -> float:
        return self.t


class TestPacer:
    SPEEDUP = 5.0

    @pytest.fixture
    def paced(self):
        loop = FakeLoop()
        clock = WallClock(self.SPEEDUP)
        clock.start(loop)
        return clock, loop

    def test_callback_sees_its_due_time(self, paced):
        clock, loop = paced
        seen = []
        clock.schedule_in(2.0, lambda: seen.append(clock.now))
        loop.t += 10.0  # the wall is far past the event
        clock.run_until(clock.wall_now())
        assert seen == [2.0]
        assert clock.now == 10.0 * self.SPEEDUP

    def test_wall_cost_does_not_shift_the_next_event(self, paced):
        clock, loop = paced
        seen = []

        def slow():
            loop.t += 5.0  # real work: 25 modelled seconds of wall
            clock.schedule_in(1.0, lambda: seen.append(clock.now))

        clock.schedule_in(1.0, slow)
        loop.t += 1.0
        clock.run_until(clock.wall_now())
        assert seen == [2.0]

    def test_arrival_is_stamped_at_the_wall_never_in_the_past(self, paced):
        clock, loop = paced
        loop.t += 3.0 / self.SPEEDUP
        clock.arrive(lambda: None)
        assert clock.peek_time() == pytest.approx(3.0)
        clock.run_until(5.0)  # the heap ran ahead of this (fake) wall
        clock.arrive(lambda: None)
        assert clock.peek_time() == 5.0

    def test_start_resumes_at_the_offset(self):
        clock = WallClock(self.SPEEDUP)
        clock.start(FakeLoop(), offset=12.0)
        assert clock.now == 12.0
        assert clock.wall_now() == pytest.approx(12.0)
        clock.schedule_in(1.0, lambda: None)
        assert clock.peek_time() == 13.0

    def test_callback_exception_surfaces_from_wait_horizon(self, runtime):
        def boom():
            raise RuntimeError("boom")

        runtime.clock.start(FakeLoop())
        runtime.clock.arrive(boom)
        with pytest.raises(RuntimeError, match="boom"):
            asyncio.run(runtime.wait_horizon())

    def test_pacer_stops_at_the_horizon(self, runtime, spec):
        loop = FakeLoop()
        runtime.clock.start(loop)
        loop.t += spec.horizon / spec.speedup
        asyncio.run(runtime.wait_horizon())
        assert runtime.clock.now == spec.horizon

    def test_training_runs_in_process_without_a_loop(self, runtime):
        runtime.start_training(FakeLoop())
        runtime.clock.run_until(5.0)
        assert runtime.worker.iteration > 0
        assert runtime.result.iterations[0] == runtime.worker.iteration


class _Killed(Exception):
    """Stands in for the SIGKILL a scripted crash sends itself."""


@pytest.fixture
def kills(monkeypatch):
    """``os.kill`` in the runtime records its arguments and raises
    :class:`_Killed` instead of ending the test process."""
    seen = []

    def kill(pid, sig):
        seen.append((pid, sig))
        raise _Killed

    monkeypatch.setattr(runtime_module.os, "kill", kill)
    return seen


def _crashing_spec(spec, tmp_path, *crashes):
    return dataclasses.replace(
        spec,
        checkpoint=CheckpointConfig(directory=str(tmp_path), interval_s=5.0),
        chaos=ChaosPlan(crashes=crashes),
    )


class TestScriptedCrash:
    def test_checkpoint_due_at_the_crash_is_on_disk_before_the_report(
        self, spec, tmp_path, kills
    ):
        crash_spec = _crashing_spec(spec, tmp_path, CrashEvent(15.0, 0, 8.0))
        rt = LiveWorkerRuntime(0, crash_spec)
        on_disk = []

        class Pipe(_Pipe):
            def send(self, msg):
                if msg[0] == "crashed":
                    on_disk.append(load_latest(str(tmp_path), 0)[1])
                super().send(msg)

        rt.progress_conn = Pipe()
        rt.start_training(FakeLoop())
        with pytest.raises(_Killed):
            rt.clock.run_until(20.0)
        assert rt.progress_conn.sent == [
            ("crashed", 0, rt.worker.iteration, 15.0)
        ]
        assert kills == [(os.getpid(), signal.SIGKILL)]
        [meta] = on_disk
        assert meta["time"] == 15.0
        assert meta["iteration"] == rt.worker.iteration  # nothing lost

    def test_a_respawned_worker_skips_crashes_due_while_it_was_down(
        self, spec, tmp_path, kills, monkeypatch
    ):
        crash_spec = _crashing_spec(
            spec, tmp_path, CrashEvent(15.0, 0, 5.0), CrashEvent(25.0, 0)
        )
        rt = LiveWorkerRuntime(0, crash_spec)
        monkeypatch.setattr(rt.mesh, "send", lambda *a, **kw: None)
        rt.progress_conn = _Pipe()
        rt.start_training(
            FakeLoop(), resume={"clock_offset": 21.0, "active": [1, 2]}
        )
        rt.clock.run_until(24.9)
        assert kills == []
        with pytest.raises(_Killed):
            rt.clock.run_until(26.0)
        [(kind, w, _, t)] = rt.progress_conn.sent
        assert (kind, w, t) == ("crashed", 0, 25.0)


class _StubProc:
    def __init__(self, alive: bool):
        self.alive = alive

    def is_alive(self):
        return self.alive


class _StubConn:
    """A child's pipe, parent end: yields ``msgs`` in order."""

    def __init__(self, *msgs):
        self.msgs = list(msgs)

    def poll(self, timeout=0.0):
        return bool(self.msgs)

    def recv(self):
        return self.msgs.pop(0)


def _reporting_child(w):
    """A live child whose pipe holds its final result."""
    payload = {"iteration": 0, "time": 0.0, "metrics": {}, "trace_events": []}
    return _Child(_StubProc(True), _StubConn(("result", w, payload)))


class TestSupervisor:
    """``LiveEngine._supervise`` over stub children: no process at all."""

    SPEEDUP = 1000.0

    def _crash_run(self, spec, restart_after, monkeypatch):
        tracer = Tracer()
        engine = LiveEngine(
            spec.config, spec.topology, speedup=self.SPEEDUP, tracer=tracer
        )
        plan = ChaosPlan(crashes=(CrashEvent(15.0, 2, restart_after),))
        children = {w: _reporting_child(w) for w in (0, 1)}
        children[2] = _Child(
            _StubProc(False), _StubConn(("crashed", 2, 37, 15.0))
        )
        respawns = []

        def respawn(ctx, spec_, children_, r, go_t0, rm):
            respawns.append((r, go_t0))
            children_[r["worker"]] = _reporting_child(r["worker"])

        monkeypatch.setattr(engine, "_respawn", respawn)
        reported = engine._supervise(None, spec, children, 30.0, plan, 5.0)
        killed = [
            e["ts"] for e in tracer.events() if e.get("name") == "worker-killed"
        ]
        assert killed == [15.0e6]
        return reported, respawns

    def test_a_crash_report_with_a_restart_books_one_respawn(
        self, spec, monkeypatch
    ):
        reported, respawns = self._crash_run(spec, 8.0, monkeypatch)
        [(r, go_t0)] = respawns
        assert r["worker"] == 2 and r["lost_baseline"] == 37
        assert r["at"] == pytest.approx(go_t0 + (15.0 + 8.0) / self.SPEEDUP)
        assert reported == {0, 1, 2}

    def test_a_crash_report_without_a_restart_retires_the_worker(
        self, spec, monkeypatch
    ):
        reported, respawns = self._crash_run(spec, None, monkeypatch)
        assert respawns == []
        assert reported == {0, 1}

    def test_an_unreported_death_fails_the_run_with_the_stderr_tail(
        self, spec, tmp_path
    ):
        engine = LiveEngine(spec.config, spec.topology)
        engine._stderr_dir = str(tmp_path)
        (tmp_path / "worker0.stderr.log").write_text(
            "Traceback (most recent call last):\nMemoryError: out of memory\n"
        )
        children = {0: _Child(_StubProc(False), _StubConn())}
        with pytest.raises(RuntimeError) as err:
            engine._supervise(None, spec, children, 30.0, None, 5.0)
        message = str(err.value)
        assert "live worker 0 exited without reporting a result" in message
        assert "MemoryError: out of memory" in message
