"""Direct tests of LiveWorkerRuntime, in-process: no mesh.start(), no
child process. Checkpoint round trip, the format gate, the behaviour the
live backend now inherits from the shared WorkerHost, and the pacer that
runs the simulator's event heap against a (here: fake) wall clock."""

import asyncio

import numpy as np
import pytest

from repro.cluster.messages import GradientMessage
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
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
    else:
        assert a == b


class TestCheckpointRoundTrip:
    def test_restore_reproduces_the_checkpoint(self, runtime, spec):
        _record_a_few_hooks(runtime)
        arrays, meta = runtime.checkpoint_state()
        assert meta["format"] == CHECKPOINT_FORMAT == 3
        assert meta["result"]["iterations"] == [3, 0, 0]
        assert (0, 1) in meta["result"]["link_chosen_n"]

        fresh = LiveWorkerRuntime(0, spec, resume=True)
        fresh.restore_from(arrays, meta)
        assert fresh.restored_iteration == 3
        arrays2, meta2 = fresh.checkpoint_state()
        _assert_same(arrays, arrays2)
        _assert_same(meta, meta2)

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
        assert runtime.result_payload()["result"]["iterations"] == [1, 0, 0]

    def test_foreign_worker_is_rejected(self, runtime):
        with pytest.raises(ValueError, match="not held"):
            runtime.evaluate_worker(1)


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
