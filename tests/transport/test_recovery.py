"""Crash-recovery acceptance tests for the live backend.

One real 4-worker multi-process run SIGKILLs worker 3 mid-run via a
chaos plan; the supervisor must respawn it, the child must restore its
newest checkpoint and rejoin the mesh (revive fanout + DKT bootstrap
pull), and the recovery metrics/trace spans must land. A sim run of the
same plan checks cross-backend parity of the recovery accounting.
"""

import pytest

from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.core.engine import TrainingEngine
from repro.core.live_engine import LiveEngine
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.transport.mesh import TransportConfig

N_WORKERS = 4
HORIZON = 40.0
SPEEDUP = 5.0
VICTIM = 3
CRASH_AT = 8.0
RESTART_AFTER = 6.0

FAST_TRANSPORT = TransportConfig(
    connect_timeout_s=2.0,
    send_timeout_s=1.0,
    retry_base_s=0.02,
    retry_max_s=0.1,
    retry_attempts=3,
    heartbeat_interval_s=0.05,
)

PLAN = ChaosPlan(
    crashes=(CrashEvent(time=CRASH_AT, worker=VICTIM, restart_after=RESTART_AFTER),)
)


@pytest.fixture(scope="module")
def setup():
    """(config, topology) for a 4-worker slice of Homo A."""
    env = get_environment("Homo A")
    workload = workload_for(env)
    topo = build_topology(env, workload, n_workers=N_WORKERS)
    return build_config("dlion", workload), topo


@pytest.fixture(scope="module")
def recovery_run(setup):
    """The acceptance scenario: kill worker 3 at t=8, respawn at t=14."""
    config, topo = setup
    tracer = Tracer()
    metrics = MetricsRegistry()
    engine = LiveEngine(
        config,
        topo,
        seed=0,
        speedup=SPEEDUP,
        transport=FAST_TRANSPORT,
        tracer=tracer,
        metrics=metrics,
    )
    result = engine.run(HORIZON, chaos=PLAN)
    return result, tracer, metrics


class TestRecoveryRun:
    def test_victim_resumes_and_everyone_trains(self, recovery_run):
        result, tracer, _ = recovery_run
        assert len(result.iterations) == N_WORKERS
        assert all(n > 10 for n in result.iterations)
        # The victim was down from the kill to the respawn's "go", so
        # its loss series has a hole there that no survivor's has —
        # proof the respawn resumed rather than some survivor's result
        # being double-counted. (Iteration counts cannot prove it: a
        # victim that catches up to the staleness bound ties the rest.)
        (recovery,) = [
            e for e in tracer.events()
            if e.get("ph") == "X" and e.get("name") == "recovery"
        ]
        # Half a modelled second in: a step may land between the
        # supervisor reading its clock and the SIGKILL.
        down_from = recovery["ts"] / 1e6 + 0.5
        down_to = (recovery["ts"] + recovery["dur"]) / 1e6
        assert down_from > CRASH_AT and down_to >= CRASH_AT + RESTART_AFTER

        def trained_while_down(w):
            return any(down_from <= t < down_to for t in result.loss[w].times)

        assert not trained_while_down(VICTIM)
        assert all(trained_while_down(w) for w in range(N_WORKERS) if w != VICTIM)
        assert result.iterations[VICTIM] <= max(result.iterations)

    def test_membership_dips_then_recovers(self, recovery_run):
        result, _, _ = recovery_run
        values = result.active_workers.values
        assert values[0] == N_WORKERS
        assert N_WORKERS - 1 in values
        assert values[-1] == N_WORKERS

    def test_restart_and_recovery_metrics(self, recovery_run):
        _, _, metrics = recovery_run
        restarts = metrics.get("worker_restarts_total")
        assert restarts.value(VICTIM) == 1
        for w in range(N_WORKERS):
            if w != VICTIM:
                assert restarts.value(w) == 0
        hist = metrics.get("recovery_time_seconds")
        assert hist.count(VICTIM) == 1
        # The modelled outage, as on the simulator: crash to rejoin.
        assert hist.sum(VICTIM) >= RESTART_AFTER
        # Only the victim can lose work to the checkpoint lag.
        lost = metrics.get("lost_iterations_total")
        assert {key for key, _ in lost.items()} <= {(VICTIM,)}

    def test_survivors_revived_the_rejoiner(self, recovery_run):
        _, _, metrics = recovery_run
        revives = metrics.get("transport_revive_total")
        for w in range(N_WORKERS):
            if w != VICTIM:
                assert revives.value(w, VICTIM) >= 1

    def test_kill_and_recovery_trace_spans(self, recovery_run):
        _, tracer, _ = recovery_run
        events = tracer.events()
        assert any(e.get("name") == "worker-killed" for e in events)
        recoveries = [
            e for e in events
            if e.get("ph") == "X" and e.get("name") == "recovery"
        ]
        assert len(recoveries) == 1
        assert recoveries[0]["args"]["worker"] == VICTIM


class TestRespawnTraceMonotonicity:
    """Respawn clock re-anchoring: the victim's merged timeline must be
    monotonic and non-overlapping across the crash, on both backends.

    The pre-crash spans only exist in the merged trace because the
    victim's telemetry deltas shipped them before the SIGKILL — so the
    live variant also exercises the crash-safe delta stream."""

    # A regression in clock_offset re-anchoring overlaps the incarnations
    # by whole modelled seconds; half a second of slack absorbs rounding
    # and pipe latency without masking the failure.
    _EPS_US = 0.5e6

    def _assert_monotonic(self, spans):
        assert spans
        spans = sorted(spans, key=lambda e: e["ts"])
        for cur, nxt in zip(spans, spans[1:]):
            assert nxt["ts"] + self._EPS_US >= cur["ts"] + cur.get("dur", 0.0)
        return spans

    def test_live_victim_timeline(self, recovery_run):
        _, tracer, _ = recovery_run
        events = tracer.events()
        kills = [e for e in events if e.get("name") == "worker-killed"]
        assert kills
        t_kill = kills[0]["ts"]
        spans = self._assert_monotonic([
            e for e in events
            if e.get("pid") == VICTIM
            and e.get("ph") == "X"
            and e.get("name") == "compute"
        ])
        pre = [e for e in spans if e["ts"] < t_kill]
        post = [e for e in spans if e["ts"] >= t_kill]
        assert pre, "pre-crash spans must survive via telemetry deltas"
        assert post, "the respawned incarnation must keep training"
        assert min(e["ts"] for e in post) + self._EPS_US >= max(
            e["ts"] + e.get("dur", 0.0) for e in pre
        )

    def test_sim_victim_timeline(self, setup):
        config, topo = setup
        tracer = Tracer()
        TrainingEngine(config, topo, seed=0, chaos=PLAN, tracer=tracer).run(
            HORIZON
        )
        events = tracer.events()
        spans = self._assert_monotonic([
            e for e in events
            if e.get("pid") == VICTIM
            and e.get("ph") == "X"
            and e.get("name") == "compute"
        ])
        # The sim victim leaves at CRASH_AT and rejoins RESTART_AFTER
        # later; spans must exist on both sides of the gap.
        assert any(e["ts"] < CRASH_AT * 1e6 for e in spans)
        assert any(e["ts"] > (CRASH_AT + RESTART_AFTER) * 1e6 for e in spans)


class TestSimProcParity:
    def test_sim_records_the_same_recovery_shape(self, setup):
        """The same plan on the simulator: one restart for the victim,
        a 4 -> 3 -> 4 active-worker series, and a recovery-time sample
        equal to the modelled downtime."""
        config, topo = setup
        metrics = MetricsRegistry()
        result = TrainingEngine(
            config, topo, seed=0, chaos=PLAN, metrics=metrics
        ).run(HORIZON)
        assert result.active_workers.values == [4.0, 3.0, 4.0]
        assert metrics.get("worker_restarts_total").value(VICTIM) == 1
        hist = metrics.get("recovery_time_seconds")
        assert hist.count(VICTIM) == 1
        assert hist.sum(VICTIM) == pytest.approx(RESTART_AFTER)
