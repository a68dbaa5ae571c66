"""Live-backend integration tests: sim/proc parity, bytes, churn.

One real multi-process run (3 workers, truncated "Homo A", tiny MLP,
speedup 15) is shared module-wide and compared against the simulator on
the same config/topology/seed. A second run SIGKILLs a worker mid-run
to exercise the reconnect → retry-budget → membership-change path.
These are the acceptance criteria of the live-transport milestone.
"""

import os

import pytest

from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.core.engine import TrainingEngine
from repro.core.live_engine import LiveEngine
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.transport.codec import size_slack
from repro.transport.mesh import TransportConfig

N_WORKERS = 3
HORIZON = 30.0
SPEEDUP = 15.0
# The fast-mode MLP has three layers -> six weight variables.
N_VARS = 6

# Death detection must fit comfortably inside the horizon's wall budget.
FAST_TRANSPORT = TransportConfig(
    connect_timeout_s=2.0,
    send_timeout_s=1.0,
    retry_base_s=0.02,
    retry_max_s=0.1,
    retry_attempts=3,
    heartbeat_interval_s=0.05,
)


@pytest.fixture(scope="module")
def setup():
    """(config, topology) for a 3-worker slice of Homo A."""
    env = get_environment("Homo A")
    workload = workload_for(env)
    topo = build_topology(env, workload, n_workers=N_WORKERS)
    return build_config("dlion", workload), topo


@pytest.fixture(scope="module")
def sim_result(setup):
    config, topo = setup
    return TrainingEngine(config, topo, seed=0).run(HORIZON)


@pytest.fixture(scope="module")
def live_run(setup):
    """One full live run with tracing, metrics and the profiler attached."""
    config, topo = setup
    tracer = Tracer()
    metrics = MetricsRegistry()
    engine = LiveEngine(
        config, topo, seed=0, speedup=SPEEDUP, tracer=tracer, metrics=metrics,
        profile=True,
    )
    result = engine.run(HORIZON)
    return result, tracer, metrics


class TestParity:
    def test_every_worker_trains(self, live_run):
        result, _, _ = live_run
        assert len(result.iterations) == N_WORKERS
        assert all(n > 10 for n in result.iterations)

    def test_final_accuracy_close_to_simulator(self, sim_result, live_run):
        result, _, _ = live_run
        live_acc = result.final_mean_accuracy()
        sim_acc = sim_result.final_mean_accuracy()
        assert live_acc == pytest.approx(sim_acc, abs=0.25)
        assert live_acc > 0.25  # actually learned, not noise-level

    def test_iteration_counts_same_regime(self, sim_result, live_run):
        result, _, _ = live_run
        # The live worker runs the simulator's event heap paced to the
        # wall, so a callback's real cost never shifts the modelled
        # schedule: every worker keeps the simulator's iteration count
        # up to the odd straggler cut at the horizon.
        for live, sim in zip(result.iterations, sim_result.iterations):
            assert live >= 0.97 * sim

    def test_cluster_series_merged(self, live_run):
        result, _, _ = live_run
        assert len(result.gbs) >= 1
        assert result.active_workers.values[0] == N_WORKERS
        assert result.epochs > 0


class TestByteAccounting:
    def test_estimates_and_sockets_agree_per_link(self, live_run):
        """Wire bytes track the Max-N plan estimates within the slack.

        ``grad_bytes_total`` counts the simulator-side estimates for
        every *planned* message; ``transport_send_bytes_total`` counts
        what the sockets actually carried. Frames still queued at the
        horizon never hit the wire, so actually-sent can trail the
        plan — but each sent frame is bounded by its estimate plus the
        documented codec slack, and most planned frames must ship.
        """
        _, _, metrics = live_run
        grad_b = metrics.get("grad_bytes_total")
        grad_n = metrics.get("grad_msgs_total")
        weight_b = metrics.get("weight_bytes_total")
        sent_b = metrics.get("transport_send_bytes_total")
        sent_n = metrics.get("transport_send_msgs_total")
        links = [
            (s, d)
            for s in range(N_WORKERS)
            for d in range(N_WORKERS)
            if s != d
        ]
        for s, d in links:
            est = grad_b.value(s, d) + weight_b.value(s, d)
            planned = grad_n.value(s, d)
            shipped = sent_n.value(s, d, "data")
            wire = sent_b.value(s, d, "data")
            assert planned > 0, f"link {s}->{d} planned nothing"
            assert shipped >= 0.5 * planned, f"link {s}->{d} barely shipped"
            assert wire <= est + size_slack(N_VARS) * shipped
            assert wire >= 0.25 * est

    def test_transport_connections_established(self, live_run):
        _, _, metrics = live_run
        connects = metrics.get("transport_connect_total")
        # Every worker opens control+data to each of its 2 peers.
        for w in range(N_WORKERS):
            assert sum(v for k, v in connects.items() if k[0] == w) >= 4

    def test_iterations_metric_matches_result(self, live_run):
        result, _, metrics = live_run
        iters = metrics.get("iterations_total")
        for w in range(N_WORKERS):
            assert iters.value(w) == result.iterations[w]


class TestProfileMerge:
    def test_merged_profile_holds_training_and_mesh(self, live_run):
        _, _, metrics = live_run
        seconds = metrics.get("profile_seconds_total")
        calls = metrics.get("profile_calls_total")
        for layer in ("nn.loss_and_grads", "mesh.send"):
            assert calls.value(layer) > 0, layer
            assert seconds.value(layer) > 0.0, layer


class TestTraceMerge:
    def test_all_workers_present_with_compute_spans(self, live_run):
        _, tracer, _ = live_run
        events = tracer.events()
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert {0, 1, 2} <= pids
        computes = [
            e for e in events
            if e.get("ph") == "X" and e.get("name") == "compute"
        ]
        assert len(computes) > 3 * 10
        names = [
            e for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        ]
        assert len({e["pid"] for e in names}) >= 3  # deduped, one per worker


class TestChurn:
    def test_killed_worker_surfaces_clean_membership_change(self, setup):
        """SIGKILL one worker: survivors must detect the death through
        the retry budget and fold it into ``on_membership_change`` —
        and the run must end at the horizon, never hang.

        The kill is scripted as a chaos plan, so it is an event on the
        victim's own modelled clock: it lands at exactly t=2.5 however
        loaded the machine is."""
        config, topo = setup
        plan = ChaosPlan(crashes=(CrashEvent(time=2.5, worker=2),))
        engine = LiveEngine(
            config, topo, seed=0, speedup=SPEEDUP, transport=FAST_TRANSPORT
        )
        result = engine.run(HORIZON, chaos=plan)
        # The victim never reported a final result; whatever telemetry
        # deltas it shipped before the kill are retained (crash-safe, at
        # most one shipping interval behind) and must stay consistent
        # with the merged metric catalog.
        iters = engine.metrics.get("iterations_total")
        assert result.iterations[2] == iters.value(2)
        assert result.iterations[2] < result.iterations[0]
        assert result.iterations[0] > 5
        assert result.iterations[1] > 5
        # Survivors recorded the 3 -> 2 membership transition.
        assert result.active_workers.values[0] == 3
        assert result.active_workers.values[-1] == 2


BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class TestBlasPins:
    def test_children_always_inherit_single_thread_blas(self, setup, monkeypatch):
        """W processes x a BLAS pool each oversubscribes the machine, so
        every spawn sees the four pins; an operator's own value wins."""
        config, topo = setup
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        seen = []

        class Abort(Exception):
            pass

        def spawn(self, ctx, w, spec, *, resume):
            seen.append({var: os.environ.get(var) for var in BLAS_VARS})
            raise Abort

        monkeypatch.setattr(LiveEngine, "_spawn", spawn)
        with pytest.raises(Abort):
            LiveEngine(config, topo, seed=0).run(5.0)
        assert seen == [{**dict.fromkeys(BLAS_VARS, "1"), "OMP_NUM_THREADS": "3"}]
