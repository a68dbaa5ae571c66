"""Telemetry-plane acceptance tests for the live backend.

One real 3-worker run SIGKILLs a worker (no restart) with a fast
delta-shipping cadence and a ``--status-dir`` attached: the victim's
metrics, series and trace spans must survive the kill through the delta
stream (crash-safe, at most one shipping interval behind), the
survivors' ``lifecycle_events`` must explain the crash, and the
supervisor's ``live_status.json`` must be readable and coherent. A
second short run checks the ``--stats-interval`` one-line
cluster-health prints. Snapshot/render logic itself is covered without
any live runs (and without wall-clock sleeps) in
``tests/obs/test_live_status.py``.
"""

from collections import Counter

import pytest

from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.core.engine import TrainingEngine
from repro.core.live_engine import LiveEngine
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.obs.live_status import read_snapshot, render_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.transport.mesh import TransportConfig

N_WORKERS = 3
HORIZON = 30.0
SPEEDUP = 5.0
VICTIM = 2
SHIP_INTERVAL_S = 0.25

FAST_TRANSPORT = TransportConfig(
    connect_timeout_s=2.0,
    send_timeout_s=1.0,
    retry_base_s=0.02,
    retry_max_s=0.1,
    retry_attempts=3,
    heartbeat_interval_s=0.05,
)

PLAN = ChaosPlan(crashes=(CrashEvent(time=4.0, worker=VICTIM),))


@pytest.fixture(scope="module")
def setup():
    env = get_environment("Homo A")
    workload = workload_for(env)
    topo = build_topology(env, workload, n_workers=N_WORKERS)
    return build_config("dlion", workload), topo


@pytest.fixture(scope="module")
def kill_run(setup, tmp_path_factory):
    """Kill the victim for good mid-run, with fast delta shipping and a
    status dir attached."""
    config, topo = setup
    status_dir = tmp_path_factory.mktemp("live-status")
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
        ship_interval_s=SHIP_INTERVAL_S,
        status_dir=str(status_dir),
    )
    result = engine.run(HORIZON, chaos=PLAN)
    return engine, result, tracer, metrics, status_dir


class TestCrashSafeRetention:
    def test_deltas_flowed(self, kill_run):
        engine, _, _, _, _ = kill_run
        # ~6 s of wall at a 0.25 s cadence from three workers.
        assert engine.deltas_received > 10

    def test_victim_metrics_survive_the_kill(self, kill_run):
        """The acceptance criterion: a SIGKILLed worker's metrics are
        retained up to at most one shipping interval behind the kill."""
        engine, result, _, metrics, _ = kill_run
        iters = metrics.get("iterations_total")
        assert iters.value(VICTIM) > 0
        # and stay consistent with the merged result view
        assert result.iterations[VICTIM] == iters.value(VICTIM)
        # the victim died early, so it must trail the survivors
        assert result.iterations[VICTIM] < min(
            result.iterations[w] for w in range(N_WORKERS) if w != VICTIM
        )

    def test_victim_series_survive_the_kill(self, kill_run):
        """Series ship in the same registry state as the counters, so a
        killed worker's history survives as far as its iteration count."""
        _, result, _, _, _ = kill_run
        assert [len(s) for s in result.loss] == result.iterations
        assert result.iterations[VICTIM] > 0
        assert result.lbs[VICTIM]

    def test_victim_trace_spans_survive(self, kill_run):
        _, _, tracer, _, _ = kill_run
        victim_spans = [
            e for e in tracer.events()
            if e.get("pid") == VICTIM
            and e.get("ph") == "X"
            and e.get("name") == "compute"
        ]
        assert victim_spans  # shipped by deltas; no final payload existed

    def test_survivors_recorded_the_death(self, kill_run):
        _, _, _, metrics, _ = kill_run
        events = metrics.get("lifecycle_events")
        for w in range(N_WORKERS):
            if w == VICTIM:
                continue
            assert events.series(w, "peer-dead", VICTIM).values
            assert len(events.series(w, "finalize", -1)) == 1

    def test_lifecycle_events_land_in_the_trace(self, kill_run):
        """With tracing on, every merged lifecycle event is a Chrome
        instant in the merged trace, and nothing else is."""
        _, _, tracer, metrics, _ = kill_run
        recorded = Counter({
            key: len(series)
            for key, series in metrics.get("lifecycle_events").items()
        })
        traced = Counter(
            (e["pid"], e["name"], e["args"]["peer"])
            for e in tracer.events()
            if e.get("ph") == "i" and e.get("cat") == "lifecycle"
        )
        assert traced == recorded


class TestStatusSnapshot:
    def test_snapshot_readable_and_coherent(self, kill_run):
        _, _, _, _, status_dir = kill_run
        snap = read_snapshot(status_dir)
        assert snap is not None
        assert snap["version"] == 2
        assert set(snap["workers"]) == {"0", "1", "2"}
        cluster = snap["cluster"]
        assert cluster["deltas_received"] > 0
        assert cluster["send_msgs_total"] > 0
        assert cluster["send_bytes_total"] > 0
        assert cluster["frame_latency_p99_s"] is not None
        assert "queue_depth_max" in cluster
        assert "queue_dropped_total" in cluster

    def test_final_snapshot_saw_the_dead_victim(self, kill_run):
        _, _, _, _, status_dir = kill_run
        snap = read_snapshot(status_dir)
        # the victim dies ~1 s into a ~6 s run; the last written
        # snapshot must reflect the loss
        assert snap["workers"][str(VICTIM)]["alive"] is False
        assert snap["workers"]["0"]["iteration"] > snap["workers"][
            str(VICTIM)
        ]["iteration"]
        # ...and worker 0's newest lifecycle events say why.
        assert {"event": "peer-dead", "peer": VICTIM} in [
            {"event": e["event"], "peer": e["peer"]}
            for e in snap["events_tail"]["0"]
        ]

    def test_snapshot_renders(self, kill_run):
        _, _, _, _, status_dir = kill_run
        text = render_snapshot(read_snapshot(status_dir))
        assert "[live t=" in text
        assert "worker" in text


class TestStatsInterval:
    def test_periodic_health_lines(self, setup, capsys):
        """--stats-interval prints parseable one-line summaries."""
        config, topo = setup
        engine = LiveEngine(
            config,
            topo,
            seed=0,
            speedup=SPEEDUP,
            transport=FAST_TRANSPORT,
            ship_interval_s=0.25,
            stats_interval_s=0.4,
        )
        engine.run(10.0)
        lines = [
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("[live t=")
        ]
        assert len(lines) >= 2  # ~2 s of wall at a 0.4 s cadence
        for ln in lines:
            assert "it/s" in ln and "p99" in ln and "|" in ln
        # early ticks see the whole cluster up (later ones may catch
        # workers that already delivered their result and exited)
        assert any(
            ln.endswith(f"up {N_WORKERS}/{N_WORKERS}") for ln in lines
        )


class TestQueueFamilyParity:
    def test_queue_families_match_across_backends(self, setup, kill_run):
        """queue_depth / queue_dropped_total carry the same kind and
        label schema whichever backend recorded them."""
        config, topo = setup
        _, _, _, live_metrics, _ = kill_run
        sim_metrics = MetricsRegistry()
        TrainingEngine(config, topo, seed=0, metrics=sim_metrics).run(5.0)
        for name in ("queue_depth", "queue_dropped_total"):
            sim_fam = sim_metrics.get(name)
            live_fam = live_metrics.get(name)
            assert sim_fam is not None and live_fam is not None
            assert sim_fam.kind == live_fam.kind
            assert tuple(sim_fam.label_names) == tuple(live_fam.label_names)
            assert tuple(live_fam.label_names) == ("worker", "kind")
