"""Engine-level observability tests: traces, metrics, and determinism."""

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.core.engine import TrainingEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.utils.metrics import accuracy_at_time


def fresh_topology():
    return ClusterTopology.build(
        cores=[8, 4, 2], bandwidth=[20.0, 10.0, 5.0],
        per_core_rate=16.0, overhead=0.02, jitter=0.0,
    )


def traced_run(config, topology, *, seed=0, horizon=15.0):
    tracer = Tracer()
    metrics = MetricsRegistry()
    engine = TrainingEngine(config, topology, seed=seed,
                            tracer=tracer, metrics=metrics)
    result = engine.run(horizon)
    return result, tracer, metrics


class TestTracedRun:
    def test_trace_has_expected_event_kinds(self, fast_config, tiny_topology):
        _, tracer, _ = traced_run(fast_config, tiny_topology)
        events = tracer.events()
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        assert "iter" in cats and "net" in cats
        names = {e["name"] for e in events}
        assert "compute" in names
        assert any(n.startswith("grad->") for n in names)
        # Every worker is a named process; the cluster pseudo-process too.
        procs = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs == {"worker 0", "worker 1", "worker 2", "cluster"}

    def test_trace_timestamps_within_horizon(self, fast_config, tiny_topology):
        result, tracer, _ = traced_run(fast_config, tiny_topology)
        # Spans may start before the horizon and drain slightly past it,
        # but nothing can start after the clock stopped.
        starts = [e["ts"] for e in tracer.events() if e["ph"] != "M"]
        assert min(starts) >= 0.0
        assert max(starts) <= result.horizon * 1e6 + 1e-6

    def test_metrics_agree_with_result(self, fast_config, tiny_topology):
        result, _, metrics = traced_run(fast_config, tiny_topology)
        grad = metrics.get("grad_bytes_total")
        assert result.link_bytes == {
            key: int(v) for key, v in grad.items()
        }
        iters = metrics.get("iterations_total")
        assert [int(iters.value(w)) for w in range(3)] == result.iterations
        assert metrics.get("events_processed").value() == result.events

    def test_tracing_does_not_change_results(self, fast_config, tiny_topology):
        traced, _, _ = traced_run(fast_config, tiny_topology)
        plain = TrainingEngine(fast_config, fresh_topology(), seed=0).run(15.0)
        assert traced.iterations == plain.iterations
        np.testing.assert_array_equal(
            traced.loss[0].values, plain.loss[0].values
        )
        assert traced.link_bytes == plain.link_bytes


class TestDeterminism:
    def test_identical_runs_produce_byte_identical_traces(
        self, fast_config, tiny_topology
    ):
        _, t1, m1 = traced_run(fast_config, tiny_topology, seed=3)
        _, t2, m2 = traced_run(fast_config, fresh_topology(), seed=3)
        assert t1.dumps() == t2.dumps()
        assert m1.to_dict() == m2.to_dict()

    def test_different_seeds_produce_different_traces(
        self, fast_config, tiny_topology
    ):
        _, t1, _ = traced_run(fast_config, tiny_topology, seed=0)
        _, t2, _ = traced_run(fast_config, fresh_topology(), seed=99)
        assert t1.dumps() != t2.dumps()


class TestProfiledRun:
    def test_profiler_sees_hot_scopes(self, fast_config, tiny_topology):
        prof = Profiler()
        TrainingEngine(
            fast_config, tiny_topology, seed=0, profiler=prof
        ).run(10.0)
        totals = prof.rows()
        assert "simclock.dispatch" in totals
        assert "nn.loss_and_grads" in totals
        assert "transmission.plan" in totals
        calls, seconds = totals["nn.loss_and_grads"]
        assert calls > 0 and seconds > 0.0

    def test_self_seconds_sum_to_the_dispatch_root(self, fast_config, tiny_topology):
        ticks = []

        def clock():
            ticks.append(len(ticks))
            return ticks[-1]

        prof = Profiler(clock=clock)
        TrainingEngine(
            fast_config, tiny_topology, seed=0, profiler=prof
        ).run(10.0)
        rows = prof.rows()
        assert rows["simclock.dispatch"][0] == 1
        # run_until is the only root: the first and last readings are
        # its own, and every tick between belongs to exactly one layer.
        assert sum(s for _, s in rows.values()) == ticks[-1] - ticks[0]

    def test_profiling_moves_no_trace_byte(self):
        from repro.experiments.runner import RunSpec, run_experiment

        spec = RunSpec(environment="Homo B", system="dlion", seed=3, horizon=8.0)
        dumps = []
        for profiler in (None, Profiler()):
            tracer, metrics = Tracer(), MetricsRegistry()
            run_experiment(spec, tracer=tracer, metrics=metrics, profiler=profiler)
            dumps.append((tracer.dumps(), metrics.to_dict()))
        (plain_trace, plain), (profiled_trace, profiled) = dumps
        assert profiled_trace == plain_trace
        families = {"profile_seconds_total", "profile_calls_total"}
        assert {k: v for k, v in profiled.items() if k not in families} == {
            k: v for k, v in plain.items() if k not in families
        }
        assert profiled["profile_calls_total"] != plain["profile_calls_total"]


class TestMeanAccuracySeries:
    def test_matches_naive_per_time_evaluation(self, fast_config, tiny_topology):
        result = TrainingEngine(fast_config, tiny_topology, seed=1).run(20.0)
        series = result.mean_accuracy_series()
        grid = sorted({t for s in result.accuracy for t in s.times})
        assert series.times == grid
        for t, v in zip(series.times, series.values):
            naive = float(np.mean(
                [accuracy_at_time(s, t) for s in result.accuracy]
            ))
            assert abs(v - naive) < 1e-12

    def test_handles_disjoint_sample_times(self):
        from repro.core.engine import RunResult
        from repro.core.run_metrics import RunMetrics

        metrics = MetricsRegistry()
        accuracy = RunMetrics(metrics).s_accuracy
        for w, points in enumerate([[(1.0, 0.2), (4.0, 0.6)],
                                    [(2.0, 0.5), (3.0, 0.55)]]):
            for t, v in points:
                accuracy.append(t, v, w)
        result = RunResult(n_workers=2, horizon=5.0, metrics=metrics)
        series = result.mean_accuracy_series()
        assert series.times == [1.0, 2.0, 3.0, 4.0]
        expected = [(0.2 + 0.0) / 2, (0.2 + 0.5) / 2,
                    (0.2 + 0.55) / 2, (0.6 + 0.55) / 2]
        np.testing.assert_allclose(series.values, expected)
