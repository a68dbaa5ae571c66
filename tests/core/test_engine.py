"""Integration tests for the worker + engine event loop."""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.config import DktConfig, GbsConfig, LbsConfig, MaxNConfig
from repro.core.engine import TrainingEngine
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def make_engine(fast_config, tiny_topology, **changes):
    cfg = fast_config.with_(**changes) if changes else fast_config
    return TrainingEngine(cfg, tiny_topology, seed=0)


class TestEngineBasics:
    def test_run_produces_metrics(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(20.0)
        assert res.n_workers == 3
        assert all(it > 0 for it in res.iterations)
        assert all(len(acc) > 0 for acc in res.accuracy)
        assert res.epochs > 0
        assert res.events > 0

    def test_loss_decreases(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(30.0)
        loss = res.loss[0]
        early = np.mean(loss.values[:5])
        late = np.mean(loss.values[-5:])
        assert late < early

    def test_deterministic_for_seed(self, fast_config, tiny_topology):
        r1 = TrainingEngine(fast_config, tiny_topology, seed=3).run(15.0)
        topo2 = ClusterTopology.build(
            cores=[8, 4, 2], bandwidth=[20.0, 10.0, 5.0],
            per_core_rate=16.0, overhead=0.02, jitter=0.0,
        )
        r2 = TrainingEngine(fast_config, topo2, seed=3).run(15.0)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.loss[0].values, r2.loss[0].values)
        np.testing.assert_array_equal(r1.accuracy[1].values, r2.accuracy[1].values)

    def test_different_seeds_differ(self, fast_config, tiny_topology):
        r1 = make_engine(fast_config, tiny_topology).run(10.0)
        topo2 = ClusterTopology.build(
            cores=[8, 4, 2], bandwidth=[20.0, 10.0, 5.0],
            per_core_rate=16.0, overhead=0.02, jitter=0.0,
        )
        r2 = TrainingEngine(fast_config, topo2, seed=99).run(10.0)
        assert r1.loss[0].values != r2.loss[0].values

    def test_lbs_controller_favours_fast_workers(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(25.0)
        final_lbs = [s.values[-1] for s in res.lbs]
        # cores are 8/4/2: worker 0 must carry the largest batches
        assert final_lbs[0] > final_lbs[1] > final_lbs[2]

    def test_gbs_growth_recorded(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(30.0)
        assert len(res.gbs) >= 2  # initial + at least one growth step
        assert res.gbs.values[-1] > res.gbs.values[0]

    def test_link_stats_recorded(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(10.0)
        assert (0, 1) in res.link_entries
        assert res.link_bytes[(0, 1)] > 0
        assert (0, 1) in res.link_chosen_n  # dlion records chosen N

    def test_dkt_merges_happen(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(30.0)
        assert res.dkt_merges > 0

    def test_run_epochs_stops_at_target(self, fast_config, tiny_topology):
        engine = make_engine(fast_config, tiny_topology)
        res = engine.run_epochs(3.0, max_time=500.0)
        assert res.epochs >= 3.0
        assert res.epochs < 6.0  # did not massively overshoot

    def test_profiler_totals_exported_to_metrics(self, fast_config, tiny_topology):
        from repro.obs.profile import Profiler

        prof = Profiler()
        engine = TrainingEngine(fast_config, tiny_topology, seed=0, profiler=prof)
        res = engine.run(10.0)
        seconds = res.metrics.get("profile_seconds_total")
        calls = res.metrics.get("profile_calls_total")
        for scope in ("transmission.plan", "nn.loss_and_grads", "simclock.dispatch"):
            n, total = prof.rows()[scope]
            assert calls.value(scope) == n
            assert seconds.value(scope) == pytest.approx(total)

    def test_no_profiler_no_profile_metrics(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(5.0)
        assert not list(res.metrics.get("profile_seconds_total").items())


class TestEngineSystems:
    @pytest.mark.parametrize("system", ["baseline", "ako", "gaia", "hop"])
    def test_baseline_systems_run(self, fast_config, tiny_topology, system):
        cfg = fast_config.with_(
            system=system,
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
            maxn=MaxNConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            weighted_update=False,
        )
        res = TrainingEngine(cfg, tiny_topology, seed=0).run(15.0)
        assert all(it > 0 for it in res.iterations)
        assert res.dkt_merges == 0

    def test_baseline_is_lockstep(self, fast_config, tiny_topology):
        cfg = fast_config.with_(
            system="baseline",
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            weighted_update=False,
        )
        res = TrainingEngine(cfg, tiny_topology, seed=0).run(20.0)
        assert max(res.iterations) - min(res.iterations) <= 1

    def test_ako_is_async(self, fast_config, tiny_topology):
        cfg = fast_config.with_(
            system="ako",
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            weighted_update=False,
        )
        res = TrainingEngine(cfg, tiny_topology, seed=0).run(20.0)
        # cores 8/4/2: the fast worker must get far ahead
        assert res.iterations[0] > 1.5 * res.iterations[2]

    def test_fixed_lbs_without_controller(self, fast_config, tiny_topology):
        cfg = fast_config.with_(
            system="baseline",
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            weighted_update=False,
        )
        res = TrainingEngine(cfg, tiny_topology, seed=0).run(10.0)
        for series in res.lbs:
            assert set(series.values) == {cfg.initial_lbs}


class TestRunResultMetrics:
    def test_mean_accuracy_monotone_series(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(20.0)
        series = res.mean_accuracy_series()
        vals = series.values
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_time_to_accuracy_consistent(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(30.0)
        final = res.final_mean_accuracy()
        t = res.time_to_accuracy(final * 0.5)
        assert t is not None and 0 < t <= res.horizon
        assert res.time_to_accuracy(1.1) is None

    def test_deviation_nonnegative(self, fast_config, tiny_topology):
        res = make_engine(fast_config, tiny_topology).run(10.0)
        assert res.accuracy_deviation_at(10.0) >= 0.0


class TestDenseMessagesInFlight:
    def test_unchanged_after_the_senders_next_iteration(self):
        """Dense messages carry the step's gradient arrays uncopied, and
        on slow links they outlive the sender's next step: whatever that
        step does, the bytes still in flight must not move."""
        env = get_environment("Hetero SYS A")
        workload = workload_for(env)
        engine = TrainingEngine(
            build_config("baseline", workload), build_topology(env, workload), seed=0
        )
        sent = []  # (message, copy of its arrays at send time)
        delivered = set()
        send_batch = engine.send_gradients_batch

        def recording_send(src, items):
            for _dst, msg, _n in items:
                sent.append((msg, {k: g.copy() for k, g in msg.dense.items()}))
            send_batch(src, items)

        engine.send_gradients_batch = recording_send
        for worker in engine.workers:
            def on_gradient(msg, _handler=worker.on_gradient_message):
                delivered.add(id(msg))
                _handler(msg)

            worker.on_gradient_message = on_gradient

        horizon = 30.0
        engine.advance_to(0.0)
        checked = 0
        while engine.clock.now < horizon:
            engine.clock.run_until(horizon, max_events=1)
            for msg, at_send in sent:
                sender = engine.workers[msg.sender]
                if id(msg) not in delivered and sender.iteration > msg.iteration:
                    checked += 1
                    for name, g in msg.dense.items():
                        np.testing.assert_array_equal(g, at_send[name])
        assert checked > 0  # the scenario occurred: in flight across a step


class TestSharedTopology:
    def test_two_runs_on_one_topology_give_the_same_bytes(
        self, fast_config, tiny_topology
    ):
        """Link state lives on the topology; the second engine must not
        start behind the first one's queued transfers."""
        def digest() -> str:
            tracer, metrics = Tracer(), MetricsRegistry()
            TrainingEngine(
                fast_config, tiny_topology, seed=9, tracer=tracer, metrics=metrics
            ).run(20.0)
            dump = json.dumps(metrics.to_dict(), sort_keys=True, default=str)
            return hashlib.sha256(tracer.dumps().encode() + dump.encode()).hexdigest()

        assert digest() == digest()
