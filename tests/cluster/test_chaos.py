"""Chaos-plan tests: schema validation, lowering, injection, determinism.

The unit half exercises :mod:`repro.cluster.chaos` directly; the
integration half drives the simulator with plans and checks that
crash/restart lowers onto the membership machinery, that link faults
drop/delay messages, and that a fixed seed reproduces a chaotic run
byte-for-byte.
"""

import json

import numpy as np
import pytest

from repro.cluster.chaos import ChaosPlan, CrashEvent, LinkFault, LinkFaultInjector
from repro.cluster.membership import MembershipSchedule
from repro.cluster.topology import ClusterTopology
from repro.core.config import DktConfig, GbsConfig, LbsConfig, TrainConfig
from repro.core.engine import TrainingEngine
from repro.obs.metrics import MetricsRegistry


def topo():
    return ClusterTopology.build(
        cores=[8, 8, 4, 2], bandwidth=[20.0, 20.0, 10.0, 5.0],
        per_core_rate=16.0, overhead=0.02, jitter=0.0,
    )


def config(**kw):
    base = dict(
        model="mlp",
        model_kwargs={"in_dim": 576, "hidden": (32,)},
        train_size=320,
        test_size=80,
        eval_subset=80,
        initial_lbs=8,
        gbs=GbsConfig(update_period_s=8.0),
        lbs=LbsConfig(probe_batches=(4, 8), probe_repeats=1, profile_period_iters=15),
        dkt=DktConfig(period_iters=10),
        eval_period_iters=10,
        system="dlion",
    )
    base.update(kw)
    return TrainConfig(**base)


class TestSchema:
    def test_crash_event_validation(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            CrashEvent(time=-1.0, worker=0)
        with pytest.raises(ValueError, match="worker id"):
            CrashEvent(time=1.0, worker=-2)
        with pytest.raises(ValueError, match="restart_after"):
            CrashEvent(time=1.0, worker=0, restart_after=0.0)

    def test_link_fault_validation(self):
        with pytest.raises(ValueError, match="kind"):
            LinkFault(kind="melt", start=0.0, duration=1.0, src=0, dst=1)
        with pytest.raises(ValueError, match="duration"):
            LinkFault(kind="blackout", start=0.0, duration=0.0, src=0, dst=1)
        with pytest.raises(ValueError, match="src == dst"):
            LinkFault(kind="blackout", start=0.0, duration=1.0, src=1, dst=1)
        with pytest.raises(ValueError, match="probability"):
            LinkFault(kind="drop", start=0.0, duration=1.0, src=0, dst=1,
                      probability=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            LinkFault(kind="delay", start=0.0, duration=1.0, src=0, dst=1)

    def test_crash_narrative_no_crash_while_down(self):
        with pytest.raises(ValueError, match="no restart"):
            ChaosPlan(crashes=(
                CrashEvent(time=5.0, worker=1),
                CrashEvent(time=9.0, worker=1),
            ))
        with pytest.raises(ValueError, match="before its"):
            ChaosPlan(crashes=(
                CrashEvent(time=5.0, worker=1, restart_after=10.0),
                CrashEvent(time=9.0, worker=1),
            ))

    def test_validate_names_the_offending_worker(self):
        plan = ChaosPlan(crashes=(CrashEvent(time=1.0, worker=7),))
        with pytest.raises(ValueError, match=r"worker 7 .* only 4 workers .*0\.\.3"):
            plan.validate(4)

    def test_validate_names_the_offending_link(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="blackout", start=0.0, duration=1.0, src=0, dst=9),
        ))
        with pytest.raises(ValueError, match=r"link 0->9 .* only 4 workers"):
            plan.validate(4)

    def test_from_dict_rejects_unknown_keys_and_bad_entries(self):
        with pytest.raises(ValueError, match="unknown chaos plan keys"):
            ChaosPlan.from_dict({"crashs": []})
        with pytest.raises(ValueError, match="bad crash entry #0"):
            ChaosPlan.from_dict({"crashes": [{"when": 3.0, "worker": 0}]})
        with pytest.raises(ValueError, match="bad link_fault entry #1"):
            ChaosPlan.from_dict({"link_faults": [
                {"kind": "blackout", "start": 0.0, "duration": 1.0,
                 "src": 0, "dst": 1},
                {"kind": "blackout", "start": 0.0},
            ]})

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "crashes": [{"time": 8.0, "worker": 3, "restart_after": 6.0}],
            "link_faults": [{"kind": "delay", "start": 1.0, "duration": 2.0,
                             "src": 0, "dst": 1, "delay_s": 0.5}],
        }))
        plan = ChaosPlan.from_file(str(path))
        assert plan.crashes == (CrashEvent(time=8.0, worker=3, restart_after=6.0),)
        assert plan.link_faults[0].delay_s == 0.5

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            ChaosPlan.from_file(str(path))


class TestLowering:
    def test_membership_events(self):
        plan = ChaosPlan(crashes=(
            CrashEvent(time=5.0, worker=1, restart_after=3.0),
            CrashEvent(time=7.0, worker=2),
        ))
        assert plan.membership_events() == [
            (5.0, 1, "leave"), (8.0, 1, "join"), (7.0, 2, "leave"),
        ]
        assert plan.has_restarts()
        assert not ChaosPlan(crashes=(CrashEvent(time=7.0, worker=2),)).has_restarts()

    def test_events_feed_a_membership_schedule(self):
        plan = ChaosPlan(crashes=(CrashEvent(time=5.0, worker=1, restart_after=3.0),))
        sched = MembershipSchedule(plan.membership_events(), n_workers=4)
        assert sched.active_at(6.0) == {0, 2, 3}
        assert sched.active_at(8.0) == {0, 1, 2, 3}


class TestInjector:
    def _rng(self):
        return np.random.default_rng(0)

    def test_blackout_window_drops_only_inside(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="blackout", start=2.0, duration=3.0, src=0, dst=1),
        ))
        inj = LinkFaultInjector(plan, self._rng())
        assert inj.on_send(0, 1, 1.9) == 0.0
        assert inj.on_send(0, 1, 2.0) is None
        assert inj.on_send(0, 1, 4.999) is None
        assert inj.on_send(0, 1, 5.0) == 0.0
        assert inj.on_send(1, 0, 3.0) == 0.0  # directed: reverse unaffected
        assert inj.blackout_active(0, 1, 3.0)
        assert not inj.blackout_active(1, 0, 3.0)

    def test_bidirectional_covers_both_directions(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="blackout", start=0.0, duration=1.0, src=0, dst=1,
                      bidirectional=True),
        ))
        inj = LinkFaultInjector(plan, self._rng())
        assert inj.on_send(0, 1, 0.5) is None
        assert inj.on_send(1, 0, 0.5) is None
        assert inj.on_send(0, 2, 0.5) == 0.0

    def test_drop_probability_extremes(self):
        always = ChaosPlan(link_faults=(
            LinkFault(kind="drop", start=0.0, duration=1.0, src=0, dst=1,
                      probability=1.0),
        ))
        never = ChaosPlan(link_faults=(
            LinkFault(kind="drop", start=0.0, duration=1.0, src=0, dst=1,
                      probability=0.0),
        ))
        assert LinkFaultInjector(always, self._rng()).on_send(0, 1, 0.5) is None
        assert LinkFaultInjector(never, self._rng()).on_send(0, 1, 0.5) == 0.0

    def test_delay_windows_accumulate(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="delay", start=0.0, duration=2.0, src=0, dst=1,
                      delay_s=0.5),
            LinkFault(kind="delay", start=1.0, duration=2.0, src=0, dst=1,
                      delay_s=0.25),
        ))
        inj = LinkFaultInjector(plan, self._rng())
        assert inj.on_send(0, 1, 0.5) == 0.5
        assert inj.on_send(0, 1, 1.5) == 0.75
        assert inj.on_send(0, 1, 2.5) == 0.25

    def test_rng_untouched_outside_drop_windows(self):
        """The injector must consume randomness only for drop coin flips,
        so attaching a blackout/delay-only plan perturbs nothing."""
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="blackout", start=0.0, duration=1.0, src=0, dst=1),
            LinkFault(kind="delay", start=2.0, duration=1.0, src=0, dst=1,
                      delay_s=0.1),
        ))
        rng = self._rng()
        before = rng.bit_generator.state
        inj = LinkFaultInjector(plan, rng)
        inj.on_send(0, 1, 0.5)
        inj.on_send(0, 1, 2.5)
        inj.on_send(0, 1, 9.0)
        assert rng.bit_generator.state == before


class TestSimIntegration:
    def test_crash_restart_lowers_to_leave_join(self):
        plan = ChaosPlan(crashes=(CrashEvent(time=10.0, worker=3, restart_after=15.0),))
        metrics = MetricsRegistry()
        engine = TrainingEngine(
            config(), topo(), seed=0, chaos=plan, metrics=metrics
        )
        res = engine.run(60.0)
        assert res.active_workers.values == [4.0, 3.0, 4.0]
        assert engine.workers[3].active
        # The rejoin ran the DKT bootstrap pull.
        assert engine.workers[3].dkt.merges_applied >= 1
        # Recovery accounting: one restart, recovery == modelled downtime.
        assert metrics.get("worker_restarts_total").value(3) == 1
        hist = metrics.get("recovery_time_seconds")
        assert hist.count(3) == 1
        assert hist.sum(3) == pytest.approx(15.0)
        assert metrics.get("lost_iterations_total").value(3) == 0

    def test_chaos_merges_with_churn_schedule(self):
        plan = ChaosPlan(crashes=(CrashEvent(time=30.0, worker=3, restart_after=5.0),))
        sched = MembershipSchedule([(10.0, 1, "leave"), (20.0, 1, "join")],
                                   n_workers=4)
        engine = TrainingEngine(
            config(), topo(), seed=0, chaos=plan, membership=sched
        )
        res = engine.run(50.0)
        assert res.active_workers.values == [4.0, 3.0, 4.0, 3.0, 4.0]

    def test_conflicting_narratives_rejected(self):
        plan = ChaosPlan(crashes=(CrashEvent(time=15.0, worker=1),))
        sched = MembershipSchedule([(10.0, 1, "leave")], n_workers=4)
        with pytest.raises(ValueError, match="conflicts with the membership"):
            TrainingEngine(config(), topo(), seed=0, chaos=plan, membership=sched)

    def test_oversized_plan_rejected(self):
        plan = ChaosPlan(crashes=(CrashEvent(time=1.0, worker=9),))
        with pytest.raises(ValueError, match="only 4 workers"):
            TrainingEngine(config(), topo(), seed=0, chaos=plan)

    def test_blackout_drops_messages_and_flips_gauge(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="blackout", start=5.0, duration=20.0, src=0, dst=1,
                      bidirectional=True),
        ))
        metrics = MetricsRegistry()
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan,
                                metrics=metrics)
        engine.advance_to(15.0)
        dropped = metrics.get("chaos_dropped_total")
        assert dropped.value(0, 1) > 0
        assert dropped.value(1, 0) > 0
        assert metrics.get("partition_active").value() == 1
        engine.run(30.0)
        assert metrics.get("partition_active").value() == 0

    def test_training_survives_a_partition(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="blackout", start=5.0, duration=10.0, src=0, dst=1,
                      bidirectional=True),
        ))
        res = TrainingEngine(config(), topo(), seed=0, chaos=plan).run(40.0)
        assert all(n > 20 for n in res.iterations)
        assert res.final_mean_accuracy() > 0.3

    def test_delay_fault_slows_but_delivers(self):
        plan = ChaosPlan(link_faults=(
            LinkFault(kind="delay", start=0.0, duration=40.0, src=0, dst=1,
                      delay_s=1.0),
        ))
        metrics = MetricsRegistry()
        res = TrainingEngine(config(), topo(), seed=0, chaos=plan,
                             metrics=metrics).run(40.0)
        # Nothing dropped; the cluster still trains.
        assert metrics.get("chaos_dropped_total").value(0, 1) == 0
        assert all(n > 10 for n in res.iterations)

    def test_chaotic_run_is_seed_deterministic(self):
        """The acceptance criterion: the same plan + seed reproduces the
        run byte-for-byte (loss series, iteration counts, drop counts)."""
        plan = ChaosPlan(
            crashes=(CrashEvent(time=10.0, worker=3, restart_after=8.0),),
            link_faults=(
                LinkFault(kind="drop", start=5.0, duration=15.0, src=0, dst=1,
                          probability=0.5),
                LinkFault(kind="delay", start=0.0, duration=30.0, src=1, dst=2,
                          delay_s=0.2),
            ),
        )

        def run():
            metrics = MetricsRegistry()
            res = TrainingEngine(config(), topo(), seed=7, chaos=plan,
                                 metrics=metrics).run(35.0)
            return (
                res.iterations,
                [tuple(s.values) for s in res.loss],
                [tuple(s.times) for s in res.loss],
                sorted(metrics.get("chaos_dropped_total").items()),
            )

        assert run() == run()


class TestLiveness:
    """The guarantee that holds for DLion (bounded staleness, backup 0):
    a one-way blackout, a drop window or a delay window costs at most a
    tenth of any worker's iterations. A *bidirectional* blackout between
    two workers can leave each waiting for the other's gradient for the
    rest of the run, so it is not covered (docs/robustness.md)."""

    HORIZON = 30.0

    @staticmethod
    def _iterations(doc):
        from repro.experiments.environments import get_environment
        from repro.experiments.runner import build_config, build_topology, workload_for

        env = get_environment("Homo A")
        workload = workload_for(env)
        engine = TrainingEngine(
            build_config("dlion", workload),
            build_topology(env, workload, n_workers=3),
            seed=0, chaos=ChaosPlan.from_dict(doc) if doc else None,
        )
        return engine.run(TestLiveness.HORIZON).iterations

    @pytest.fixture(scope="class")
    def fault_free(self):
        return self._iterations(None)

    @pytest.mark.parametrize("fault", [
        {"kind": "blackout", "start": 5.0, "duration": 4.0, "src": 0, "dst": 1},
        {"kind": "drop", "start": 5.0, "duration": 10.0, "src": 0, "dst": 1,
         "probability": 0.5},
        {"kind": "delay", "start": 12.0, "duration": 10.0, "src": 1, "dst": 2,
         "delay_s": 0.2},
    ], ids=["one-way blackout", "drop", "delay"])
    def test_every_worker_keeps_training(self, fault, fault_free):
        faulted = self._iterations({"link_faults": [fault]})
        assert all(n >= 0.9 * base for n, base in zip(faulted, fault_free)), (
            faulted, fault_free,
        )
