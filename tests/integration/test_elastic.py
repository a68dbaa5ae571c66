"""Integration tests for elastic membership during training."""

import pytest

from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.cluster.topology import ClusterTopology
from repro.core.config import DktConfig, GbsConfig, LbsConfig, MaxNConfig, TrainConfig
from repro.core.engine import TrainingEngine


def topo():
    return ClusterTopology.build(
        cores=[8, 8, 4, 2], bandwidth=[20.0, 20.0, 10.0, 5.0],
        per_core_rate=16.0, overhead=0.02, jitter=0.0,
    )


def config(system="dlion", **kw):
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
        system=system,
    )
    if system != "dlion":
        base.update(
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
            maxn=MaxNConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            weighted_update=False,
        )
    base.update(kw)
    return TrainConfig(**base)


class TestLeaveAndRejoin:
    def test_training_survives_a_departure(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 3)])
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan)
        res = engine.run(40.0)
        # survivors keep iterating well past the departure
        assert all(res.iterations[w] > 20 for w in range(3))
        assert res.final_mean_accuracy() > 0.3
        assert res.active_workers.values == [4.0, 3.0]

    def test_departed_worker_stops_iterating(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 3)])
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan)
        engine.advance_to(12.0)
        iters_at_leave = engine.workers[3].iteration
        engine.advance_to(40.0)
        assert engine.workers[3].iteration <= iters_at_leave + 1

    def test_lbs_redistributes_to_survivors(self):
        plan = ChaosPlan(crashes=[CrashEvent(15.0, 0)])
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan)
        res = engine.run(45.0)
        # Worker 0 held the largest share (8 fast cores); after it
        # leaves, the survivors split the same GBS so their LBS grows.
        w1 = res.lbs[1]
        before = w1.value_at(14.0)
        after = w1.value_at(44.0)
        assert after > before

    def test_rejoin_bootstraps_and_resumes(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 3, restart_after=15.0)])
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan)
        res = engine.run(60.0)
        w3 = engine.workers[3]
        assert 3 in engine.active
        assert w3.iteration > 0
        # the join pulled a weight snapshot from a peer
        assert w3.dkt.merges_applied >= 1
        assert res.active_workers.values == [4.0, 3.0, 4.0]

    @pytest.mark.parametrize("system", ["baseline", "hop", "ako", "gaia"])
    def test_baseline_systems_survive_churn(self, system):
        """Even the lockstep Baseline must not deadlock when a peer
        disappears: the active-set rebuild drops the missing peer from
        every sync gate."""
        plan = ChaosPlan(crashes=[CrashEvent(8.0, 2, restart_after=12.0)])
        engine = TrainingEngine(config(system), topo(), seed=0, chaos=plan)
        res = engine.run(40.0)
        for w in (0, 1, 3):
            assert res.iterations[w] > 15

    def test_rejoiner_keeps_learning_after_bootstrap(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 3, restart_after=10.0)])
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan)
        res = engine.run(60.0)
        acc3 = res.accuracy[3]
        assert acc3.values[-1] > 0.3

    def test_schedule_cluster_size_mismatch(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 5)])
        with pytest.raises(ValueError, match="only 4 workers"):
            TrainingEngine(config(), topo(), seed=0, chaos=plan)

    def test_schedule_below_two_workers_rejected(self):
        plan = ChaosPlan(
            crashes=[CrashEvent(5.0, 0), CrashEvent(6.0, 1), CrashEvent(7.0, 2)]
        )
        with pytest.raises(ValueError, match="at least two must stay up"):
            TrainingEngine(config(), topo(), seed=0, chaos=plan)


class TestMessagesToOffline:
    def test_in_flight_messages_to_departed_worker_dropped(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 3)])
        engine = TrainingEngine(config(), topo(), seed=0, chaos=plan)
        engine.run(40.0)
        w3 = engine.workers[3]
        received_while_active = w3.stats_grad_msgs_received
        # nothing should have been delivered after departure: drain any
        # stragglers and re-check
        engine.clock.run(max_events=10_000)
        assert w3.stats_grad_msgs_received == received_while_active
