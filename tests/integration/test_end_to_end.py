"""End-to-end scenario tests: the paper's qualitative claims as assertions.

These run miniature versions of the evaluation and assert the *shape*
of the results — who makes progress, who adapts, who stays consistent —
with generous tolerances so they are robust to the seeds.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.cluster.traces import PiecewiseTrace
from repro.core.config import DktConfig, GbsConfig, LbsConfig, MaxNConfig, TrainConfig
from repro.core.engine import TrainingEngine

BASE = dict(
    model="mlp",
    model_kwargs={"in_dim": 576, "hidden": (48,)},
    train_size=1200,
    test_size=240,
    eval_subset=240,
    dataset_kwargs={"noise": 1.2},
    lr=0.08,
    initial_lbs=16,
    eval_period_iters=10,
    lbs=LbsConfig(probe_batches=(4, 8, 16), probe_repeats=1, profile_period_iters=20),
    dkt=DktConfig(period_iters=15),
    gbs=GbsConfig(update_period_s=10.0),
)

OFF = dict(
    gbs=GbsConfig(enabled=False),
    lbs=LbsConfig(enabled=False),
    maxn=MaxNConfig(enabled=False),
    dkt=DktConfig(enabled=False),
    weighted_update=False,
)


def hetero_topology(bw=(5.0, 5.0, 3.5, 3.5, 2.0, 2.0)):
    return ClusterTopology.build(
        cores=[24, 24, 12, 12, 6, 6], bandwidth=list(bw),
        per_core_rate=8.0, overhead=0.05,
    )


def run(system, topo, horizon=90.0, seed=0, **overrides):
    kw = dict(BASE)
    if system != "dlion":
        kw.update(OFF)
    kw.update(overrides)
    cfg = TrainConfig(system=system, **kw)
    return TrainingEngine(cfg, topo, seed=seed).run(horizon)


class TestEverySystemLearns:
    @pytest.mark.parametrize("system", ["dlion", "baseline", "ako", "gaia", "hop"])
    def test_learns_above_chance(self, system):
        res = run(system, hetero_topology())
        assert res.final_mean_accuracy() > 0.3  # chance is 0.1

    @pytest.mark.parametrize("system", ["dlion", "baseline", "ako", "gaia", "hop"])
    def test_no_deadlock_under_extreme_straggler(self, system):
        """One worker has almost no compute and a terrible link; every
        synchronization strategy must still keep the cluster moving."""
        topo = ClusterTopology.build(
            cores=[24, 24, 24, 24, 24, 0.5],
            bandwidth=[5.0, 5.0, 5.0, 5.0, 5.0, 0.2],
            per_core_rate=8.0,
        )
        res = run(system, topo, horizon=60.0)
        assert sum(res.iterations) > 10
        assert min(res.iterations) >= 1

    def test_progresses_with_two_workers(self):
        topo = ClusterTopology.build(cores=[8, 4], bandwidth=[5.0, 5.0])
        res = run("dlion", topo, horizon=60.0)
        assert res.final_mean_accuracy() > 0.3


class TestPaperShapeClaims:
    def test_dlion_beats_lockstep_systems_in_hetero_env(self):
        topo_a = hetero_topology()
        dlion = run("dlion", topo_a, horizon=120.0)
        baseline = run("baseline", hetero_topology(), horizon=120.0)
        assert dlion.final_mean_accuracy() > baseline.final_mean_accuracy()

    def test_dkt_shrinks_worker_deviation(self):
        """Fig. 17's core claim: model synchronization keeps replicas
        consistent. DLion-with-DKT must have lower per-worker accuracy
        spread than async Ako."""
        devs = {}
        for system in ("dlion", "ako"):
            samples = []
            for seed in (0, 1):
                res = run(system, hetero_topology(), horizon=120.0, seed=seed)
                samples.append(res.accuracy_deviation_at(res.horizon))
            devs[system] = np.mean(samples)
        assert devs["dlion"] <= devs["ako"] + 0.01

    def test_lbs_tracks_compute_trace(self):
        """Fig. 19's claim: the LBS controller follows capacity changes."""
        cores = [
            PiecewiseTrace([(0.0, 24), (40.0, 6)]),
            PiecewiseTrace([(0.0, 6), (40.0, 24)]),
        ] + [PiecewiseTrace([(0.0, 12)]) for _ in range(4)]
        from repro.cluster.compute import ComputeProfile
        from repro.cluster.network import BandwidthMatrix

        topo = ClusterTopology(
            compute=[ComputeProfile(c, per_core_rate=8.0) for c in cores],
            network=BandwidthMatrix.from_worker_capacity([5.0] * 6),
        )
        res = run(
            "dlion",
            topo,
            horizon=90.0,
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(
                probe_batches=(4, 8, 16), probe_repeats=1, profile_period_iters=8
            ),
        )
        early0 = res.lbs[0].value_at(35.0)
        late0 = res.lbs[0].value_at(88.0)
        early1 = res.lbs[1].value_at(35.0)
        late1 = res.lbs[1].value_at(88.0)
        assert early0 > early1  # worker 0 starts stronger
        assert late1 > late0    # and the roles flip after the trace flips

    def test_maxn_sends_fewer_bytes_than_baseline(self):
        dlion = run(
            "dlion",
            hetero_topology(),
            horizon=60.0,
            dkt=DktConfig(enabled=False),
            gbs=GbsConfig(enabled=False),
        )
        baseline = run("baseline", hetero_topology(), horizon=60.0)
        dlion_mb_per_iter = sum(dlion.link_bytes.values()) / max(1, sum(dlion.iterations))
        base_mb_per_iter = sum(baseline.link_bytes.values()) / max(1, sum(baseline.iterations))
        assert dlion_mb_per_iter < base_mb_per_iter

    def test_gbs_growth_raises_epoch_throughput(self):
        with_gbs = run("dlion", hetero_topology(), horizon=100.0)
        without = run(
            "dlion", hetero_topology(), horizon=100.0, gbs=GbsConfig(enabled=False)
        )
        assert with_gbs.epochs > without.epochs
