"""Tests for the compute/wait utilization accounting."""


from repro.cluster.topology import ClusterTopology
from repro.core.config import DktConfig, GbsConfig, LbsConfig, MaxNConfig, TrainConfig
from repro.core.engine import TrainingEngine


def topo():
    # Strongly heterogeneous compute over a fast LAN: sync policies wait
    # on stragglers, async ones do not.
    return ClusterTopology.build(
        cores=[16, 16, 2], bandwidth=[100.0, 100.0, 100.0],
        per_core_rate=16.0, overhead=0.02, jitter=0.0,
    )


def run(system, horizon=30.0):
    cfg = TrainConfig(
        model="mlp",
        model_kwargs={"in_dim": 576, "hidden": (32,)},
        train_size=300,
        test_size=80,
        eval_subset=80,
        initial_lbs=8,
        system=system,
        gbs=GbsConfig(enabled=False),
        lbs=LbsConfig(enabled=False),
        maxn=MaxNConfig(enabled=False),
        dkt=DktConfig(enabled=False),
        weighted_update=False,
        eval_period_iters=20,
    )
    return TrainingEngine(cfg, topo(), seed=0).run(horizon)


class TestUtilization:
    def test_lockstep_fast_workers_wait(self):
        res = run("baseline")
        # fast workers (0, 1) idle while the 2-core straggler computes
        assert res.wait_time[0] / res.horizon > 0.3
        assert res.wait_time[2] < res.wait_time[0]

    def test_async_never_waits(self):
        res = run("ako")
        assert all(w == 0.0 for w in res.wait_time)

    def test_compute_plus_wait_bounded_by_horizon(self):
        for system in ("baseline", "ako", "hop"):
            res = run(system)
            for w in range(3):
                assert res.compute_time[w] + res.wait_time[w] <= res.horizon + 1.5

    def test_compute_time_positive_everywhere(self):
        res = run("baseline")
        assert all(c > 0 for c in res.compute_time)

    def test_bounded_waits_less_than_lockstep(self):
        lockstep = run("baseline")
        bounded = run("hop")  # staleness 5, backup 1 skips the straggler
        assert bounded.wait_time[0] < lockstep.wait_time[0]
