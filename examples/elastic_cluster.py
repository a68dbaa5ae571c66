#!/usr/bin/env python
"""Elastic micro-clouds: workers leave and rejoin mid-training.

The paper scopes DLion to a fixed worker set; this repository scripts
churn with a :class:`~repro.cluster.chaos.ChaosPlan`: a crash is a
leave and its restart a join (the same plan drives ``--backend proc``
runs). When a worker leaves, the LBS controller redistributes the global batch over the
survivors and every sync gate forgets the missing peer; when it
rejoins, it bootstraps fresh weights through a DKT pull and resumes.

Run:  python examples/elastic_cluster.py
"""

from repro import ClusterTopology, TrainConfig, TrainingEngine
from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.core.config import DktConfig

HORIZON = 300.0


def main() -> None:
    topology = ClusterTopology.build(
        cores=[24, 24, 12, 12, 6, 6],
        bandwidth=[8.0, 8.0, 5.0, 5.0, 3.0, 3.0],
    )
    # Worker 0 (the strongest) drops out a third of the way in and
    # returns for the final stretch; worker 5 flaps briefly.
    churn = ChaosPlan(crashes=[
        CrashEvent(100.0, 0, restart_after=100.0),
        CrashEvent(150.0, 5, restart_after=30.0),
    ])
    config = TrainConfig(
        model="mlp",
        model_kwargs={"in_dim": 576, "hidden": (128, 64)},
        dataset_kwargs={"noise": 1.8},
        train_size=6000,
        test_size=500,
        lr=0.03,
        system="dlion",
        dkt=DktConfig(period_iters=25),
    )
    engine = TrainingEngine(config, topology, seed=0, chaos=churn)
    result = engine.run(HORIZON)

    print("active workers over time:")
    for t, n in zip(result.active_workers.times, result.active_workers.values):
        print(f"  t={t:6.1f}s  active={int(n)}")
    print("\nLBS of worker 1 (absorbs the leavers' share):")
    for t in (90, 130, 190, 290):
        print(f"  t={t:4d}s  LBS={int(result.lbs[1].value_at(t))}")
    print(f"\nfinal accuracy : {result.final_mean_accuracy():.3f}")
    print(f"worker 0 iters : {result.iterations[0]} (left 100s-200s)")
    print(f"worker 1 iters : {result.iterations[1]} (never left)")
    print(f"DKT merges     : {result.dkt_merges} (includes the join bootstraps)")


if __name__ == "__main__":
    main()
