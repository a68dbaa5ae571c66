"""Combined extensions: partial overlay + elastic membership together."""


from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.cluster.peergraph import PeerGraph
from repro.cluster.topology import ClusterTopology
from repro.core.config import DktConfig, GbsConfig, LbsConfig, TrainConfig
from repro.core.engine import TrainingEngine


def topo():
    return ClusterTopology.build(
        cores=[8, 8, 8, 8], bandwidth=[20.0] * 4,
        per_core_rate=16.0, overhead=0.02, jitter=0.0,
    )


def config():
    return TrainConfig(
        model="mlp",
        model_kwargs={"in_dim": 576, "hidden": (32,)},
        train_size=320, test_size=80, eval_subset=80, initial_lbs=8,
        gbs=GbsConfig(update_period_s=8.0),
        lbs=LbsConfig(probe_batches=(4, 8), probe_repeats=1, profile_period_iters=15),
        dkt=DktConfig(period_iters=10),
        eval_period_iters=10,
    )


class TestOverlayWithChurn:
    def test_ring_survives_neighbor_departure(self):
        """When a ring neighbour leaves, the worker's peer set shrinks
        to the remaining neighbour and training continues (the overlay
        is intersected with the active set)."""
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 1, restart_after=15.0)])
        engine = TrainingEngine(
            config(), topo(), seed=0,
            chaos=plan, peer_graph=PeerGraph.ring(4),
        )
        engine.advance_to(15.0)
        # worker 0's ring neighbours are {1, 3}; with 1 gone only 3 remains
        assert engine.active_peers(0) == [3]
        res = engine.run(45.0)
        assert all(it > 10 for w, it in enumerate(res.iterations) if w != 1)
        assert res.final_mean_accuracy() > 0.3

    def test_peers_restored_after_rejoin(self):
        plan = ChaosPlan(crashes=[CrashEvent(10.0, 1, restart_after=10.0)])
        engine = TrainingEngine(
            config(), topo(), seed=0,
            chaos=plan, peer_graph=PeerGraph.ring(4),
        )
        engine.advance_to(30.0)
        assert engine.active_peers(0) == [1, 3]

    def test_traffic_respects_both_restrictions(self):
        plan = ChaosPlan(crashes=[CrashEvent(8.0, 2)])
        pg = PeerGraph.ring(4)
        engine = TrainingEngine(
            config(), topo(), seed=0, chaos=plan, peer_graph=pg,
        )
        res = engine.run(30.0)
        for (src, dst) in res.link_bytes:
            assert dst in pg.neighbors(src)
