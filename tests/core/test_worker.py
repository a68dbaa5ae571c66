"""Focused tests for Worker module behaviour inside a live engine."""

import numpy as np
import pytest

from repro.cluster.messages import (
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.cluster.chaos import ChaosPlan, CrashEvent
from repro.cluster.peergraph import PeerGraph
from repro.cluster.topology import ClusterTopology
from repro.core.config import LbsConfig
from repro.core.engine import TrainingEngine
from repro.core.lbs_controller import allocate_lbs


@pytest.fixture
def engine(fast_config, tiny_topology):
    return TrainingEngine(fast_config, tiny_topology, seed=0)


class TestBatchSizeModules:
    def test_profiling_populates_rcp_table_and_costs_time(self, engine):
        w = engine.workers[0]
        cost = w.run_profiling()
        assert cost > 0
        assert 0 in w.rcp_table
        assert w.rcp_table[0] > 1

    def test_rcp_share_updates_peer_table(self, engine):
        w = engine.workers[1]
        w.rcp_table[1] = 100.0
        w.on_rcp_share(RcpShareMessage(sender=0, rcp=300.0))
        assert w.rcp_table[0] == 300.0

    def test_recompute_lbs_uses_eq5(self, engine):
        w = engine.workers[0]
        w.gbs = 60
        w.rcp_table = {0: 30.0, 1: 20.0, 2: 10.0}
        w.recompute_lbs()
        assert w.lbs == 30  # 60 * 30/60

    def test_set_gbs_propagates_to_lbs(self, engine):
        w = engine.workers[0]
        w.rcp_table = {0: 1.0, 1: 1.0, 2: 1.0}
        w.set_gbs(90)
        assert w.lbs == 30

    def test_set_gbs_rejects_too_small(self, engine):
        with pytest.raises(ValueError):
            engine.workers[0].set_gbs(2)

    def test_even_split_when_lbs_disabled(self, fast_config, tiny_topology):
        cfg = fast_config.with_(lbs=LbsConfig(enabled=False))
        engine = TrainingEngine(cfg, tiny_topology, seed=0)
        w = engine.workers[0]
        w.set_gbs(90)
        assert w.lbs == 30


def reference_lbs(worker):
    """Eq. 5 the long way: whole-cluster allocation, then one entry."""
    members = sorted(worker.engine.active)
    own = worker.rcp_table.get(worker.worker_id, 1.0)
    rcps = [worker.rcp_table.get(j, own) for j in members]
    alloc = allocate_lbs(worker.gbs, rcps, min_lbs=worker.config.lbs.min_lbs)
    return alloc[members.index(worker.worker_id)]


class TestRecomputeLbsMatchesReference:
    N = 24

    def build(self, fast_config, **kwargs):
        topo = ClusterTopology.build(
            cores=[1 + (w % 5) for w in range(self.N)],
            bandwidth=[20.0] * self.N,
            per_core_rate=16.0, overhead=0.02, jitter=0.0,
        )
        return TrainingEngine(fast_config, topo, seed=0, **kwargs)

    def check_all(self, engine):
        for w in sorted(engine.active):
            worker = engine.workers[w]
            worker.lbs = -1  # force a fresh write
            worker.recompute_lbs()
            assert worker.lbs == reference_lbs(worker), w

    def test_sparse_table_on_hier_overlay(self, fast_config):
        engine = self.build(
            fast_config, peer_graph=PeerGraph.from_spec("hier:8", self.N)
        )
        engine.advance_to(6.0)  # profiling done, RCP shares delivered
        tables = [len(engine.workers[w].rcp_table) for w in range(self.N)]
        assert 1 < min(tables) and max(tables) < self.N  # sparse: neighbours only
        self.check_all(engine)
        lbs = [engine.workers[w].lbs for w in range(self.N)]
        assert len(set(lbs)) > 1  # heterogeneous cores give distinct shares

    def test_non_contiguous_members_after_leave(self, fast_config):
        plan = ChaosPlan(crashes=[CrashEvent(4.0, 5)])
        engine = self.build(
            fast_config, chaos=plan,
            peer_graph=PeerGraph.from_spec("hier:8", self.N),
        )
        engine.advance_to(8.0)
        assert engine.active_members()[-1] != len(engine.active) - 1
        self.check_all(engine)
        # The departed worker is inactive: recompute_lbs leaves it alone.
        gone = engine.workers[5]
        gone.lbs = -1
        gone.recompute_lbs()
        assert gone.lbs == -1

    def test_late_share_from_departed_top_id_is_ignored(self, fast_config):
        plan = ChaosPlan(crashes=[CrashEvent(4.0, self.N - 1)])
        engine = self.build(fast_config, chaos=plan)
        engine.advance_to(8.0)
        w = engine.workers[0]
        # Members are still 0..n-1, but the table names an id beyond them.
        w.on_rcp_share(RcpShareMessage(sender=self.N - 1, rcp=1e9))
        assert w.lbs == reference_lbs(w)

    def test_freshly_assigned_table(self, fast_config):
        engine = self.build(fast_config)
        w = engine.workers[3]
        w.gbs = 1000
        w.rcp_table = {3: 7.0, 0: 1.0, 11: 40.0}
        w.recompute_lbs()
        assert w.lbs == reference_lbs(w)
        w.rcp_table = {0: 2.5}  # own entry missing: own RCP defaults to 1.0
        w.recompute_lbs()
        assert w.lbs == reference_lbs(w)
        # An int own RCP must not truncate the peers' float RCPs.
        w.rcp_table = {3: 1, **{j: 0.5 for j in range(4, 20)}}
        w.recompute_lbs()
        assert w.lbs == reference_lbs(w) == 63  # 125 if 0.5 became 0


class TestLeaveMidIteration:
    def test_departed_worker_draws_no_batch(self, fast_config, tiny_topology):
        """Its completion event still fires, but the iteration never
        happened: no minibatch, no RNG advance, no epoch progress."""
        plan = ChaosPlan(crashes=[CrashEvent(6.0, 2)])
        engine = TrainingEngine(
            fast_config, tiny_topology, seed=0, chaos=plan
        )
        engine.advance_to(5.999)
        gone = engine.workers[2]
        assert gone.computing  # the leave lands inside an iteration
        drawn = gone.sampler.samples_drawn
        iteration = gone.iteration
        version = gone.model_version
        rng_state = gone.sampler.rng.bit_generator.state
        engine.advance_to(9.0)
        assert 2 not in engine.active and not gone.computing  # the event fired
        assert gone.sampler.samples_drawn == drawn
        assert gone.sampler.rng.bit_generator.state == rng_state
        assert gone.iteration == iteration
        assert gone.model_version == version
        assert engine.workers[0].sampler.samples_drawn > drawn  # others go on


class TestModelUpdateModule:
    def test_dense_gradient_applied_with_db_weight(self, engine):
        w = engine.workers[0]
        w.lbs = 10
        name = w.model.variable_names[0]
        before = w.model.get_variable(name).copy()
        g = {name: np.ones_like(before)}
        msg = GradientMessage(sender=1, iteration=1, lbs=20, dense=g)
        w.on_gradient_message(msg)
        # coeff = db(20,10)/n = 2/3; lr = 0.1
        expected = before - 0.1 * (2.0 / 3.0)
        np.testing.assert_allclose(w.model.get_variable(name), expected, rtol=1e-5)

    def test_sparse_gradient_applied(self, engine):
        w = engine.workers[0]
        w.lbs = 8
        name = w.model.variable_names[0]
        before = w.model.get_variable(name).copy()
        idx = np.array([0], dtype=np.int64)
        vals = np.array([2.0], dtype=np.float32)
        msg = GradientMessage(sender=2, iteration=1, lbs=8, sparse={name: (idx, vals)})
        w.on_gradient_message(msg)
        # db = 1, coeff = 1/3
        assert w.model.get_variable(name).reshape(-1)[0] == pytest.approx(
            before.reshape(-1)[0] - 0.1 * 2.0 / 3.0, rel=1e-5
        )

    def test_received_iteration_tracking_monotone(self, engine):
        w = engine.workers[0]
        for it in (3, 1, 5):
            msg = GradientMessage(sender=1, iteration=it, lbs=8, sparse={})
            w.on_gradient_message(msg)
        assert w.sync_state.received_from[1] == 5

    def test_message_arrival_wakes_waiting_worker(self, fast_config, tiny_topology):
        cfg = fast_config.with_(system="baseline")
        engine = TrainingEngine(cfg, tiny_topology, seed=0)
        w = engine.workers[0]
        w.iteration = 1
        w.sync_state.iteration = 1
        w.waiting = True
        # lockstep needs iteration-0 gradients from both peers
        for peer in (1, 2):
            w.on_gradient_message(
                GradientMessage(sender=peer, iteration=1, lbs=8, sparse={})
            )
        assert w.computing  # it started the next iteration


class TestModelSynchronizationModule:
    def test_loss_share_recorded(self, engine):
        w = engine.workers[0]
        w.on_loss_share(LossShareMessage(sender=2, iteration=5, avg_loss=0.42))
        assert w.dkt.shared_losses[2] == 0.42

    def test_dkt_request_ships_weight_snapshot(self, engine):
        w0, w1 = engine.workers[0], engine.workers[1]
        w0.on_dkt_request(DktRequestMessage(sender=1, iteration=3))
        # a weight message is now in flight on link 0->1
        engine.clock.run_until(engine.clock.now + 30.0)
        assert w1.dkt.merges_applied == 1

    def test_weight_message_merges_toward_best(self, engine):
        w = engine.workers[0]
        name = w.model.variable_names[0]
        local_before = w.model.get_variable(name).copy()
        best = {n: np.zeros_like(v) for n, v in w.model.variables().items()}
        w.on_weight_message(WeightMessage(sender=1, iteration=9, weights=best))
        merged = w.model.get_variable(name)
        # lambda = 0.75 pulls 75% toward zero
        np.testing.assert_allclose(merged, 0.25 * local_before, rtol=1e-5)

    def test_snapshot_is_detached_from_live_model(self, engine):
        w0 = engine.workers[0]
        w0.on_dkt_request(DktRequestMessage(sender=1, iteration=1))
        name = w0.model.variable_names[0]
        # mutating the live model after the snapshot must not affect the
        # in-flight message; mutate and deliver.
        w0.model.get_variable(name)[...] = 123.0
        engine.clock.run_until(engine.clock.now + 30.0)
        w1 = engine.workers[1]
        assert not np.allclose(w1.model.get_variable(name), 123.0 * 0.75)


class TestIterationTimeEstimate:
    def test_default_before_measurement(self, engine):
        assert engine.workers[0].iter_time_estimate() == pytest.approx(1.0)

    def test_ema_after_iterations(self, fast_config, tiny_topology):
        engine = TrainingEngine(fast_config, tiny_topology, seed=0)
        engine.run(10.0)
        w = engine.workers[0]
        est = w.iter_time_estimate()
        assert 0.001 < est < 1.0
