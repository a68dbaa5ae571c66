"""Unit tests for the four comparison-system strategies.

Strategies are tested against a stub WorkerContext — no engine needed.
"""

import numpy as np
import pytest

from repro.baselines.ako import AkoStrategy
from repro.baselines.baseline_full import BaselineStrategy
from repro.baselines.gaia import GaiaStrategy
from repro.baselines.hop import HopStrategy
from repro.core.strategy import DLionStrategy
from repro.core.config import MaxNConfig
from repro.core.sync import AsyncPolicy, BoundedPolicy, LockstepPolicy, SyncState


class StubCtx:
    """Minimal WorkerContext for strategy unit tests."""

    def __init__(self, n_workers=4, bandwidth=10.0, iter_time=0.5, weights=None):
        self.worker_id = 0
        self.n_workers = n_workers
        self._bw = bandwidth
        self._iter_time = iter_time
        self._weights = weights or {}

    @property
    def peers(self):
        return [i for i in range(self.n_workers) if i != self.worker_id]

    def now(self):
        return 0.0

    def iter_time_estimate(self):
        return self._iter_time

    def bandwidth_to(self, dst):
        return self._bw

    def model_variables(self):
        return self._weights


@pytest.fixture
def grads(rng):
    return {
        "a": rng.normal(size=(10, 10)).astype(np.float32),
        "b": rng.normal(size=(25,)).astype(np.float32),
    }


class TestBaselineStrategy:
    def test_sends_dense_to_all_peers(self, grads):
        s = BaselineStrategy(LockstepPolicy())
        plans = s.generate_partial_gradients(StubCtx(), grads)
        assert set(plans) == {1, 2, 3}
        for pg in plans.values():
            assert pg.kind == "dense"
            assert set(pg.payload) == {"a", "b"}

    def test_uses_lockstep_sync(self, grads):
        s = BaselineStrategy(LockstepPolicy())
        blocked = SyncState(iteration=2, received_from={1: 0, 2: 1, 3: 1})
        assert not s.synch_training(StubCtx(), blocked)


class TestHopStrategy:
    def test_dense_payload(self, grads):
        plans = HopStrategy().generate_partial_gradients(StubCtx(), grads)
        assert all(pg.kind == "dense" for pg in plans.values())

    def test_paper_defaults(self):
        s = HopStrategy()
        assert isinstance(s.sync_policy, BoundedPolicy)
        assert s.sync_policy.staleness == 5
        assert s.sync_policy.backup == 1

    def test_tolerates_one_straggler(self):
        s = HopStrategy()
        one_straggler = SyncState(iteration=10, received_from={1: 0, 2: 9, 3: 9})
        two_stragglers = SyncState(iteration=10, received_from={1: 0, 2: 0, 3: 9})
        assert s.synch_training(StubCtx(), one_straggler)
        assert not s.synch_training(StubCtx(), two_stragglers)


class TestGaiaStrategy:
    def test_insignificant_updates_accumulate(self, rng):
        weights = {"w": np.full(100, 10.0, dtype=np.float32)}
        s = GaiaStrategy(s_percent=1.0, lr=0.1, n_workers=4)
        ctx = StubCtx(weights=weights)
        tiny = {"w": np.full(100, 1e-4, dtype=np.float32)}
        plans = s.generate_partial_gradients(ctx, tiny)
        # |0.1/4 * 1e-4| / 10 << 1% -> nothing significant yet
        assert all(not pg.payload for pg in plans.values())
        # but the accumulator holds the gradient for later
        assert s._acc["w"].sum() == pytest.approx(100 * 1e-4, rel=1e-3)

    def test_significant_updates_ship_and_reset(self, rng):
        weights = {"w": np.full(10, 1.0, dtype=np.float32)}
        s = GaiaStrategy(s_percent=1.0, lr=1.0, n_workers=1)
        ctx = StubCtx(n_workers=2, weights=weights)
        big = {"w": np.full(10, 0.5, dtype=np.float32)}
        plans = s.generate_partial_gradients(ctx, big)
        idx, vals = plans[1].payload["w"]
        assert idx.size == 10
        np.testing.assert_allclose(vals, 0.5)
        assert s._acc["w"].sum() == 0.0  # shipped entries reset

    def test_same_payload_to_every_peer(self, rng):
        weights = {"w": rng.normal(size=20).astype(np.float32)}
        s = GaiaStrategy(lr=1.0, n_workers=1)
        plans = s.generate_partial_gradients(
            StubCtx(weights=weights), {"w": rng.normal(size=20).astype(np.float32)}
        )
        payloads = [pg.payload for pg in plans.values()]
        assert all(p is payloads[0] for p in payloads)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            GaiaStrategy(s_percent=0.0)


class TestAkoStrategy:
    def test_round_robin_covers_everything(self, grads):
        s = AkoStrategy(partitions=4)
        ctx = StubCtx()
        seen: dict[str, set] = {"a": set(), "b": set()}
        for _ in range(4):
            plans = s.generate_partial_gradients(ctx, grads)
            for name, (idx, _) in plans[1].payload.items():
                seen[name].update(idx.tolist())
        assert len(seen["a"]) == 100
        assert len(seen["b"]) == 25

    def test_accumulates_unsent_partitions(self, rng):
        s = AkoStrategy(partitions=2)
        ctx = StubCtx(n_workers=2)
        g = {"w": np.ones(4, dtype=np.float32)}
        p0 = s.generate_partial_gradients(ctx, g)  # partition 0: idx 0,1
        idx0, vals0 = p0[1].payload["w"]
        np.testing.assert_array_equal(idx0, [0, 1])
        np.testing.assert_allclose(vals0, 1.0)
        p1 = s.generate_partial_gradients(ctx, g)  # partition 1 accumulated twice
        idx1, vals1 = p1[1].payload["w"]
        np.testing.assert_array_equal(idx1, [2, 3])
        np.testing.assert_allclose(vals1, 2.0)

    def test_async_policy(self):
        assert isinstance(AkoStrategy().sync_policy, AsyncPolicy)

    def test_partition_count_derived_from_budget(self, grads):
        # low bandwidth + short iterations -> many partitions
        s = AkoStrategy()
        s.generate_partial_gradients(StubCtx(bandwidth=0.5, iter_time=0.05), grads)
        many = s.partitions
        s2 = AkoStrategy()
        s2.generate_partial_gradients(StubCtx(bandwidth=1000.0, iter_time=10.0), grads)
        assert many > s2.partitions
        assert s2.partitions == 1

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            AkoStrategy(partitions=0)


class TestDLionStrategy:
    def test_sparse_payload_with_chosen_n(self, grads):
        s = DLionStrategy(BoundedPolicy(5), MaxNConfig())
        plans = s.generate_partial_gradients(StubCtx(bandwidth=1000.0), grads)
        for pg in plans.values():
            assert pg.kind == "sparse"
            assert pg.chosen_n is not None
