"""Tests for synchronization policies and the dynamic batching weight."""

import pytest

from repro.core.sync import (
    AsyncPolicy,
    BoundedPolicy,
    LockstepPolicy,
    SyncState,
    make_sync_policy,
)
from repro.core.weighted_update import dynamic_batching_weight


class TestDynamicBatchingWeight:
    def test_equal_lbs_gives_one(self):
        assert dynamic_batching_weight(32, 32) == 1.0

    def test_bigger_sender_weighted_up(self):
        assert dynamic_batching_weight(64, 32) == 2.0

    def test_smaller_sender_weighted_down(self):
        assert dynamic_batching_weight(16, 32) == 0.5

    def test_disabled_always_one(self):
        assert dynamic_batching_weight(64, 32, enabled=False) == 1.0

    def test_invalid_batch_sizes(self):
        with pytest.raises(ValueError):
            dynamic_batching_weight(0, 32)


def state(iteration, received):
    return SyncState(iteration=iteration, received_from=dict(received))


class TestAsyncPolicy:
    def test_never_blocks(self):
        p = AsyncPolicy()
        assert p.can_proceed(state(100, {1: -1, 2: -1}))


class TestLockstepPolicy:
    def test_first_iteration_free(self):
        assert LockstepPolicy().can_proceed(state(0, {1: -1, 2: -1}))

    def test_blocks_until_all_peers_reported(self):
        p = LockstepPolicy()
        assert not p.can_proceed(state(3, {1: 2, 2: 1}))
        assert p.can_proceed(state(3, {1: 2, 2: 2}))

    def test_peers_ahead_is_fine(self):
        assert LockstepPolicy().can_proceed(state(3, {1: 7, 2: 2}))


class TestBoundedPolicy:
    def test_within_staleness_proceeds(self):
        p = BoundedPolicy(staleness=5)
        assert p.can_proceed(state(6, {1: 1, 2: 6}))

    def test_beyond_staleness_blocks(self):
        p = BoundedPolicy(staleness=5)
        assert not p.can_proceed(state(7, {1: 1, 2: 6}))

    def test_backup_workers_tolerated(self):
        p = BoundedPolicy(staleness=5, backup=1)
        assert p.can_proceed(state(20, {1: 0, 2: 19}))     # one straggler ok
        assert not p.can_proceed(state(20, {1: 0, 2: 0}))  # two is too many

    def test_zero_staleness_is_lockstep_like(self):
        p = BoundedPolicy(staleness=0)
        assert not p.can_proceed(state(1, {1: 0}))
        assert p.can_proceed(state(1, {1: 1}))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BoundedPolicy(-1)


class TestFactoryAndStragglers:
    def test_factory(self):
        assert isinstance(make_sync_policy("async"), AsyncPolicy)
        assert isinstance(make_sync_policy("sync"), LockstepPolicy)
        p = make_sync_policy("bounded", staleness=3, backup=2)
        assert isinstance(p, BoundedPolicy)
        assert p.staleness == 3 and p.backup == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_sync_policy("eventual")
