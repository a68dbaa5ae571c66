"""Tests for the pluggable gradient selectors."""

from unittest import mock

import numpy as np
import pytest

from repro.core.config import MaxNConfig
from repro.core.selectors import (
    MaxNSelector,
    RandomKSelector,
    ThresholdSelector,
    TopKSelector,
    make_selector,
)
from repro.core import transmission
from repro.core.transmission import (
    TransmissionPlanner,
    fit_level_to_budget,
    fit_levels_to_budgets,
)


@pytest.fixture
def grad(rng):
    return rng.normal(size=500)


class TestTopK:
    def test_keeps_exact_fraction(self, grad):
        idx, vals = TopKSelector().select(grad, 10.0)
        assert idx.size == 50
        np.testing.assert_array_equal(vals, grad[idx])

    def test_keeps_largest_magnitudes(self, grad):
        idx, _ = TopKSelector().select(grad, 10.0)
        mags = np.abs(grad)
        kept_min = mags[idx].min()
        dropped = np.setdiff1d(np.arange(grad.size), idx)
        assert mags[dropped].max() <= kept_min + 1e-12

    def test_level_100_keeps_all(self, grad):
        idx, _ = TopKSelector().select(grad, 100.0)
        assert idx.size == grad.size

    def test_at_least_one(self, grad):
        idx, _ = TopKSelector().select(grad, 0.01)
        assert idx.size == 1

    def test_count_matches_select(self, grad):
        sel = TopKSelector()
        levels = np.array([0.5, 7.0, 55.0, 100.0])
        counts = sel.count_at_levels(grad, levels)
        assert counts.tolist() == [sel.select(grad, lv)[0].size for lv in levels]

    def test_zero_gradient(self):
        idx, _ = TopKSelector().select(np.zeros(10), 50.0)
        assert idx.size == 0


class TestRandomK:
    def test_size_matches_topk(self, grad, rng):
        sel = RandomKSelector(rng)
        assert sel.select(grad, 20.0)[0].size == 100

    def test_deterministic_per_rng_state(self, grad):
        a = RandomKSelector(np.random.default_rng(4)).select(grad, 10.0)[0]
        b = RandomKSelector(np.random.default_rng(4)).select(grad, 10.0)[0]
        np.testing.assert_array_equal(a, b)

    def test_values_match_indices(self, grad, rng):
        idx, vals = RandomKSelector(rng).select(grad, 30.0)
        np.testing.assert_array_equal(vals, grad[idx])

    def test_count_matches(self, grad, rng):
        sel = RandomKSelector(rng)
        assert sel.count_at_levels(grad, np.array([30.0])).tolist() == [150]


class TestThreshold:
    def test_higher_level_more_entries(self, grad):
        sel = ThresholdSelector(base_threshold=0.5)
        n_low = sel.select(grad, 20.0)[0].size
        n_high = sel.select(grad, 90.0)[0].size
        assert n_high >= n_low

    def test_never_empty_on_nonzero(self):
        sel = ThresholdSelector(base_threshold=1e6)
        idx, _ = sel.select(np.array([1e-9, 2e-9]), 1.0)
        assert idx.size == 1

    def test_count_matches_select(self, grad):
        sel = ThresholdSelector(base_threshold=0.3)
        levels = np.array([5.0, 50.0, 99.0])
        counts = sel.count_at_levels(grad, levels)
        assert counts.tolist() == [sel.select(grad, lv)[0].size for lv in levels]

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            ThresholdSelector(base_threshold=0.0)


class TestFactory:
    def test_all_names(self, rng):
        assert isinstance(make_selector("maxn"), MaxNSelector)
        assert isinstance(make_selector("topk"), TopKSelector)
        assert isinstance(make_selector("randomk", rng=rng), RandomKSelector)
        assert isinstance(make_selector("threshold"), ThresholdSelector)

    def test_randomk_needs_rng(self):
        with pytest.raises(ValueError):
            make_selector("randomk")

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_selector("dct")

    def test_maxn_selector_delegates(self, grad):
        from repro.core.maxn import select_max_n

        a = MaxNSelector().select(grad, 40.0)
        b = select_max_n(grad, 40.0)
        np.testing.assert_array_equal(a[0], b[0])


class TestGenericBudgetFit:
    def test_topk_fit_respects_budget(self, rng):
        grads = {"w": rng.normal(size=2000)}
        sel = TopKSelector()
        for budget in (200, 2000, 8000):
            level = fit_level_to_budget(sel, grads, budget)
            if level > 0.85:
                cnt = sel.count_at(grads["w"], level)
                assert 24 + 8 * cnt <= budget

    def test_monotone_in_budget(self, rng):
        grads = {"w": rng.normal(size=2000)}
        sel = ThresholdSelector(base_threshold=0.1)
        levels = [fit_level_to_budget(sel, grads, b) for b in (100, 2000, 50000)]
        assert levels == sorted(levels)

    def test_planner_with_alternative_selector(self, rng):
        planner = TransmissionPlanner(MaxNConfig(selector="topk"))
        grads = {"w": rng.normal(size=3000).astype(np.float32)}
        plans = planner.plan(grads, {1: 50.0, 2: 0.5}, iter_time_s=0.01)
        assert plans[1][1]["w"][0].size >= plans[2][1]["w"][0].size

    def test_planner_selector_config_validation(self):
        with pytest.raises(ValueError):
            MaxNConfig(selector="dct")


def _spy(name):
    """Count the planner's calls of ``transmission.<name>``, still running it."""
    fn = getattr(transmission, name)
    return mock.patch.object(transmission, name, wraps=fn)


class TestCountAtLevels:
    def _selectors(self):
        return [
            MaxNSelector(),
            TopKSelector(),
            RandomKSelector(np.random.default_rng(3)),
            ThresholdSelector(base_threshold=0.3),
        ]

    def test_matches_count_at(self, grad):
        levels = np.array([0.85, 1.0, 7.5, 33.0, 60.0, 99.0, 100.0])
        for sel in self._selectors():
            batched = sel.count_at_levels(grad, levels)
            looped = [sel.select(grad, lv)[0].size for lv in levels]
            assert batched.tolist() == looped, type(sel).__name__

    def test_matches_count_at_float32(self, rng):
        g = rng.normal(size=800).astype(np.float32)
        levels = np.linspace(0.85, 100.0, 97)
        for sel in self._selectors():
            batched = sel.count_at_levels(g, levels)
            looped = [sel.select(g, lv)[0].size for lv in levels]
            assert batched.tolist() == looped, type(sel).__name__

    def test_zero_gradient_all_zero_counts(self):
        levels = np.array([1.0, 50.0, 100.0])
        for sel in self._selectors():
            assert sel.count_at_levels(np.zeros(20), levels).tolist() == [0, 0, 0]

    def test_monotone_in_level(self, grad):
        levels = np.linspace(0.85, 100.0, 200)
        for sel in self._selectors():
            counts = sel.count_at_levels(grad, levels)
            assert (np.diff(counts) >= 0).all(), type(sel).__name__

    def test_invalid_levels_rejected(self, grad):
        for sel in self._selectors():
            with pytest.raises(ValueError):
                sel.count_at_levels(grad, np.array([0.0, 50.0]))


class TestBatchedGenericFit:
    def test_matches_bisection_within_grid_step(self, rng):
        grads = {"a": rng.normal(size=2000), "b": rng.normal(size=333)}
        budgets = [150.0, 900.0, 4_000.0, 12_000.0, 1e9]
        for sel in (TopKSelector(), ThresholdSelector(base_threshold=0.1)):
            levels, _ = fit_levels_to_budgets(sel, grads, budgets)
            step = (100.0 - 0.85) / 4096
            for budget, level in zip(budgets, levels):
                bisected = fit_level_to_budget(sel, grads, budget)
                assert abs(float(level) - bisected) <= step + 0.01 + 1e-9

    def test_exactly_feasible_above_floor(self, rng):
        grads = {"w": rng.normal(size=5000)}
        sel = TopKSelector()
        budgets = [100.0, 2_500.0, 20_000.0]
        levels, _ = fit_levels_to_budgets(sel, grads, budgets)
        for budget, level in zip(budgets, levels):
            if level > 0.85:
                cnt = sel.count_at(grads["w"], float(level))
                assert 24 + 8 * cnt <= budget

    def test_equal_grid_indices_mean_equal_levels(self, rng):
        grads = {"w": rng.normal(size=1000)}
        levels, idx = fit_levels_to_budgets(
            TopKSelector(), grads, [500.0, 501.0, 9e9]
        )
        assert idx[0] == idx[1] and levels[0] == levels[1]
        assert levels[2] == 100.0

    def test_invalid_bounds(self, rng):
        with pytest.raises(ValueError):
            fit_levels_to_budgets(
                TopKSelector(), {"w": rng.normal(size=10)}, [1.0], level_min=0.0
            )

    def test_planner_uses_batched_path_for_vectorized_selector(self, rng):
        planner = TransmissionPlanner(MaxNConfig(selector="topk"))
        grads = {"w": rng.normal(size=3000)}
        with _spy("fit_levels_to_budgets") as batched, _spy(
            "fit_level_to_budget"
        ) as bisection:
            plans = planner.plan(grads, {1: 50.0, 2: 50.0, 3: 0.5}, 0.01)
        assert batched.called
        assert not bisection.called
        # equal budgets share one payload object on the generic path too
        assert plans[1][1] is plans[2][1]
        assert plans[1][1] is not plans[3][1]
