"""Tests for Max N selection and the transmission-speed-assurance fit."""

from unittest import mock

import numpy as np
import pytest

from repro.cluster.messages import sparse_payload_bytes
from repro.core.config import MaxNConfig
from repro.core.maxn import select_max_n, select_payload
from repro.core.selectors import MaxNSelector
from repro.core.transmission import (
    _BINS,
    GradientHistograms,
    TransmissionPlanner,
    fit_n_to_budget,
)


class TestSelectMaxN:
    def test_n_100_selects_everything(self):
        g = np.array([0.0, -1.0, 0.5, 2.0])
        idx, vals = select_max_n(g, 100.0)
        assert idx.tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(vals, g)

    def test_tiny_n_selects_only_the_max(self):
        g = np.array([0.1, -5.0, 0.5, 2.0])
        idx, vals = select_max_n(g, 0.001)
        assert idx.tolist() == [1]
        assert vals.tolist() == [-5.0]

    def test_band_semantics(self):
        # max=10; N=30 keeps |g| >= 7.
        g = np.array([10.0, -8.0, 7.0, 6.99, -1.0])
        idx, _ = select_max_n(g, 30.0)
        assert idx.tolist() == [0, 1, 2]

    def test_values_match_indices(self, rng):
        g = rng.normal(size=(13, 7))
        idx, vals = select_max_n(g, 40.0)
        np.testing.assert_array_equal(vals, g.reshape(-1)[idx])

    def test_zero_gradient_sends_nothing(self):
        idx, vals = select_max_n(np.zeros(10), 50.0)
        assert idx.size == 0 and vals.size == 0

    def test_n_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            select_max_n(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            select_max_n(np.ones(3), 101.0)

    def test_monotone_in_n(self, rng):
        g = rng.normal(size=500)
        sizes = [select_max_n(g, n)[0].size for n in (1, 10, 50, 90, 100)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 500

    @pytest.mark.parametrize(
        "tiny", [np.float64(5e-324), np.float32(1e-45)], ids=["float64", "float32"]
    )
    def test_subnormal_max_never_keeps_zeros(self, tiny):
        """At a subnormal maximum ``(1 − N/100)·max`` underflows to zero in
        the gradient's dtype; below N = 100 the zero entries still stay
        out, and every Max-N selection and count agrees on that."""
        g = np.array([tiny, 0.0, -tiny, 0.0], dtype=tiny.dtype)
        hist = GradientHistograms({"w": g})
        for n in (60.0, 100.0 - 100.0 / _BINS):
            want = [0, 2]
            assert select_max_n(g, n)[0].tolist() == want
            assert hist.select_payload(n)["w"][0].tolist() == want
            assert hist.exact_bytes_at(n) == 24 + 8 * len(want)
            assert MaxNSelector().count_at_levels(g, np.array([n])).tolist() == [2]
        # N = 100 is whole-gradient exchange: the zeros ship too
        assert select_max_n(g, 100.0)[0].tolist() == [0, 1, 2, 3]
        assert hist.exact_bytes_at(100.0) == 24 + 8 * 4
        assert MaxNSelector().count_at_levels(g, np.array([100.0])).tolist() == [4]


class TestSelectPayload:
    def test_per_variable_thresholds(self, rng):
        # Each variable is filtered against its own max: a variable of
        # small gradients still contributes entries.
        grads = {
            "big": np.array([100.0, 1.0, 1.0]),
            "small": np.array([0.001, 0.0009, 0.00001]),
        }
        payload = select_payload(grads, 20.0)
        assert payload["big"][0].tolist() == [0]
        assert payload["small"][0].tolist() == [0, 1]

    def test_drops_empty_variables(self):
        payload = select_payload({"z": np.zeros(5), "g": np.ones(5)}, 50.0)
        assert "z" not in payload and "g" in payload


class TestFitNToBudget:
    def test_huge_budget_returns_n_max(self, rng):
        grads = {"w": rng.normal(size=100)}
        assert fit_n_to_budget(grads, 1e9) == 100.0

    def test_tiny_budget_returns_floor(self, rng):
        grads = {"w": rng.normal(size=1000)}
        assert fit_n_to_budget(grads, 1.0) == 0.85

    def test_result_payload_fits_budget(self, rng):
        grads = {"a": rng.normal(size=4000), "b": rng.normal(size=123)}
        for budget in (500, 5_000, 20_000):
            n = fit_n_to_budget(grads, budget)
            if n > 0.85:
                size = sparse_payload_bytes(select_payload(grads, n))
                assert size <= budget

    def test_larger_budget_never_smaller_n(self, rng):
        grads = {"w": rng.normal(size=2000)}
        ns = [fit_n_to_budget(grads, b) for b in (100, 1000, 4000, 16000)]
        assert ns == sorted(ns)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            fit_n_to_budget({"w": np.ones(3)}, 100, n_min=0.0)


class TestTransmissionPlanner:
    def test_budget_formula(self):
        planner = TransmissionPlanner(MaxNConfig())
        # 8 Mbps for 1 s = 1 MB
        assert planner.budget_bytes(8.0, 1.0) == pytest.approx(1e6)

    def test_slow_link_gets_fewer_entries(self, rng):
        planner = TransmissionPlanner(MaxNConfig())
        grads = {"w": rng.normal(size=50_000).astype(np.float32)}
        plans = planner.plan(grads, {1: 50.0, 2: 1.0}, iter_time_s=0.01)
        n_fast, p_fast = plans[1]
        n_slow, p_slow = plans[2]
        assert n_fast >= n_slow
        assert p_fast["w"][0].size >= p_slow["w"][0].size

    def test_fixed_n_bypasses_budget(self, rng):
        planner = TransmissionPlanner(MaxNConfig(fixed_n=10.0))
        grads = {"w": rng.normal(size=1000)}
        plans = planner.plan(grads, {1: 0.001, 2: 1000.0}, iter_time_s=1.0)
        assert plans[1][0] == 10.0 and plans[2][0] == 10.0
        assert plans[1][1]["w"][0].size == plans[2][1]["w"][0].size

    def test_equal_bandwidths_share_payload_object(self, rng):
        planner = TransmissionPlanner(MaxNConfig())
        grads = {"w": rng.normal(size=1000)}
        plans = planner.plan(grads, {1: 10.0, 2: 10.0}, iter_time_s=0.5)
        assert plans[1][1] is plans[2][1]

    def test_invalid_budget_args(self):
        planner = TransmissionPlanner(MaxNConfig())
        with pytest.raises(ValueError):
            planner.budget_bytes(0.0, 1.0)
        with pytest.raises(ValueError):
            planner.budget_bytes(10.0, 0.0)

    def test_plan_rejects_nonpositive_bandwidth(self, rng):
        planner = TransmissionPlanner(MaxNConfig())
        grads = {"w": rng.normal(size=100)}
        with pytest.raises(ValueError):
            planner.plan(grads, {1: 10.0, 2: 0.0}, iter_time_s=1.0)
        with pytest.raises(ValueError):
            planner.plan(grads, {1: -5.0}, iter_time_s=1.0)


class TestPlannerPayloadCache:
    def test_same_bin_different_bandwidths_share_payload(self, rng):
        """Distinct bandwidths whose budgets resolve to the same
        histogram bin ship the *same object* — the cache keys on the
        resolved bin, not the bandwidth value."""
        planner = TransmissionPlanner(MaxNConfig())
        grads = {"w": rng.normal(size=50_000)}
        iter_time = 0.05
        bws = {1: 10.0, 2: 10.001}
        # Precondition: the two budgets really land in the same bin.
        hist = GradientHistograms(grads)
        budgets = [planner.budget_bytes(bw, iter_time) for bw in bws.values()]
        assert budgets[0] != budgets[1]
        _, edges = hist.fit_many(budgets)
        assert edges[0] == edges[1]

        plans = planner.plan(grads, bws, iter_time_s=iter_time)
        assert plans[1][0] == plans[2][0]
        assert plans[1][1] is plans[2][1]

    def test_distinct_bins_get_distinct_payloads(self, rng):
        planner = TransmissionPlanner(MaxNConfig())
        grads = {"w": rng.normal(size=50_000)}
        plans = planner.plan(grads, {1: 50.0, 2: 1.0}, iter_time_s=0.01)
        assert plans[1][1] is not plans[2][1]

    def test_fixed_n_bypasses_cache_and_budget(self, rng):
        """Fixed-N studies never price budgets (zero bandwidth is fine)
        and build one payload object per destination."""
        planner = TransmissionPlanner(MaxNConfig(fixed_n=10.0))
        grads = {"w": rng.normal(size=1000)}
        plans = planner.plan(grads, {1: 0.0, 2: 10.0}, iter_time_s=1.0)
        assert plans[1][0] == 10.0 and plans[2][0] == 10.0
        # same content, but no sharing: the cache is bypassed entirely
        assert plans[1][1] is not plans[2][1]
        np.testing.assert_array_equal(
            plans[1][1]["w"][0], plans[2][1]["w"][0]
        )


def _spy(cls, name):
    """Count calls of method ``cls.name`` while still running it."""
    return mock.patch.object(
        cls, name, autospec=True, side_effect=getattr(cls, name)
    )


class TestPlannerView:
    def test_every_plan_builds_a_fresh_view(self, rng):
        planner = TransmissionPlanner(MaxNConfig())
        grads = {"w": rng.normal(size=1000)}
        with _spy(GradientHistograms, "__init__") as init:
            planner.plan(grads, {1: 10.0}, 0.5)
            planner.plan(grads, {1: 10.0}, 0.5)
        assert init.call_count == 2


class TestGradientHistograms:
    def test_bytes_at_is_an_upper_bound(self, rng):
        grads = {"a": rng.normal(size=3000), "b": rng.normal(size=77)}
        hist = GradientHistograms(grads)
        for n in (0.85, 5.0, 37.0, 80.0, 100.0):
            exact = sparse_payload_bytes(select_payload(grads, n))
            assert hist.bytes_at(n) >= exact

    def test_select_payload_matches_maxn(self, rng):
        grads = {
            "a": rng.normal(size=500).astype(np.float32),
            "z": np.zeros(10, dtype=np.float32),
        }
        hist = GradientHistograms(grads)
        for n in (0.9, 20.0, 100.0):
            got = hist.select_payload(n)
            want = select_payload(grads, n)
            assert got.keys() == want.keys()
            for name in want:
                np.testing.assert_array_equal(got[name][0], want[name][0])
                np.testing.assert_array_equal(got[name][1], want[name][1])

    def test_fit_many_matches_single_fits(self, rng):
        grads = {"w": rng.normal(size=10_000)}
        hist = GradientHistograms(grads)
        budgets = [50.0, 1e3, 2e4, 7e4, 1e9]
        chosen, edges = hist.fit_many(budgets)
        for budget, n, edge in zip(budgets, chosen, edges):
            one_n, one_edge = hist.fit_many([budget])
            assert (one_n[0], one_edge[0]) == (n, edge)
            assert fit_n_to_budget(grads, budget) == float(n)

    def test_fit_many_invalid_bounds(self, rng):
        hist = GradientHistograms({"w": rng.normal(size=10)})
        with pytest.raises(ValueError):
            hist.fit_many([100.0], n_min=0.0)

    def test_all_zero_gradients(self):
        hist = GradientHistograms({"z": np.zeros(100)})
        assert hist.bytes_at(100.0) == 0
        assert hist.fit_many([1.0])[0].tolist() == [100.0]
        assert hist.select_payload(50.0) == {}

    def test_zero_variable_alongside_live_ones(self, rng):
        grads = {"w": rng.normal(size=500), "z": np.zeros(300)}
        hist = GradientHistograms(grads)
        # the zero variable contributes no bytes at any level
        only_live = GradientHistograms({"w": grads["w"]})
        for n in (0.85, 10.0, 100.0):
            assert hist.bytes_at(n) == only_live.bytes_at(n)
        assert "z" not in hist.select_payload(100.0)

    def test_exact_bytes_matches_encoded_payload(self, rng):
        grads = {"a": rng.normal(size=2000), "b": rng.normal(size=55)}
        hist = GradientHistograms(grads)
        for n in (0.9, 12.0, 64.0, 100.0):
            assert hist.exact_bytes_at(n) == sparse_payload_bytes(
                select_payload(grads, n)
            )

    def test_mixed_dtypes_rejected(self, rng):
        grads = {
            "a": rng.normal(size=400).astype(np.float32),
            "b": rng.normal(size=200),  # float64
        }
        with pytest.raises(ValueError, match="one floating dtype"):
            GradientHistograms(grads)
        with pytest.raises(ValueError, match="one floating dtype"):
            TransmissionPlanner(MaxNConfig()).plan(grads, {1: 10.0}, 0.5)

    def test_non_float_gradients_rejected(self, rng):
        grads = {"a": rng.integers(-9, 9, size=400)}
        with pytest.raises(ValueError, match="one floating dtype"):
            GradientHistograms(grads)

    def test_standalone_views_do_not_share_buffers(self, rng):
        """Two views built without a pool, alive at once, each keep
        their own magnitudes and mask (the planner's pooled views are
        one at a time by construction)."""
        a = {"w": rng.normal(size=3000), "b": rng.normal(size=40)}
        b = {"w": rng.normal(size=3000) * 50.0, "b": np.zeros(40)}
        view_a, view_b = GradientHistograms(a), GradientHistograms(b)
        # a's mask is built (and tagged) first; b's build must not touch it
        assert view_a.exact_bytes_at(30.0) == sparse_payload_bytes(
            select_payload(a, 30.0)
        )
        view_b.exact_bytes_at(90.0)
        got = view_a.select_payload(30.0)
        want = select_payload(a, 30.0)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name][0], want[name][0])
        # magnitudes: each view folds its own gradients
        for n in (5.0, 50.0, 100.0):
            assert view_a.bytes_at(n) == GradientHistograms(a).bytes_at(n)
            assert view_b.bytes_at(n) == GradientHistograms(b).bytes_at(n)


def _slope_near(hist, edge):
    """Bytes per bin around ``edge``, read off the fold as the planner does."""
    k = _BINS - edge
    k1, k2 = max(k - 64, 0), min(k + 64, _BINS)
    rev = hist.folded
    return max(float(rev[k2] - rev[k1]) / max(k2 - k1, 1), 8.0)


class TestFitWarm:
    def test_agrees_with_batched_fit(self, rng):
        grads = {"w": rng.normal(size=8000)}
        hist = GradientHistograms(grads)
        for budget in (100.0, 3_000.0, 20_000.0, 1e9):
            chosen, edges = hist.fit_many([budget])
            n_cold, edge = float(chosen[0]), int(edges[0])
            warm = hist.fit_warm(budget, edge, slope_hint=_slope_near(hist, edge))
            assert warm is not None
            n_warm, edge_warm = warm
            # exact counts can sit one edge above the overcounting
            # histogram, never below it
            assert n_cold - 1e-9 <= n_warm <= n_cold + 100.0 / 4096 + 1e-9
            if n_warm > 0.85:
                assert hist.exact_bytes_at(n_warm) <= budget

    def test_distant_guess_gives_up(self, rng):
        """A guess 500 bins on the infeasible side with a slope hint far
        too large walks one bin per probe and runs out of probes."""
        grads = {"w": rng.normal(size=8000)}
        hist = GradientHistograms(grads)
        budget = 3_000.0
        _, edges = hist.fit_many([budget])
        distant = int(edges[0]) - 500
        assert distant > 0
        assert hist.fit_warm(budget, distant, slope_hint=1e12) is None

    def test_planner_warm_starts_across_epochs(self, rng):
        """Second iteration with uniform bandwidths resolves by exact
        probes: no histogram fold, one warm fit."""
        planner = TransmissionPlanner(MaxNConfig())
        base = rng.normal(size=5000)
        with _spy(GradientHistograms, "_ensure_hist") as ensure_hist, _spy(
            GradientHistograms, "fit_warm"
        ) as fit_warm:
            planner.plan({"w": base}, {1: 5.0, 2: 5.0}, 0.05)
            plans = planner.plan(
                {"w": base + rng.normal(size=5000) * 0.01}, {1: 5.0, 2: 5.0}, 0.05
            )
        # first iteration only: the fold is built once, then cached
        assert ensure_hist.call_count == 1
        assert fit_warm.call_count >= 1
        assert plans[1][1] is plans[2][1]
        # the warm-chosen payload still fits the budget exactly
        n = plans[1][0]
        if n > 0.85:
            budget = planner.budget_bytes(5.0, 0.05)
            assert sparse_payload_bytes(plans[1][1]) <= budget

    @pytest.mark.parametrize(
        "links", [{1: 5.0, 2: 5.0}, {1: 5.0, 2: 0.5}], ids=["uniform", "mixed"]
    )
    def test_planner_keeps_the_fold_narrow(self, rng, links):
        """The fold a planner keeps between plans is the cold fit's,
        value for value, at half the bytes (1,000 planners keep one
        each)."""
        grads = {"w": rng.normal(size=5000), "b": rng.normal(size=10)}
        planner = TransmissionPlanner(MaxNConfig())
        planner.plan(grads, links, 0.05)
        hist = GradientHistograms(grads)
        hist.fit_many([1.0])
        assert hist.folded.dtype == np.int64
        assert planner._stale_fold.dtype == np.int32
        np.testing.assert_array_equal(planner._stale_fold, hist.folded)
