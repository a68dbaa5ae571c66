"""Tests for time series and the paper's three metrics."""

import numpy as np
import pytest

from repro.utils.metrics import (
    TimeSeries,
    accuracy_at_time,
    detect_convergence,
    mean_and_ci95,
    time_to_accuracy,
)


def make_series(pairs):
    s = TimeSeries()
    for t, v in pairs:
        s.append(t, v)
    return s


class TestTimeSeries:
    def test_append_and_len(self):
        s = make_series([(0, 0.1), (1, 0.2)])
        assert len(s) == 2
        assert (s.times, s.values) == ([0.0, 1.0], [0.1, 0.2])

    def test_rejects_time_going_backwards(self):
        s = make_series([(5, 0.1)])
        with pytest.raises(ValueError):
            s.append(4.0, 0.2)

    def test_equal_times_allowed(self):
        s = make_series([(1, 0.1)])
        s.append(1.0, 0.2)
        assert len(s) == 2

    def test_value_at_locf(self):
        s = make_series([(1, 0.1), (3, 0.5), (5, 0.9)])
        assert s.value_at(0.0) == 0.1  # before first sample: first value
        assert s.value_at(3.0) == 0.5
        assert s.value_at(4.9) == 0.5
        assert s.value_at(100.0) == 0.9

    def test_empty_series_behaviour(self):
        s = TimeSeries()
        assert not s
        with pytest.raises(IndexError):
            s.value_at(0.0)

    def test_value_at_before_first_sample(self):
        # LOCF has nothing to carry forward yet: clamp to the first value,
        # even for times far before (or negative relative to) the start.
        s = make_series([(10, 0.4), (20, 0.8)])
        assert s.value_at(9.999) == 0.4
        assert s.value_at(-100.0) == 0.4


class TestAccuracyAtTime:
    def test_best_up_to_t(self):
        s = make_series([(10, 0.4), (20, 0.6), (30, 0.55)])
        assert accuracy_at_time(s, 25) == 0.6
        assert accuracy_at_time(s, 35) == 0.6

    def test_before_first_sample_is_zero(self):
        s = make_series([(10, 0.4)])
        assert accuracy_at_time(s, 5) == 0.0


class TestTimeToAccuracy:
    def test_first_crossing(self):
        s = make_series([(10, 0.4), (20, 0.7), (30, 0.8)])
        assert time_to_accuracy(s, 0.7) == 20.0

    def test_unreached_returns_none(self):
        s = make_series([(10, 0.4)])
        assert time_to_accuracy(s, 0.9) is None

    def test_exact_target_counts(self):
        s = make_series([(5, 0.5)])
        assert time_to_accuracy(s, 0.5) == 5.0


class TestDetectConvergence:
    def test_plateau_detected(self):
        ramp = [(i, min(0.8, 0.1 * i)) for i in range(40)]
        s = make_series(ramp)
        conv = detect_convergence(s, window=5, tolerance=0.01)
        assert conv is not None
        t, acc = conv
        assert acc == pytest.approx(0.8)
        assert t >= 8.0  # not before the ramp ends

    def test_still_improving_returns_none(self):
        s = make_series([(i, 0.02 * i) for i in range(30)])
        assert detect_convergence(s, window=5, tolerance=0.01) is None

    def test_too_short_returns_none(self):
        s = make_series([(i, 0.5) for i in range(5)])
        assert detect_convergence(s, window=5) is None

    def test_exactly_two_windows_is_enough(self):
        # The length gate is `size < 2 * window`: exactly 2*window flat
        # samples must be eligible and detect a plateau immediately.
        window = 5
        s = make_series([(i, 0.6) for i in range(2 * window)])
        conv = detect_convergence(s, window=window, tolerance=0.01)
        assert conv == (float(window), 0.6)

    def test_one_sample_short_of_two_windows_returns_none(self):
        window = 5
        s = make_series([(i, 0.6) for i in range(2 * window - 1)])
        assert detect_convergence(s, window=window, tolerance=0.01) is None


class TestMeanAndCi95:
    def test_single_sample(self):
        mean, ci = mean_and_ci95([0.7])
        assert mean == 0.7 and ci == 0.0

    def test_three_runs_uses_t_quantile(self):
        mean, ci = mean_and_ci95([0.5, 0.6, 0.7])
        assert mean == pytest.approx(0.6)
        # sem = 0.1/sqrt(3); t(0.975, df=2) = 4.303
        assert ci == pytest.approx(4.303 * 0.1 / 3**0.5, rel=1e-3)

    def test_identical_samples_zero_ci(self):
        mean, ci = mean_and_ci95([0.4, 0.4, 0.4])
        assert ci == pytest.approx(0.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_and_ci95([])

    def test_large_n_falls_back_to_normal_quantile(self):
        # n = 12 -> df = 11, outside the Student-t table: 1.96 applies.
        samples = [0.1 * i for i in range(12)]
        mean, ci = mean_and_ci95(samples)
        arr = np.asarray(samples)
        sem = arr.std(ddof=1) / np.sqrt(arr.size)
        assert mean == pytest.approx(arr.mean())
        assert ci == pytest.approx(1.96 * sem)

    def test_largest_tabulated_n_uses_t_quantile(self):
        # n = 11 -> df = 10 is the last tabulated row (2.228, not 1.96).
        samples = [0.1 * i for i in range(11)]
        _, ci = mean_and_ci95(samples)
        arr = np.asarray(samples)
        sem = arr.std(ddof=1) / np.sqrt(arr.size)
        assert ci == pytest.approx(2.228 * sem)
