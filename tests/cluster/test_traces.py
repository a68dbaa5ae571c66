"""Tests for resource traces."""

import pytest

from repro.cluster.traces import ConstantTrace, PiecewiseTrace, min_trace, square_wave


class TestConstantTrace:
    def test_value_everywhere(self):
        t = ConstantTrace(24.0)
        assert t.value_at(0) == 24.0
        assert t.value_at(1e9) == 24.0
        assert t.next_change_after(0) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantTrace(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ConstantTrace(bad)
        with pytest.raises(ValueError, match="finite"):
            PiecewiseTrace([(0, 1), (5, bad)])
        with pytest.raises(ValueError, match="finite"):
            PiecewiseTrace([(0, 1), (bad, 2)])

    def test_scaled(self):
        assert ConstantTrace(24.0).scaled(0.5).value_at(7) == 12.0
        t = PiecewiseTrace([(0, 50), (10, 20)]).scaled(0.1)
        assert (t.value_at(9.9), t.value_at(10)) == (50 * 0.1, 20 * 0.1)


class TestPiecewiseTrace:
    def test_segment_lookup(self):
        t = PiecewiseTrace([(0, 24), (100, 12), (300, 4)])
        assert t.value_at(0) == 24
        assert t.value_at(99.999) == 24
        assert t.value_at(100) == 12
        assert t.value_at(250) == 12
        assert t.value_at(10_000) == 4

    def test_next_change_after(self):
        t = PiecewiseTrace([(0, 1), (10, 2), (20, 3)])
        assert t.next_change_after(0) == 10
        assert t.next_change_after(10) == 20
        assert t.next_change_after(20) is None

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            PiecewiseTrace([(1, 5)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseTrace([(0, 1), (5, 2), (5, 3)])

    def test_positive_levels_only(self):
        with pytest.raises(ValueError):
            PiecewiseTrace([(0, 1), (5, 0)])

    def test_negative_time_rejected(self):
        t = PiecewiseTrace([(0, 1)])
        with pytest.raises(ValueError):
            t.value_at(-0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseTrace([])


class TestSquareWave:
    def test_alternation(self):
        t = square_wave(30, 100, period=100, horizon=500)
        assert t.value_at(0) == 30
        assert t.value_at(100) == 100
        assert t.value_at(250) == 30
        assert t.value_at(350) == 100

    def test_start_high(self):
        t = square_wave(30, 100, period=50, start_high=True, horizon=200)
        assert t.value_at(0) == 100
        assert t.value_at(50) == 30

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            square_wave(1, 2, period=0)


class TestMinTrace:
    def test_union_of_breakpoints(self):
        a = PiecewiseTrace([(0, 50), (10, 20)])
        b = PiecewiseTrace([(0, 35), (5, 60), (20, 10)])
        m = min_trace(a, b)
        assert [m.value_at(t) for t in (0, 5, 10, 20)] == [35, 50, 20, 10]
        assert [m.next_change_after(t) for t in (0, 5, 10, 20)] == [5, 10, 20, None]

    def test_scalars_and_constants_are_interchangeable(self):
        a = PiecewiseTrace([(0, 50), (10, 20)])
        for slow in (30, 30.0, ConstantTrace(30)):
            m = min_trace(slow, a)
            assert (m.value_at(0), m.value_at(10)) == (30, 20)

    def test_unchanging_minimum_is_a_constant(self):
        a = PiecewiseTrace([(0, 50), (10, 20)])
        for m in (min_trace(a, 20), min_trace(5, a), min_trace(7, 9)):
            assert isinstance(m, ConstantTrace)
        assert min_trace(a, 20).value == 20

    def test_equal_consecutive_levels_collapse(self):
        a = PiecewiseTrace([(0, 50), (10, 50), (20, 20)])
        assert min_trace(a, a).next_change_after(0) == 20
