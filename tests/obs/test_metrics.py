"""Unit tests for the metrics registry."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    percentile_from_buckets,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("bytes_total", "", ("src", "dst"))
        c.inc(100, 0, 1)
        c.inc(50, 0, 1)
        c.inc(7, 1, 0)
        assert c.value(0, 1) == 150
        assert c.value(1, 0) == 7
        assert c.value(2, 2) == 0.0

    def test_negative_rejected(self):
        c = Counter("n", "", ())
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_label_arity_checked(self):
        c = Counter("n", "", ("worker",))
        with pytest.raises(ValueError, match="label"):
            c.inc(1)

    def test_samples_stringify_labels(self):
        c = Counter("n", "", ("worker",))
        c.inc(2, 3)
        assert c.samples() == [{"labels": {"worker": "3"}, "value": 2.0}]


class TestGauge:
    def test_set_inc_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth", labels=("worker",))
        g.set(4, 0)
        g.inc(-1, 0)
        assert g.value(0) == 3
        assert g.value(9) == 0.0


class TestHistogram:
    def test_edges_are_inclusive_upper_bounds(self):
        h = Histogram("lat", "", (), buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 2.0, 5.0, 6.0):
            h.observe(v)
        [sample] = h.samples()
        cum = {b["le"]: b["count"] for b in sample["buckets"]}
        # le=1.0 catches 0.5 and exactly 1.0 (Prometheus semantics).
        assert cum[1.0] == 2
        assert cum[2.0] == 4
        assert cum[5.0] == 5
        assert cum["+inf"] == 6

    def test_count_sum_mean_min_max(self):
        h = Histogram("lat", "", ("worker",))
        h.observe(1.0, 0)
        h.observe(3.0, 0)
        assert h.count(0) == 2
        assert h.sum(0) == 4.0
        assert h.mean(0) == 2.0
        assert h.mean(1) == 0.0
        [sample] = h.samples()
        assert sample["min"] == 1.0 and sample["max"] == 3.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=())
        with pytest.raises(ValueError):
            Histogram("h", "", (), buckets=(1.0, 1.0))


class TestPercentiles:
    def test_linear_interpolation_within_a_bucket(self):
        # 10 observations land in (1, 2]; the median interpolates to
        # the bucket midpoint, Prometheus histogram_quantile-style.
        edges = (1.0, 2.0, 5.0)
        cumulative = [0, 10, 10, 10]
        assert percentile_from_buckets(edges, cumulative, 0.5) == pytest.approx(1.5)

    def test_min_max_clamp_beats_bucket_edges(self):
        edges = (1.0, 2.0)
        cumulative = [0, 4, 4]
        # All four values were 1.9; the interpolated estimate cannot
        # stray outside the observed range.
        p = percentile_from_buckets(
            edges, cumulative, 0.99, minimum=1.9, maximum=1.9
        )
        assert p == pytest.approx(1.9)

    def test_inf_bucket_resolves_to_observed_max(self):
        edges = (1.0,)
        cumulative = [0, 3]  # all three observations above every edge
        assert percentile_from_buckets(
            edges, cumulative, 0.99, maximum=7.5
        ) == pytest.approx(7.5)

    def test_empty_series_is_none(self):
        assert percentile_from_buckets((1.0,), [0, 0], 0.5) is None

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            percentile_from_buckets((1.0,), [0, 0], 1.5)
        with pytest.raises(ValueError):
            percentile_from_buckets((1.0, 2.0), [0, 0], 0.5)

    def test_histogram_percentile_and_samples_agree(self):
        h = Histogram("lat", "", ("worker",), buckets=(0.01, 0.1, 1.0))
        for i in range(100):
            h.observe(0.001 + i * 0.0005, 0)  # 0.001 .. 0.0505
        p50 = h.percentile(0.5, 0)
        p99 = h.percentile(0.99, 0)
        assert 0.001 <= p50 < p99 <= 0.0505  # max-clamped, never past range
        [sample] = h.samples()
        assert sample["p50"] == pytest.approx(p50)
        assert sample["p99"] == pytest.approx(p99)

    def test_percentile_all_pools_label_series(self):
        h = Histogram("lat", "", ("link",), buckets=(1.0, 10.0))
        for _ in range(99):
            h.observe(0.5, 0)   # fast link
        h.observe(9.0, 1)       # one slow outlier on another link
        assert h.percentile(0.995, 0) <= 1.0
        assert h.percentile_all(0.995) > 1.0

    def test_empty_histogram_percentiles_are_none(self):
        h = Histogram("lat", "", ())
        assert h.percentile(0.99) is None
        assert h.percentile_all(0.99) is None
        h.observe(2.0)
        [sample] = h.samples()
        assert sample["p95"] is not None


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("events", labels=())
        b = reg.counter("events", labels=())
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x", labels=("a", "b"))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_to_dict_and_write(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("grad_bytes_total", "bytes", ("src", "dst")).inc(10, 0, 1)
        reg.histogram("wait", labels=("worker",)).observe(0.2, 1)
        dump = reg.to_dict()
        assert dump["grad_bytes_total"]["kind"] == "counter"
        assert dump["wait"]["kind"] == "histogram"
        path = tmp_path / "m.json"
        reg.write(path)
        assert json.loads(path.read_text()) == dump

    def test_names_in_registration_order(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a")
        assert reg.names() == ["b", "a"]
