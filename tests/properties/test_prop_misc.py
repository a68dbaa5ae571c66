"""Property-based tests: traces, metrics, GBS controller, datasets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GbsConfig
from repro.core.gbs_controller import GbsController
from repro.cluster.traces import PiecewiseTrace
from repro.nn.datasets import SyntheticImageDataset
from repro.utils.metrics import TimeSeries, accuracy_at_time, mean_and_ci95


# ---------------------------------------------------------------- traces
@st.composite
def piecewise_segments(draw):
    n = draw(st.integers(1, 8))
    times = sorted(draw(st.lists(st.floats(0.1, 1e4), min_size=n - 1, max_size=n - 1, unique=True)))
    values = draw(st.lists(st.floats(0.1, 1e4), min_size=n, max_size=n))
    return [(0.0, values[0])] + list(zip(times, values[1:]))


@given(segments=piecewise_segments(), t=st.floats(0, 2e4))
@settings(max_examples=150, deadline=None)
def test_trace_value_is_last_breakpoint_at_or_before_t(segments, t):
    trace = PiecewiseTrace(segments)
    expected = [v for s, v in segments if s <= t][-1]
    assert trace.value_at(t) == expected


@given(segments=piecewise_segments())
@settings(max_examples=100, deadline=None)
def test_next_change_iteration_visits_all_breakpoints(segments):
    trace = PiecewiseTrace(segments)
    t, seen = 0.0, []
    while True:
        nxt = trace.next_change_after(t)
        if nxt is None:
            break
        seen.append(nxt)
        t = nxt
    assert seen == [s for s, _ in segments[1:]]


# --------------------------------------------------------------- metrics
@given(
    pairs=st.lists(
        st.tuples(st.floats(0, 1e5), st.floats(0, 1)), min_size=1, max_size=50
    )
)
@settings(max_examples=150, deadline=None)
def test_accuracy_at_time_is_monotone_in_t(pairs):
    pairs = sorted(pairs, key=lambda p: p[0])
    s = TimeSeries()
    for t, v in pairs:
        s.append(t, v)
    ts = [p[0] for p in pairs]
    accs = [accuracy_at_time(s, t) for t in ts]
    assert accs == sorted(accs)


@given(samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=11))
@settings(max_examples=150, deadline=None)
def test_ci_contains_no_nan_and_mean_in_range(samples):
    mean, ci = mean_and_ci95(samples)
    assert np.isfinite(mean) and np.isfinite(ci)
    assert min(samples) - 1e-9 <= mean <= max(samples) + 1e-9
    assert ci >= 0


# --------------------------------------------------------- GBS controller
@given(
    initial=st.integers(1, 1000),
    train_size=st.integers(1000, 100_000),
    ticks=st.integers(0, 40),
)
@settings(max_examples=150, deadline=None)
def test_gbs_never_decreases_and_respects_cap(initial, train_size, ticks):
    ctl = GbsController(
        GbsConfig(start_epoch=0.0), initial_gbs=initial, train_size=train_size
    )
    prev = ctl.gbs
    for _ in range(ticks):
        cur = ctl.maybe_update(epoch=10.0)
        assert cur >= prev
        prev = cur
    # one geometric step may overshoot the 10% cap, never more
    assert ctl.gbs <= max(initial, 2.0 * 0.10 * train_size + 32)


# ---------------------------------------------------------------- shards
@given(n_workers=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_shards_partition_exactly(n_workers):
    ds = SyntheticImageDataset.cifar_like(
        np.random.default_rng(0), train_size=240, test_size=40
    )
    shards = ds.shards(n_workers)
    assert len(shards) == n_workers
    assert sum(s.size for s in shards) == 240
    # label multiset is preserved
    all_labels = np.sort(np.concatenate([s.y for s in shards]))
    np.testing.assert_array_equal(all_labels, np.sort(ds.train_y))
