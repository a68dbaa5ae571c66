"""Micro-benchmarks of the hot kernels.

Unlike the per-figure benches (one full experiment per run), these are
classic pytest-benchmark microbenchmarks with many rounds: the NumPy
kernels the simulator spends its wall-clock time in. Regressions here
multiply directly into every experiment's runtime.

CI runs this file with ``--benchmark-disable``: every benchmark
executes once for correctness.
"""

from unittest import mock

import numpy as np
import pytest

from repro.cluster.simclock import SimClock
from repro.core import transmission
from repro.core.config import MaxNConfig
from repro.core.maxn import select_max_n
from repro.core.transmission import (
    GradientHistograms,
    TransmissionPlanner,
    fit_n_to_budget,
)
from repro.nn.layers.conv import Conv2D, im2col
from repro.nn.models import cipher_cnn

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def big_grad():
    return RNG.normal(size=786_432).astype(np.float32)  # a 3072x256 dense layer


@pytest.fixture(scope="module")
def many_links():
    """32 destinations with distinct bandwidths (no two budgets equal)."""
    return {dst: 1.5 * (dst + 1) for dst in range(32)}


@pytest.fixture(scope="module")
def conv_batch():
    return RNG.normal(size=(32, 10, 24, 24)).astype(np.float32)


def test_maxn_select_768k(benchmark, big_grad):
    idx, vals = benchmark(select_max_n, big_grad, 50.0)
    assert idx.size > 0


def test_budget_fit_768k(benchmark, big_grad):
    grads = {"w": big_grad}
    n = benchmark(fit_n_to_budget, grads, 500_000.0)
    assert 0.85 <= n <= 100.0


def test_batched_plan_32_links(benchmark, big_grad, many_links):
    """One full plan over 32 heterogeneous links: histograms built once,
    all budgets answered by one vectorized fit, payloads shared by bin."""
    planner = TransmissionPlanner(MaxNConfig())
    grads = {"w": big_grad}
    plans = benchmark(planner.plan, grads, many_links, 0.001)
    assert len(plans) == 32


def test_histogram_build_768k(benchmark, big_grad):
    hist = benchmark(GradientHistograms, {"w": big_grad})
    assert hist.bytes_at(100.0) > 0


def test_plan_builds_histograms_once(big_grad, many_links):
    """Correctness of the batching itself (always runs, smoke included):
    a 32-link plan builds the histogram fold exactly once and never
    falls back to the per-link fit."""
    planner = TransmissionPlanner(MaxNConfig())
    # pairs of links share a bandwidth -> 16 distinct budgets over 32 links
    paired = {dst: 1.5 * (dst // 2 + 1) for dst in range(32)}
    hist = GradientHistograms
    with mock.patch.object(
        hist, "_ensure_hist", autospec=True, side_effect=hist._ensure_hist
    ) as ensure_hist, mock.patch.object(
        hist, "select_payload", autospec=True, side_effect=hist.select_payload
    ) as select, mock.patch.object(
        transmission, "fit_n_to_budget", wraps=fit_n_to_budget
    ) as per_link_fit:
        plans = planner.plan({"w": big_grad}, paired, 0.001)
    assert len(plans) == 32
    assert ensure_hist.call_count == 1
    assert not per_link_fit.called
    # payload sharing: at most one selection per distinct budget
    assert select.call_count <= 16


def test_im2col_cipher_shape(benchmark, conv_batch):
    cols, _ = benchmark(im2col, conv_batch, 3, 3, 1, 1)
    assert cols.shape == (32 * 24 * 24, 10 * 9)


def test_conv_forward(benchmark, conv_batch):
    layer = Conv2D(10, 20, 3, np.random.default_rng(1))
    out = benchmark(layer.forward, conv_batch, False)
    assert out.shape == (32, 20, 24, 24)


def test_conv_backward(benchmark, conv_batch):
    layer = Conv2D(10, 20, 3, np.random.default_rng(1))
    out = layer.forward(conv_batch, True)
    dout = RNG.normal(size=out.shape).astype(np.float32)

    def fwd_bwd():
        layer.forward(conv_batch, True)
        return layer.backward(dout)

    dx = benchmark(fwd_bwd)
    assert dx.shape == conv_batch.shape


def test_cipher_training_step(benchmark):
    model = cipher_cnn(np.random.default_rng(2))
    x = RNG.normal(size=(32, 1, 24, 24)).astype(np.float32)
    y = RNG.integers(0, 10, size=32)

    def step():
        loss, grads = model.loss_and_grads(x, y)
        model.apply_grads(grads, lr=0.01)
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)


def test_sparse_apply_100k(benchmark):
    model = cipher_cnn(np.random.default_rng(3))
    name = max(model.variable_names, key=lambda n: model.get_variable(n).size)
    size = model.get_variable(name).size
    idx = np.sort(RNG.choice(size, size=min(100_000, size // 2), replace=False)).astype(np.int64)
    vals = RNG.normal(size=idx.size).astype(np.float32)

    benchmark(model.apply_sparse_grads, {name: (idx, vals)}, lr=0.01, coeff=0.5)


def test_event_clock_throughput(benchmark):
    def pump():
        clk = SimClock()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                clk.schedule_in(0.001, tick)

        clk.schedule(0.0, tick)
        clk.run_until(1e6)
        return count[0]

    assert benchmark(pump) == 20_000
