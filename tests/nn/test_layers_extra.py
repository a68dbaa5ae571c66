"""Tests for the optimizer extensions: weight decay and gradient clipping."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.model import Model
from repro.nn.optim import SGD


class TestSgdExtensions:
    @pytest.fixture
    def setup(self, rng):
        model = Model([Dense(4, 2, rng)])
        grads = {n: np.ones_like(v) for n, v in model.variables().items()}
        return model, grads

    def test_weight_decay_shrinks_weights(self, setup):
        model, _ = setup
        name = model.variable_names[0]
        before = model.get_variable(name).copy()
        zero_grads = {n: np.zeros_like(v) for n, v in model.variables().items()}
        SGD(model, lr=0.1, weight_decay=0.5).step(zero_grads)
        np.testing.assert_allclose(
            model.get_variable(name), before * (1 - 0.05), rtol=1e-6
        )

    def test_clip_norm_rescales_large_gradients(self, setup):
        model, grads = setup
        opt = SGD(model, lr=1.0, clip_norm=1.0)
        name = model.variable_names[0]
        before = model.get_variable(name).copy()
        opt.step(grads)
        applied = before - model.get_variable(name)
        total = np.sqrt(sum(
            float(np.square(before_v - model.get_variable(n)).sum())
            for n, before_v in [(name, before)]
        ))
        # the update on this variable is bounded by the global clip
        assert np.linalg.norm(applied) <= 1.0 + 1e-6

    def test_clip_noop_for_small_gradients(self, setup):
        model, _ = setup
        small = {n: np.full_like(v, 1e-4) for n, v in model.variables().items()}
        opt = SGD(model, lr=1.0, clip_norm=10.0)
        name = model.variable_names[0]
        before = model.get_variable(name).copy()
        opt.step(small)
        np.testing.assert_allclose(
            model.get_variable(name), before - 1e-4, rtol=1e-5
        )

    def test_global_norm(self, setup):
        _, grads = setup
        n_entries = sum(g.size for g in grads.values())
        assert SGD.global_norm(grads) == pytest.approx(np.sqrt(n_entries))

    def test_validation(self, setup):
        model, _ = setup
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, weight_decay=-1)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, clip_norm=0.0)
