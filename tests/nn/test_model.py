"""Tests for the Model container: named variables, updates, evaluation."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU
from repro.nn.model import Model


@pytest.fixture
def model(rng):
    return Model([Dense(6, 8, rng), ReLU(), Dense(8, 3, rng)])


class TestVariableAccess:
    def test_variable_names_are_unique_and_ordered(self, model):
        names = model.variable_names
        assert len(names) == len(set(names)) == 4  # 2 dense layers x (W, b)
        assert names[0].startswith("00_Dense/")
        assert names[-1].startswith("02_Dense/")

    def test_variables_are_views_not_copies(self, model):
        v = model.variables()
        name = model.variable_names[0]
        v[name][0, 0] = 123.0
        assert model.get_variable(name)[0, 0] == 123.0

    def test_copy_weights_detached(self, model):
        snap = model.copy_weights()
        name = model.variable_names[0]
        model.get_variable(name)[...] = 0.0
        assert snap[name].any()

    def test_set_weights_roundtrip(self, model, rng):
        snap = {n: rng.normal(size=v.shape).astype(np.float32)
                for n, v in model.variables().items()}
        model.set_weights(snap)
        for n in model.variable_names:
            np.testing.assert_array_equal(model.get_variable(n), snap[n])

    def test_set_weights_rejects_missing_keys(self, model):
        with pytest.raises(KeyError):
            model.set_weights({})

    def test_num_params_and_nbytes(self, model):
        expect = 6 * 8 + 8 + 8 * 3 + 3
        assert model.num_params() == expect
        assert model.nbytes() == expect * 4


class TestTrainingStep:
    def test_loss_and_grads_cover_all_variables(self, model, rng):
        x = rng.normal(size=(4, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=4)
        loss, grads = model.loss_and_grads(x, y)
        assert set(grads) == set(model.variable_names)
        assert np.isfinite(loss)

    def test_apply_grads_descends_loss(self, model, rng):
        x = rng.normal(size=(32, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=32)
        loss0, grads = model.loss_and_grads(x, y)
        model.apply_grads(grads, lr=0.5)
        loss1, _ = model.loss_and_grads(x, y)
        assert loss1 < loss0

    def test_apply_grads_coeff_scales_update(self, model, rng):
        x = rng.normal(size=(4, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=4)
        _, grads = model.loss_and_grads(x, y)
        name = model.variable_names[0]
        before = model.get_variable(name).copy()
        model.apply_grads({name: grads[name]}, lr=0.1, coeff=2.0)
        np.testing.assert_allclose(
            model.get_variable(name), before - 0.2 * grads[name], rtol=1e-5
        )

    def test_apply_grads_rounds_twice_in_float32(self, model, rng):
        """Each float32 weight is bit-identical to ``w0 - g * float32(lr *
        coeff)``: the scaled gradient rounds to float32, then the step."""
        lr, coeff = 0.1, 1.0 / 3.0
        w0 = model.copy_weights()
        grads = {
            n: (rng.standard_normal(v.shape) * 10.0 ** rng.integers(-3, 3, v.shape))
            .astype(np.float32)
            for n, v in w0.items()
        }
        model.apply_grads(grads, lr=lr, coeff=coeff)
        rounding_matters = False
        for n, g in grads.items():
            expect = w0[n] - g * np.float32(lr * coeff)
            got = model.get_variable(n)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.uint32), expect.view(np.uint32))
            once = (w0[n] - g.astype(np.float64) * (lr * coeff)).astype(np.float32)
            rounding_matters |= bool((once != expect).any())
        # the draws include entries where one float64 rounding differs
        assert rounding_matters

    def test_apply_sparse_grads(self, model):
        name = model.variable_names[0]
        w = model.get_variable(name)
        before = w.copy()
        idx = np.array([0, 5], dtype=np.int64)
        vals = np.array([1.0, -2.0], dtype=np.float32)
        model.apply_sparse_grads({name: (idx, vals)}, lr=0.1)
        flat_b, flat_a = before.reshape(-1), w.reshape(-1)
        assert flat_a[0] == pytest.approx(flat_b[0] - 0.1)
        assert flat_a[5] == pytest.approx(flat_b[5] + 0.2)
        # untouched entries unchanged
        mask = np.ones(flat_b.size, dtype=bool)
        mask[[0, 5]] = False
        np.testing.assert_array_equal(flat_a[mask], flat_b[mask])

    def test_apply_sparse_grads_duplicate_indices_accumulate(self, model):
        name = model.variable_names[0]
        w = model.get_variable(name)
        before = w.reshape(-1)[0]
        idx = np.array([0, 0], dtype=np.int64)
        vals = np.array([1.0, 1.0], dtype=np.float32)
        model.apply_sparse_grads({name: (idx, vals)}, lr=0.1)
        assert w.reshape(-1)[0] == pytest.approx(before - 0.2)

    def test_gradient_shape_mismatch_raises(self, model):
        name = model.variable_names[0]
        with pytest.raises(ValueError):
            model.apply_grads({name: np.zeros((1, 1))}, lr=0.1)


class TestEvaluate:
    def test_perfectly_separable_reaches_full_accuracy(self, rng):
        model = Model([Dense(2, 16, rng), ReLU(), Dense(16, 2, rng)])
        x = np.concatenate([rng.normal(-3, 0.3, (50, 2)), rng.normal(3, 0.3, (50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        x = x.astype(np.float32)
        for _ in range(200):
            _, g = model.loss_and_grads(x, y)
            model.apply_grads(g, lr=0.2)
        loss, acc = model.evaluate(x, y)
        assert acc == 1.0
        assert loss < 0.2

    def test_batched_evaluation_matches_single_shot(self, model, rng):
        x = rng.normal(size=(70, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=70)
        l1, a1 = model.evaluate(x, y, batch=7)
        l2, a2 = model.evaluate(x, y, batch=1000)
        assert l1 == pytest.approx(l2, rel=1e-5)
        assert a1 == a2

    def test_empty_eval_raises(self, model):
        with pytest.raises(ValueError):
            model.evaluate(np.zeros((0, 6)), np.zeros(0, dtype=int))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Model([])
