"""Tests for softmax cross-entropy."""

import numpy as np
import pytest

from repro.nn.losses import softmax_cross_entropy, softmax_probs


class TestSoftmaxProbs:
    def test_rows_sum_to_one(self, rng):
        p = softmax_probs(rng.normal(size=(8, 5)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-6)
        assert (p > 0).all()

    def test_stable_for_large_logits(self):
        p = softmax_probs(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, :2], 0.5, rtol=1e-6)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            softmax_probs(np.zeros(3))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 5, 9])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(10))

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-6

    def test_gradient_is_probs_minus_onehot_over_n(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        probs = softmax_probs(logits.copy())
        _, grad = softmax_cross_entropy(logits.copy(), labels)
        expected = probs
        expected[np.arange(6), labels] -= 1
        expected /= 6
        np.testing.assert_allclose(grad, expected, rtol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-8)

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        _, grad = softmax_cross_entropy(logits.copy(), labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy(); lp[i, j] += eps
                lm = logits.copy(); lm[i, j] -= eps
                num = (softmax_cross_entropy(lp, labels)[0]
                       - softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_its_logits_unchanged(self, rng, dtype):
        # Model.evaluate hands over its logits without a copy and reads
        # them again for the argmax
        logits = rng.normal(size=(6, 4)).astype(dtype)
        before = logits.copy()
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 4, size=6))
        assert logits.tobytes() == before.tobytes()
        assert not np.shares_memory(grad, logits)

    def test_label_shape_mismatch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
