"""Classification loss: numerically-stable softmax cross-entropy."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax_probs", "softmax_cross_entropy"]


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for numerical stability."""
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    ``labels`` are integer class ids. The returned gradient is already
    averaged over the batch (matching Eq. 2/6 in the paper where the
    gradient is the *mean* over the minibatch). ``logits`` is only
    read, never written.
    """
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    probs = softmax_probs(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad
