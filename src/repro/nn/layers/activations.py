"""Elementwise activations."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["ReLU", "ReLU6", "LeakyReLU"]


class ReLU(Layer):
    """max(x, 0)."""

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            mask = np.empty(x.shape, bool)
            np.greater(x, 0, out=mask)
            self._cache = mask
        else:
            self._cache = None
        out = np.empty(x.shape, x.dtype)
        np.maximum(x, 0.0, out=out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        mask = self._take_cache()
        dx = np.empty(dout.shape, dout.dtype)
        np.multiply(dout, mask, out=dx)
        return dx


class LeakyReLU(Layer):
    """max(x, alpha * x) with 0 < alpha < 1."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        mask = np.empty(x.shape, bool)
        np.greater(x, 0, out=mask)
        self._cache = mask if training else None
        out = np.empty(x.shape, x.dtype)
        np.multiply(x, self.alpha, out=out)
        np.copyto(out, x, where=mask)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        mask = self._take_cache()
        dx = np.empty(dout.shape, dout.dtype)
        np.multiply(dout, self.alpha, out=dx)
        np.copyto(dx, dout, where=mask)
        return dx


class ReLU6(Layer):
    """min(max(x, 0), 6) — MobileNet's activation."""

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            mask = np.empty(x.shape, bool)
            lower = np.empty(x.shape, bool)
            np.less(x, 6.0, out=mask)
            np.greater(x, 0, out=lower)
            mask &= lower
            self._cache = mask
        else:
            self._cache = None
        out = np.empty(x.shape, x.dtype)
        np.clip(x, 0.0, 6.0, out=out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        mask = self._take_cache()
        dx = np.empty(dout.shape, dout.dtype)
        np.multiply(dout, mask, out=dx)
        return dx
