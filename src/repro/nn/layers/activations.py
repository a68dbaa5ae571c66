"""Elementwise activations."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["ReLU", "ReLU6"]


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
