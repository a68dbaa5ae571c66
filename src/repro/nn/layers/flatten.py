"""Flatten layer: (N, ...) -> (N, prod(...))."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["Flatten"]


class Flatten(Layer):
    """Reshape (N, ...) image tensors to (N, features)."""

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._cache = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._take_cache())
