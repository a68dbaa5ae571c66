"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["Dropout"]


class Dropout(Layer):
    """Drops activations with probability ``rate`` during training.

    Uses inverted scaling so inference is a no-op. The generator is
    injected for reproducibility.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0,1)")
        self.rate = rate
        self.rng = rng

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if not training:
            self._cache = None
            return x
        if self.rate == 0.0:
            self._cache = 1.0  # nothing dropped: a unit mask
            return x
        keep = 1.0 - self.rate
        mask = (self.rng.random(x.shape) < keep) / keep
        self._cache = mask
        return x * mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._take_cache()
