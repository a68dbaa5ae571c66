"""Pooling layers: max-pool (Cipher CNN) and global average pool (MobileNet)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Layer):
    """Non-overlapping max pooling with window = stride = ``size``.

    Input spatial dims must be divisible by ``size`` (the models in this
    repo are constructed so that they are), which lets the forward pass
    be a pure reshape + reduce — no im2col needed.
    """

    def __init__(self, size: int = 2):
        super().__init__()
        if size <= 1:
            raise ValueError("pool size must be >= 2")
        self.size = size

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        xr = x.reshape(n, c, h // s, s, w // s, s)
        out = np.empty((n, c, h // s, w // s), x.dtype)
        xr.max(axis=(3, 5), out=out)
        if training:
            # Route each window's gradient to the (first) argmax. The
            # window axes (3, 5) are brought together before flattening
            # so ties break toward a single element and gradients are
            # never double-counted.
            flat = np.empty((n, c, h // s, w // s, s * s), x.dtype)
            np.copyto(
                flat.reshape(n, c, h // s, w // s, s, s),
                xr.transpose(0, 1, 2, 4, 3, 5),
            )
            first = flat.argmax(axis=-1)
            mask = np.zeros(flat.shape, bool)
            np.put_along_axis(mask, first[..., None], True, axis=-1)
            self._cache = (x.shape, mask)
        else:
            self._cache = None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x_shape, mask = self._take_cache()
        n, c, h, w = x_shape
        s = self.size
        routed = np.empty(mask.shape, dout.dtype)
        np.multiply(mask, dout[:, :, :, :, None], out=routed)
        dx = np.empty(x_shape, dout.dtype)
        np.copyto(
            dx.reshape(n, c, h // s, s, w // s, s),
            routed.reshape(n, c, h // s, w // s, s, s).transpose(0, 1, 2, 4, 3, 5),
        )
        return dx


class GlobalAvgPool2D(Layer):
    """Average over spatial dims: (N, C, H, W) -> (N, C)."""

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"GlobalAvgPool2D expected 4-D input, got {x.shape}")
        self._cache = x.shape if training else None
        out = np.empty(x.shape[:2], x.dtype if x.dtype.kind == "f" else np.float64)
        x.mean(axis=(2, 3), out=out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = self._take_cache()
        dx = np.empty((n, c, h, w), dout.dtype)
        np.divide(dout[:, :, None, None], h * w, out=dx)
        return dx
