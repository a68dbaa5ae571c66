"""Batch normalization (per-channel for 4-D inputs, per-feature for 2-D)."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import ones, zeros
from repro.nn.layers.base import Layer

__all__ = ["BatchNorm"]


class BatchNorm(Layer):
    """Batch norm with running statistics for inference.

    ``gamma``/``beta`` are trainable weight variables (and therefore take
    part in gradient exchange); running mean/var are local-only state,
    like TensorFlow's non-trainable variables.

    The running statistics are updated **in place** during training
    forward passes, so the arrays keep their identity.
    """

    def __init__(self, dim: int, *, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must be in (0,1)")
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.params = {"gamma": ones((dim,)), "beta": zeros((dim,))}
        self.running_mean = np.zeros(dim, dtype=np.float32)
        self.running_var = np.ones(dim, dtype=np.float32)

    @staticmethod
    def _axes(x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"BatchNorm supports 2-D or 4-D inputs, got {x.ndim}-D")

    def _bshape(self, x: np.ndarray) -> tuple[int, ...]:
        return (1, self.dim) if x.ndim == 2 else (1, self.dim, 1, 1)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        axes = self._axes(x)
        bs = self._bshape(x)
        gamma = self.params["gamma"].reshape(bs)
        beta = self.params["beta"].reshape(bs)
        out = np.empty(x.shape, x.dtype if x.dtype.kind == "f" else np.float64)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean *= m
            self.running_mean += (1 - m) * mean.astype(np.float32)
            self.running_var *= m
            self.running_var += (1 - m) * var.astype(np.float32)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = np.empty(x.shape, out.dtype)
            np.subtract(x, mean.reshape(bs), out=xhat)
            xhat *= inv_std.reshape(bs)
            self._cache = (xhat, inv_std, axes, bs, x.shape)
            np.multiply(gamma, xhat, out=out)
            out += beta
            return out
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        np.subtract(x, self.running_mean.reshape(bs), out=out)
        out *= inv_std.reshape(bs)
        out *= gamma
        out += beta
        return out

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        xhat, inv_std, axes, bs, x_shape = self._take_cache()
        scratch = np.empty(dout.shape, dout.dtype)
        np.multiply(dout, xhat, out=scratch)
        self.grads["gamma"] = np.sum(scratch, axis=axes)
        self.grads["beta"] = np.sum(dout, axis=axes)
        if not need_dx:
            return None
        gamma = self.params["gamma"].reshape(bs)
        dxhat = np.empty(dout.shape, np.result_type(dout.dtype, gamma.dtype))
        np.multiply(dout, gamma, out=dxhat)
        # Standard batch-norm backward, fused form of
        # ``(dxhat - dxhat.mean() - xhat * (dxhat*xhat).mean()) * inv_std``
        # evaluated left to right.
        term = np.empty(dout.shape, dxhat.dtype)
        np.multiply(dxhat, xhat, out=term)
        mean_dxhat_xhat = term.mean(axis=axes)
        np.subtract(dxhat, dxhat.mean(axis=axes).reshape(bs), out=term)
        np.multiply(xhat, mean_dxhat_xhat.reshape(bs), out=scratch)
        term -= scratch
        term *= inv_std.reshape(bs)
        return term
