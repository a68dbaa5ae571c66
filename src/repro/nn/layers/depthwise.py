"""Depthwise convolution — the MobileNet building block.

A depthwise conv applies one ``k×k`` filter per input channel (no
cross-channel mixing); MobileNet pairs it with a 1×1 pointwise ``Conv2D``.
Implemented with the same strided-view unfold as ``Conv2D`` but with the
channel axis kept separate so each channel sees only its own filter.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import _out_size

__all__ = ["DepthwiseConv2D"]


class DepthwiseConv2D(Layer):
    """Per-channel convolution, weights ``(C, kh, kw)``."""

    def __init__(
        self,
        channels: int,
        kernel: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
        pad: int | None = None,
    ):
        super().__init__()
        if channels <= 0 or kernel <= 0 or stride <= 0:
            raise ValueError("depthwise conv dimensions must be positive")
        self.c, self.k, self.stride = channels, kernel, stride
        self.pad = (kernel // 2) if pad is None else pad
        self.params = {
            "W": he_normal(rng, (channels, kernel, kernel), fan_in=kernel * kernel),
            "b": zeros((channels,)),
        }

    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Return a window view (N, C, OH, OW, kh, kw) of the padded input."""
        n, c, h, w = x.shape
        oh = _out_size(h, self.k, self.stride, self.pad)
        ow = _out_size(w, self.k, self.stride, self.pad)
        if self.pad > 0:
            x = np.pad(
                x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad))
            )
        sn, sc, sh, sw = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, self.k, self.k),
            strides=(sn, sc, sh * self.stride, sw * self.stride, sh, sw),
            writeable=False,
        )
        return view, oh, ow

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c:
            raise ValueError(f"DepthwiseConv2D expected (N,{self.c},H,W), got {x.shape}")
        view, oh, ow = self._unfold(x)
        # einsum over the window dims: out[n,c,i,j] = sum_kl view[n,c,i,j,k,l] W[c,k,l]
        out = np.einsum("ncijkl,ckl->ncij", view, self.params["W"], optimize=True)
        out += self.params["b"][None, :, None, None]
        self._cache = (x.shape, np.ascontiguousarray(view)) if training else None
        return out

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        x_shape, view = self._take_cache()
        self.grads["W"] = np.einsum("ncijkl,ncij->ckl", view, dout, optimize=True)
        self.grads["b"] = dout.sum(axis=(0, 2, 3))
        if not need_dx:
            return None

        # dL/dx: scatter dout * W back over the windows.
        n, c, h, w = x_shape
        hp, wp = h + 2 * self.pad, w + 2 * self.pad
        dx = np.zeros((n, c, hp, wp), dtype=dout.dtype)
        oh, ow = dout.shape[2], dout.shape[3]
        wgt = self.params["W"]
        for i in range(self.k):
            i_max = i + self.stride * oh
            for j in range(self.k):
                j_max = j + self.stride * ow
                dx[:, :, i:i_max:self.stride, j:j_max:self.stride] += (
                    dout * wgt[None, :, i, j, None, None]
                )
        if self.pad > 0:
            dx = dx[:, :, self.pad:-self.pad, self.pad:-self.pad]
        return dx
