"""2-D convolution via im2col.

The im2col transform turns convolution into one large GEMM, the standard
way to get vectorized-NumPy performance (see the hpc-parallel guide's
"vectorize for loops" rule). Data layout is NCHW throughout.

The layer expresses the im2col gather as one strided-view ``copyto``
into a 6-D block whose flat 2-D reshape is the GEMM operand.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.layers.base import Layer

__all__ = ["Conv2D", "im2col", "col2im"]


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _window_view(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Read-only sliding-window view (N, C, kh, kw, OH, OW) — no copy."""
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns (N*OH*OW, C*kh*kw).

    Returns the column matrix and the output spatial size ``(OH, OW)``.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ValueError(f"kernel {kh}x{kw} too large for input {h}x{w} (pad={pad})")
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    view = _window_view(x, kh, kw, stride, oh, ow)
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlaps (im2col adjoint).

    Returns the unpadded result (a view into the padded sum when ``pad > 0``).
    """
    n, c, h, w = x_shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j, :, :]
    if pad > 0:
        return out[:, :, pad:-pad, pad:-pad]
    return out


class Conv2D(Layer):
    """Standard convolution, weights ``(out_c, in_c, kh, kw)``."""

    def __init__(
        self,
        in_c: int,
        out_c: int,
        kernel: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
        pad: int | None = None,
    ):
        super().__init__()
        if in_c <= 0 or out_c <= 0 or kernel <= 0 or stride <= 0:
            raise ValueError("conv dimensions must be positive")
        self.in_c, self.out_c, self.k, self.stride = in_c, out_c, kernel, stride
        self.pad = (kernel // 2) if pad is None else pad
        fan_in = in_c * kernel * kernel
        self.params = {
            "W": he_normal(rng, (out_c, in_c, kernel, kernel), fan_in=fan_in),
            "b": zeros((out_c,)),
        }

    def _cols(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """im2col of the padded input; returns (cols, OH, OW)."""
        n, c, h, w = x.shape
        k, s, p = self.k, self.stride, self.pad
        oh = _out_size(h, k, s, p)
        ow = _out_size(w, k, s, p)
        if oh <= 0 or ow <= 0:
            raise ValueError(f"kernel {k}x{k} too large for input {h}x{w} (pad={p})")
        if p > 0:
            xp = np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype)
            xp[:, :, p:-p, p:-p] = x
            x = xp
        view = _window_view(x, k, k, s, oh, ow)
        cols6 = np.empty((n, oh, ow, c, k, k), x.dtype)
        np.copyto(cols6, view.transpose(0, 4, 5, 1, 2, 3))
        return cols6.reshape(n * oh * ow, c * k * k), oh, ow

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_c:
            raise ValueError(f"Conv2D expected (N,{self.in_c},H,W), got {x.shape}")
        n = x.shape[0]
        cols, oh, ow = self._cols(x)
        wmat = self.params["W"].reshape(self.out_c, -1)  # (out_c, in_c*k*k)
        outf = np.matmul(cols, wmat.T)
        outf += self.params["b"]
        out = np.empty((n, self.out_c, oh, ow), outf.dtype)
        np.copyto(out, outf.reshape(n, oh, ow, self.out_c).transpose(0, 3, 1, 2))
        self._cache = (x.shape, cols) if training else None
        return out

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        x_shape, cols = self._take_cache()
        n, _, oh, ow = dout.shape
        k, s, p = self.k, self.stride, self.pad
        dflat = np.empty((n * oh * ow, self.out_c), dout.dtype)
        np.copyto(
            dflat.reshape(n, oh, ow, self.out_c), dout.transpose(0, 2, 3, 1)
        )
        w = self.params["W"]
        wmat = w.reshape(self.out_c, -1)
        gw = np.empty(w.shape, np.result_type(dflat.dtype, cols.dtype))
        np.matmul(dflat.T, cols, out=gw.reshape(self.out_c, -1))
        self.grads["W"] = gw
        self.grads["b"] = np.sum(dflat, axis=0)
        if not need_dx:
            return None
        dcols = np.matmul(dflat, wmat)
        dx = col2im(dcols, x_shape, k, k, s, p)
        # A padded result is a view into the padded sum: hand out a
        # contiguous array of its own instead.
        return dx if p == 0 else dx.copy()
