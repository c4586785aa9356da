# pottscluster/model.py
"""GCN encoder with a linear skip path.

Forward pass: H = SeLU(Abar @ (X W) + X W_skip), logits = H W_out,
C = row softmax(logits). X may be sparse, so both feature products come
from one product with W_in = [W | W_skip]. The architecture is small and
fixed, so the backward pass is a hand-derived reverse-mode chain rather
than a tape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import spmm

__all__ = [
    "SELU_LAMBDA",
    "SELU_ALPHA",
    "ModelParams",
    "ForwardCache",
    "selu",
    "selu_grad",
    "softmax_rows",
    "forward",
    "backward",
]

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


class ModelParams:
    """Encoder weights plus the trainable resolution scalar gamma, in one vector.

    ``flat`` is a float64 vector holding w_in (l, 2h), then w_out (h, k),
    each row-major, then gamma as its last entry. Row i of w_in is
    [w[i] | w_skip[i]], so w and w_skip (l, h) are its column halves. All
    matrices are views into ``flat``, so writing either one writes the
    other. A new instance is all zeros; gamma >= 0 is kept by clamping after
    updates. A gradient has the same layout, with dL/dgamma in the last
    entry.
    """

    def __init__(self, l: int, h: int, k: int):
        self.flat = np.zeros(2 * l * h + h * k + 1)
        self.w_in = self.flat[: 2 * l * h].reshape(l, 2 * h)
        self.w = self.w_in[:, :h]
        self.w_skip = self.w_in[:, h:]
        self.w_out = self.flat[2 * l * h : -1].reshape(h, k)

    @property
    def gamma(self) -> float:
        return float(self.flat[-1])


@dataclass
class ForwardCache:
    """Intermediates retained by forward() for the matching backward() call."""

    abar: sp.csr_matrix  # normalized adjacency
    x_t: np.ndarray | sp.spmatrix  # transpose of the features the forward pass used
    h_pre: np.ndarray
    h: np.ndarray
    c: np.ndarray
    w_out: np.ndarray


def selu(x):
    """SeLU activation, elementwise: lambda*x for x>0, lambda*alpha*(e^x - 1) otherwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_LAMBDA * x, SELU_LAMBDA * SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


def selu_grad(x):
    """Derivative of selu: lambda for x>0, lambda*alpha*e^x for x<=0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * np.exp(np.minimum(x, 0.0)))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(
    abar: sp.csr_matrix,
    x: np.ndarray | sp.spmatrix,
    params: ModelParams,
    x_t: np.ndarray | sp.spmatrix | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the encoder on features ``x`` and return (C, cache).

    ``x`` is an (n, l) scipy sparse matrix or dense array. ``x_t`` is its
    transpose if the caller already holds one, as the trainer does for its
    dropped-out features; otherwise the cache takes ``x.T``.
    """
    if x.ndim != 2 or x.shape[0] != abar.shape[0]:
        raise ValueError(f"features must be ({abar.shape[0]}, l), got {x.shape}")
    if x.shape[1] != params.w_in.shape[0]:
        raise ValueError(f"features have {x.shape[1]} columns, w has {params.w_in.shape[0]} rows")
    h = params.w.shape[1]
    xw = x @ params.w_in
    h_pre = spmm(abar, xw[:, :h]) + xw[:, h:]
    h_act = selu(h_pre)
    logits = h_act @ params.w_out
    c = softmax_rows(logits)
    cache = ForwardCache(
        abar=abar, x_t=x.T if x_t is None else x_t, h_pre=h_pre, h=h_act, c=c, w_out=params.w_out
    )
    return c, cache


def backward(cache: ForwardCache, d_c: np.ndarray, d_gamma: float) -> ModelParams:
    """Chain upstream gradients (d_c wrt C, d_gamma wrt gamma) back to the parameters.

    The result has the ModelParams layout. gamma does not enter the forward
    pass, so its gradient passes through.
    """
    d_c = np.asarray(d_c, dtype=np.float64)
    if d_c.shape != cache.c.shape:
        raise ValueError(f"upstream gradient shape {d_c.shape} does not match C {cache.c.shape}")
    # softmax rows: d_logits = C * (dC - rowsum(dC * C))
    inner = (d_c * cache.c).sum(axis=1, keepdims=True)
    d_logits = cache.c * (d_c - inner)
    grad = ModelParams(cache.x_t.shape[0], *cache.w_out.shape)
    np.matmul(cache.h.T, d_logits, out=grad.w_out)
    d_h = d_logits @ cache.w_out.T
    d_h_pre = d_h * selu_grad(cache.h_pre)
    # h_pre = Abar (X W) + X W_skip with Abar symmetric
    grad.w_in[...] = cache.x_t @ np.concatenate((spmm(cache.abar, d_h_pre), d_h_pre), axis=1)
    grad.flat[-1] = d_gamma
    return grad
