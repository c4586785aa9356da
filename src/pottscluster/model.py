# pottscluster/model.py
"""GCN encoder with a linear skip path.

Forward pass: H = SeLU(Abar @ (X W) + X W_skip), logits = H W_out,
C = row softmax(logits). X may be sparse, so both feature products come
from one product with W_in = [W | W_skip]. The architecture is small and
fixed, so the backward pass is a hand-derived reverse-mode chain rather
than a tape.

Both passes write into a ForwardCache's buffers, so reusing one cache, as
the trainer does, allocates nothing (n, h)-sized; every product is bit
for bit what ``a @ b`` gives, so no float changes. Every function computes
in its inputs' float dtype: float32 for the trainer's arrays, float64 for
float64 ones.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import float_array, matmul_into, spmm

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

    ``flat`` is a vector of ``dtype``, float64 unless given, holding w_in
    (l, 2h), then w_out (h, k), each row-major, then gamma as its last
    entry. Row i of w_in is [w[i] | w_skip[i]], so w and w_skip (l, h) are
    its column halves. All matrices are views into ``flat``, so writing
    either one writes the other. A new instance is all zeros; gamma >= 0 is
    kept by clamping after updates. A gradient has the same layout, with
    dL/dgamma in the last entry.
    """

    @staticmethod
    def size(l: int, h: int, k: int) -> int:
        """Length of ``flat`` for l features, h hidden units and k clusters."""
        return 2 * l * h + h * k + 1

    def __init__(self, l: int, h: int, k: int, dtype=np.float64):
        self.flat = np.zeros(self.size(l, h, k), dtype)
        self.w_in = self.flat[: 2 * l * h].reshape(l, 2 * h)
        self.w = self.w_in[:, :h]
        self.w_skip = self.w_in[:, h:]
        self.w_out = self.flat[2 * l * h : -1].reshape(h, k)

    @property
    def gamma(self) -> float:
        return float(self.flat[-1])

    @gamma.setter
    def gamma(self, value: float) -> None:
        # rounded toward zero, so a gamma in [0, gamma_max] stays there in float32 too
        self.flat[-1] = value
        if abs(self.gamma) > abs(value):
            # a zero of flat's dtype: numpy 1.x promotes a float32 scalar and a Python 0 to float64
            self.flat[-1] = np.nextafter(self.flat[-1], self.flat.dtype.type(0))


class ForwardCache:
    """Buffers forward() fills and the matching backward() reuses, for one model shape.

    forward() overwrites all of them and backward() all but ``c``, so ``c``
    and backward()'s result ``grad`` last until the next call on the cache.
    Buffers, in the parameters' dtype, hold several intermediates in turn:
    four (n, h) arrays in all. forward() also binds the operators
    backward() reads: ``abar``, ``x_t`` and ``w_out``.
    """

    def __init__(self, n: int, params: ModelParams):
        (l, h), k, dtype = params.w.shape, params.w_out.shape[1], params.flat.dtype
        # X W_in, then (as ``spare``, two C-contiguous halves) scratch for
        # SeLU and its derivative, and last [Abar dH_pre | dH_pre]
        self.xw = np.empty((n, 2 * h), dtype)
        self.spare = self.xw.reshape(2, n, h)
        self.h_pre = np.empty((n, h), dtype)  # pre-activation; Abar dH_pre in backward
        self.h = np.empty((n, h), dtype)  # X W made contiguous, then SeLU(h_pre); dH, dH_pre in backward
        self.logits, self.c = np.empty((n, k), dtype), np.empty((n, k), dtype)  # logits: dL/dlogits in backward
        self.row = np.empty((n, 1), dtype)  # per-row reductions
        self.grad = ModelParams(l, h, k, dtype)


def selu(x, out=None, scratch=None):
    """SeLU activation, elementwise: lambda*x for x>0, lambda*alpha*(e^x - 1) otherwise.

    ``out`` and ``scratch``, arrays of x's dtype shaped like x, take the
    result and an intermediate when given.
    """
    x = float_array(x)
    # the other side adds +0 (or -0 to -0): the branch's value bit for bit, without np.where
    neg = np.expm1(np.minimum(x, 0.0, out=scratch), out=scratch)
    neg *= SELU_LAMBDA * SELU_ALPHA
    out = np.maximum(x, 0.0, out=out)
    out *= SELU_LAMBDA
    out += neg
    return out


def selu_grad(x, out=None, scratch=None):
    """Derivative of selu: lambda for x>0, lambda*alpha*e^x for x<=0; ``out``/``scratch`` as in selu."""
    x = float_array(x)
    # at x > 0 the exponential is 1, and lambda*alpha + (lambda - lambda*alpha) is
    # lambda exactly in float64 for these constants (a test pins it), and one ulp
    # below it in float32; elsewhere it adds +0
    out = np.exp(np.minimum(x, 0.0, out=out), out=out)
    out *= SELU_LAMBDA * SELU_ALPHA
    pos = np.greater(x, 0.0, out=scratch)
    out += np.multiply(pos, SELU_LAMBDA - SELU_LAMBDA * SELU_ALPHA, out=scratch)
    return out


def softmax_rows(logits: np.ndarray, out=None, row=None) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum; fills ``out`` and ``row`` (n, 1) if given."""
    logits = float_array(logits)
    row = np.maximum.reduce(logits, axis=1, keepdims=True, out=row)
    out = np.subtract(logits, row, out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=1, keepdims=True, out=row)
    return out


def forward(
    abar: sp.csr_matrix,
    x: np.ndarray | sp.spmatrix,
    params: ModelParams,
    x_t: np.ndarray | sp.spmatrix | None = None,
    cache: ForwardCache | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the encoder on features ``x`` and return (C, cache).

    ``x`` is an (n, l) scipy sparse matrix or dense array. ``x_t`` is its
    transpose if the caller already holds one, as the trainer does for its
    dropped-out features; otherwise the cache takes ``x.T``. Without
    ``cache`` a new one is built; a given cache is overwritten, C included,
    and returned.
    """
    if x.ndim != 2 or x.shape[0] != abar.shape[0]:
        raise ValueError(f"features must be ({abar.shape[0]}, l), got {x.shape}")
    if x.shape[1] != params.w_in.shape[0]:
        raise ValueError(f"features have {x.shape[1]} columns, w has {params.w_in.shape[0]} rows")
    cache = ForwardCache(abar.shape[0], params) if cache is None else cache
    cache.abar, cache.x_t, cache.w_out = abar, x.T if x_t is None else x_t, params.w_out
    h, xw = params.w.shape[1], matmul_into(x, params.w_in, cache.xw)
    np.copyto(cache.h, xw[:, :h])  # the CSR kernel reads X W contiguous, as a @ x copies it
    spmm(abar, cache.h, out=cache.h_pre)
    cache.h_pre += xw[:, h:]
    selu(cache.h_pre, out=cache.h, scratch=cache.spare[0])
    np.matmul(cache.h, params.w_out, out=cache.logits)
    softmax_rows(cache.logits, out=cache.c, row=cache.row)
    return cache.c, cache


def backward(cache: ForwardCache, d_c: np.ndarray, d_gamma: float) -> ModelParams:
    """Chain upstream gradients (d_c wrt C, d_gamma wrt gamma) back to the parameters.

    The result has the ModelParams layout and is ``cache.grad``, which the
    next backward() on this cache overwrites. gamma does not enter the
    forward pass, so its gradient passes through.
    """
    d_c = float_array(d_c)
    if d_c.shape != cache.c.shape:
        raise ValueError(f"upstream gradient shape {d_c.shape} does not match C {cache.c.shape}")
    grad, h = cache.grad, cache.h_pre.shape[1]
    # softmax rows: d_logits = C * (dC - rowsum(dC * C))
    d_logits = np.multiply(d_c, cache.c, out=cache.logits)
    np.subtract(d_c, np.add.reduce(d_logits, axis=1, keepdims=True, out=cache.row), out=d_logits)
    d_logits *= cache.c
    np.matmul(cache.h.T, d_logits, out=grad.w_out)
    d_h = np.matmul(d_logits, cache.w_out.T, out=cache.h)
    d_h *= selu_grad(cache.h_pre, *cache.spare)  # now dH_pre
    # h_pre = Abar (X W) + X W_skip with Abar symmetric
    cache.xw[:, :h] = spmm(cache.abar, d_h, out=cache.h_pre)
    cache.xw[:, h:] = d_h
    matmul_into(cache.x_t, cache.xw, grad.w_in)
    grad.flat[-1] = d_gamma
    return grad
