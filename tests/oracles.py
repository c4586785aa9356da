# tests/oracles.py
"""Brute-force reference implementations the tests check the package against.

Everything here recomputes quantities from dense matrices with explicit
summation, deliberately avoiding the package's deflated/vectorized forms.
``objective_kw`` gives the objective keywords that TrainConfig defaults;
``both_readers`` runs a loader with numpy's reader and with its reference
row loop alone.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from contextlib import nullcontext
from types import SimpleNamespace
from unittest import mock

import numpy as np

from pottscluster import (
    DatasetFormatError,
    DMON_GAMMA,
    SELU_ALPHA,
    SELU_LAMBDA,
    LossBreakdown,
    ModelParams,
    TrainConfig,
    collapse_reg,
    dataset,
    gamma_reg,
    ortho_reg,
)


def both_readers(load, *args):
    """What ``load`` gives with numpy's reader and with the row loop alone: arrays as bytes, or the error.

    Each load runs under warning filters that turn no warning into an error,
    as outside the test suite, and must emit none.
    """
    outcomes = []
    for row_loop_only in (False, True):
        with (
            mock.patch.object(dataset, "_read_table", return_value=None) if row_loop_only else nullcontext(),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            try:
                result = load(*args)
            except DatasetFormatError as exc:
                result = str(exc)
        assert not caught, [str(w.message) for w in caught]
        if isinstance(result, str):
            outcomes.append(result)
            continue
        if isinstance(result, np.ndarray):
            arrays = [result]
        else:
            g, x, labels = result
            arrays = [g.row_ptr, g.col_idx, g.degrees, g.adj.data, x.indptr, x.indices, x.data, labels]
        outcomes.append([None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays])
    return outcomes


def objective_kw(**overrides) -> dict:
    """evaluate_objective's keywords at TrainConfig's defaults, with ``overrides`` applied."""
    config = TrainConfig()
    keys = ("w_collapse", "w_gamma", "gamma_max")
    return {key: overrides.get(key, getattr(config, key)) for key in keys}


def dense_adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for j in range(g.row_ptr[u], g.row_ptr[u + 1]):
            a[u, g.col_idx[j]] = 1.0
    return a


def potts_double_sum(a: np.ndarray, c: np.ndarray, gamma: float) -> float:
    """-(1/2m) * sum_ij (A_ij - gamma d_i d_j / 2m) (C C^T)_ij, diagonal included."""
    n = a.shape[0]
    d = a.sum(axis=1)
    two_m = d.sum()
    total = 0.0
    for i in range(n):
        for j in range(n):
            sim = float(np.dot(c[i], c[j]))
            total += (a[i, j] - gamma * d[i] * d[j] / two_m) * sim
    return -total / two_m


def modularity_tally(a: np.ndarray, labels) -> float:
    """100 * sum_c (e_c/m - (k_c/2m)^2)."""
    d = a.sum(axis=1)
    m = d.sum() / 2.0
    q = 0.0
    for lab in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == lab]
        e_c = sum(a[i, j] for i in idx for j in idx) / 2.0
        k_c = sum(d[i] for i in idx)
        q += e_c / m - (k_c / (2.0 * m)) ** 2
    return 100.0 * q


def modularity_double_sum(a: np.ndarray, labels) -> float:
    """100 * (1/2m) * sum_ij (A_ij - d_i d_j / 2m) [labels_i == labels_j]."""
    n = a.shape[0]
    d = a.sum(axis=1)
    two_m = d.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += a[i, j] - d[i] * d[j] / two_m
    return 100.0 * q / two_m


def conductance_oracle(a: np.ndarray, labels) -> float:
    """100 * mean over clusters of cut / min(vol, 2m - vol); 0 on zero min-vol."""
    n = a.shape[0]
    d = a.sum(axis=1)
    two_m = d.sum()
    vals = []
    for lab in sorted(set(labels)):
        inside = [i for i, l in enumerate(labels) if l == lab]
        outside = [i for i in range(n) if labels[i] != lab]
        cut = sum(a[i, j] for i in inside for j in outside)
        vol = sum(d[i] for i in inside)
        denom = min(vol, two_m - vol)
        vals.append(0.0 if denom == 0.0 else cut / denom)
    return 100.0 * sum(vals) / len(vals)


def nmi_oracle(x, y) -> float:
    """Natural-log NMI with arithmetic-mean normalization, on a 0..100 scale."""
    n = len(x)
    cx, cy = Counter(x), Counter(y)
    cxy = Counter(zip(x, y))
    hx = -sum((c / n) * math.log(c / n) for c in cx.values())
    hy = -sum((c / n) * math.log(c / n) for c in cy.values())
    if hx == 0.0 and hy == 0.0:
        return 100.0
    mi = 0.0
    for (a, b), c in cxy.items():
        p = c / n
        mi += p * math.log(p * n * n / (cx[a] * cy[b]))
    val = mi / ((hx + hy) / 2.0)
    return 100.0 * min(max(val, 0.0), 1.0)


def f1_oracle(x, y) -> float:
    """Pairwise F1 over same-cluster pairs, all C(n,2) pairs enumerated."""
    n = len(x)
    tp = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_pred = x[i] == x[j]
            same_true = y[i] == y[j]
            tp += same_pred and same_true
            fp += same_pred and not same_true
            fn += (not same_pred) and same_true
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def dense_table_scores(pred, truth) -> tuple[float, float]:
    """(NMI, pairwise F1) x100 from a dense (max pred + 1) x (max truth + 1) count table.

    The table-based formulas the package used before it counted only the
    occupied cells; its scores must match these bit for bit.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    table = np.zeros((int(pred.max()) + 1, int(truth.max()) + 1), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    n = int(table.sum())
    pa, pb, pj = table.sum(axis=1) / n, table.sum(axis=0) / n, table / n

    def entropy(p):
        p = p[p > 0]
        return float(-np.sum(p * np.log(p)))

    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 and hb == 0.0:
        nmi = 100.0
    else:
        mask = pj > 0
        mi = float(np.sum(pj[mask] * (np.log(pj[mask]) - np.log(np.outer(pa, pb)[mask]))))
        nmi = 100.0 * float(np.clip(mi / ((ha + hb) / 2.0), 0.0, 1.0))

    def pairs(counts):
        c = counts.astype(np.float64)
        return float(np.sum(c * (c - 1.0) / 2.0))

    tp = pairs(table.ravel())
    pred_pairs, truth_pairs = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    precision = tp / pred_pairs if pred_pairs > 0 else 0.0
    recall = tp / truth_pairs if truth_pairs > 0 else 0.0
    if precision + recall == 0.0:
        return nmi, 0.0
    return nmi, 100.0 * 2.0 * precision * recall / (precision + recall)


def set_partitions(n: int):
    """All partitions of {0..n-1} as restricted-growth label lists."""
    a = [0] * n
    b = [1] * n
    while True:
        yield a.copy()
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nb = b[i] + (1 if a[i] == b[i] else 0)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = nb


def textbook_adam_slot(value, grad, m, v, t: int, lr: float):
    """One Adam step for one parameter slot, written out as in Kingma & Ba (2015).

    Returns (new value, new m, new v); beta1=0.9, beta2=0.999, eps=1e-8.
    """
    m = 0.9 * m + (1.0 - 0.9) * grad
    v = 0.999 * v + (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at array x, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        out[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def fd_scalar(f, v: float, h: float = 1e-5) -> float:
    return (f(v + h) - f(v - h)) / (2.0 * h)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_edge_list(rng: np.random.Generator, n: int, p: float):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    return edges


def random_row_stochastic(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    r = rng.random((n, k)) + 1e-3
    return r / r.sum(axis=1, keepdims=True)


def hard_c(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    c = np.zeros((labels.size, k))
    c[np.arange(labels.size), labels] = 1.0
    return c


# ---- the allocating epoch ------------------------------------------------
# forward, backward, the objective and the Adam step as they were written
# before the package wrote into per-train buffers: every intermediate is a
# new array and every sparse product is scipy's ``@``. The in-place
# versions must reproduce them bit for bit. Signatures match the package's,
# so each can be monkeypatched into the trainer; ``cache`` and ``out`` are
# accepted and ignored.


def reference_forward(abar, x, params, x_t=None, cache=None):
    h = params.w.shape[1]
    xw = x @ params.w_in
    h_pre = abar @ xw[:, :h] + xw[:, h:]
    neg = SELU_LAMBDA * SELU_ALPHA * np.expm1(np.minimum(h_pre, 0.0))
    h_act = SELU_LAMBDA * np.maximum(h_pre, 0.0) + neg
    logits = h_act @ params.w_out
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    c = e / e.sum(axis=1, keepdims=True)
    ref_cache = SimpleNamespace(
        abar=abar, x_t=x.T if x_t is None else x_t, h_pre=h_pre, h=h_act, c=c, w_out=params.w_out
    )
    return c, ref_cache


def reference_backward(cache, d_c, d_gamma):
    inner = (d_c * cache.c).sum(axis=1, keepdims=True)
    d_logits = cache.c * (d_c - inner)
    grad = ModelParams(cache.x_t.shape[0], *cache.w_out.shape)
    np.matmul(cache.h.T, d_logits, out=grad.w_out)
    d_h = d_logits @ cache.w_out.T
    x = cache.h_pre
    d = SELU_LAMBDA * SELU_ALPHA * np.exp(np.minimum(x, 0.0))
    d += (x > 0) * (SELU_LAMBDA - SELU_LAMBDA * SELU_ALPHA)
    d_h_pre = d_h * d
    grad.w_in[...] = cache.x_t @ np.concatenate((cache.abar @ d_h_pre, d_h_pre), axis=1)
    grad.flat[-1] = d_gamma
    return grad


def reference_objective(g, c, gamma, kind, *, w_collapse, w_gamma, gamma_max, out=None):
    ac = g.adj @ c
    deg = g.degrees.astype(np.float64)
    two_m = 2.0 * g.m
    g_term = d_gamma = 0.0
    if kind == "mincut_ortho":
        num = float(np.sum(c * ac))
        den = float(deg @ (c * c).sum(axis=1))
        d_num = 2.0 * ac
        d_den = 2.0 * deg[:, None] * c
        structural, d_c_s = -num / den, (num * d_den - den * d_num) / (den * den)
        reg, d_c_r = ortho_reg(c)
    else:
        res = gamma if kind == "potts" else DMON_GAMMA
        trace = float(np.sum(c * ac))
        vol = deg @ c
        vol_sq = float(vol @ vol)
        structural = -(trace - res / two_m * vol_sq) / two_m
        d_c_s = -(ac - (res / two_m) * np.outer(deg, vol)) / g.m
        reg, d_c_r = collapse_reg(c)
        if kind == "potts":
            g_term, d_g_r = gamma_reg(gamma, gamma_max)
            d_gamma = vol_sq / (two_m * two_m) + w_gamma * d_g_r
    total = structural + w_collapse * reg + w_gamma * g_term
    breakdown = LossBreakdown(
        potts=float(structural), collapse=float(reg), gamma_reg=float(g_term), total=float(total)
    )
    return breakdown, d_c_s + w_collapse * d_c_r, float(d_gamma)


def reference_adam_step(params, grads, state, learning_rate, gamma_max):
    state.t += 1
    m, v, g = state.m, state.v, grads.flat
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * g * g
    denom = np.sqrt(v / (1.0 - 0.999**state.t))
    denom += 1e-8
    params.flat -= learning_rate * (m / (1.0 - 0.9**state.t)) / denom
    params.flat[-1] = min(max(params.flat[-1], 0.0), gamma_max)
