# tests/oracles.py
"""Brute-force reference implementations the tests check the package against.

Everything here recomputes quantities from dense matrices with explicit
summation, deliberately avoiding the package's deflated/vectorized forms.
``objective_kw`` gives the objective keywords that TrainConfig defaults.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from pottscluster import TrainConfig


def objective_kw(**overrides) -> dict:
    """evaluate_objective's keywords at TrainConfig's defaults, with ``overrides`` applied."""
    config = TrainConfig()
    keys = ("w_collapse", "w_gamma", "gamma_max", "collapse_scaling")
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
