# pottscluster/losses.py
"""Clustering objectives over a soft assignment matrix C.

The main objective is the Potts Hamiltonian under the configuration null
model, evaluated in deflated matrix form:

    L_potts = -(1/2m) * [ Tr(C^T A C) - (gamma/2m) * ||d^T C||^2 ]

which never materializes the dense null-model matrix d d^T / 2m. Lower is
better; at gamma=1 and hard C this equals minus the modularity. The DMoN
baseline fixes gamma at DMON_GAMMA = 1; the MinCut baseline optimizes the
normalized-cut ratio with an orthogonality penalty instead of collapse
regularization.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .graph import Graph, spmm

__all__ = [
    "LossBreakdown",
    "potts_loss",
    "collapse_reg",
    "gamma_reg",
    "mincut_loss",
    "ortho_reg",
    "evaluate_objective",
    "LOSS_KINDS",
    "COLLAPSE_SCALINGS",
    "DMON_GAMMA",
]

LOSS_KINDS = ("potts", "dmon", "mincut_ortho")
COLLAPSE_SCALINGS = ("sqrtk_over_n", "k_over_sqrtn")
DMON_GAMMA = 1.0


@dataclass(frozen=True)
class LossBreakdown:
    """One objective evaluation split into its terms.

    ``total == potts + w_collapse*collapse + w_gamma*gamma_reg`` by
    construction. For the mincut_ortho objective the ``potts`` slot carries
    the cut ratio and ``collapse`` the orthogonality penalty.
    """

    potts: float
    collapse: float
    gamma_reg: float
    total: float


def potts_loss(g: Graph, c: np.ndarray, gamma: float):
    """Potts Hamiltonian of soft assignment ``c`` at resolution ``gamma``.

    Returns (value, dL/dC, dL/dgamma).
    """
    if g.m < 1:
        raise ValueError("Potts objective is undefined on an edgeless graph (m=0)")
    c = np.asarray(c, dtype=np.float64)
    ac = spmm(g.adj, c)
    trace = float(np.sum(c * ac))  # Tr(C^T A C)
    deg = g.degrees.astype(np.float64)
    vol = deg @ c  # d^T C, one entry per cluster
    vol_sq = float(vol @ vol)
    two_m = 2.0 * g.m
    value = -(trace - gamma / two_m * vol_sq) / two_m
    d_c = -(ac - (gamma / two_m) * np.outer(deg, vol)) / g.m
    return value, d_c, vol_sq / (two_m * two_m)


def _collapse_factor(n: int, k: int, scaling: str) -> float:
    if scaling == "sqrtk_over_n":
        return sqrt(k) / n
    if scaling == "k_over_sqrtn":
        return k / sqrt(n)
    raise ValueError(f"unknown collapse scaling {scaling!r}, expected one of {COLLAPSE_SCALINGS}")


def collapse_reg(c: np.ndarray, scaling: str):
    """Penalty on concentrated cluster mass: factor * ||column sums of C|| - 1.

    With the sqrt(k)/n factor (``sqrtk_over_n``) it is zero for perfectly
    balanced columns and sqrt(k)-1 when all mass falls into one cluster;
    ``k_over_sqrtn`` scales by k/sqrt(n) instead. Returns (value, dL/dC);
    every row of the gradient is the same, so it is a read-only broadcast
    view.
    """
    c = np.asarray(c, dtype=np.float64)
    n, k = c.shape
    factor = _collapse_factor(n, k, scaling)
    s = c.sum(axis=0)
    nrm = float(np.linalg.norm(s))
    row = factor * s / nrm if nrm != 0.0 else np.zeros(k)
    return factor * nrm - 1.0, np.broadcast_to(row, c.shape)


def gamma_reg(gamma: float, gamma_max: float):
    """|gamma - gamma_max|; nudges the resolution toward its ceiling.

    Returns (value, dL/dgamma), with subgradient 0 at gamma == gamma_max.
    """
    if gamma_max <= 0:
        raise ValueError(f"gamma_max must be positive, got {gamma_max}")
    return abs(gamma - gamma_max), float(np.sign(gamma - gamma_max))


def mincut_loss(g: Graph, c: np.ndarray):
    """Normalized-cut relaxation -Tr(C^T A C) / Tr(C^T D C); returns (value, dL/dC)."""
    if g.m < 1:
        raise ValueError("min-cut objective needs at least one edge")
    c = np.asarray(c, dtype=np.float64)
    ac = spmm(g.adj, c)
    num = float(np.sum(c * ac))
    deg = g.degrees.astype(np.float64)
    den = float(deg @ (c * c).sum(axis=1))
    if den == 0.0:
        raise ValueError("degree-weighted denominator Tr(C^T D C) is zero")
    d_num = 2.0 * ac
    d_den = 2.0 * deg[:, None] * c
    return -num / den, (num * d_den - den * d_num) / (den * den)


def ortho_reg(c: np.ndarray):
    """Distance of C^T C (Frobenius-normalized) from the balanced target I/sqrt(k).

    Returns (value, dL/dC).
    """
    c = np.asarray(c, dtype=np.float64)
    k = c.shape[1]
    s = c.T @ c
    f = float(np.linalg.norm(s))
    t = s / f - np.eye(k) / sqrt(k)
    value = float(np.linalg.norm(t))
    if value == 0.0:
        return value, np.zeros_like(c)
    g_mat = t / value
    d_s = g_mat / f - (float(np.sum(g_mat * s)) / f**3) * s
    return value, 2.0 * c @ d_s


def evaluate_objective(
    g: Graph,
    c: np.ndarray,
    gamma: float,
    kind: str,
    *,
    w_collapse: float,
    w_gamma: float,
    gamma_max: float,
    collapse_scaling: str,
):
    """Evaluate one of the training objectives on (g, C, gamma).

    The keywords are the TrainConfig fields of the same names, which hold
    their defaults. Returns (LossBreakdown, dL/dC, dL/dgamma). The dmon and
    mincut_ortho objectives do not depend on gamma, so their gamma gradient
    and gamma_reg term are zero.
    """
    if kind == "potts":
        structural, d_c_s, d_gamma = potts_loss(g, c, gamma)
        reg, d_c_r = collapse_reg(c, collapse_scaling)
        g_term, d_g_r = gamma_reg(gamma, gamma_max)
        d_gamma += w_gamma * d_g_r
    elif kind == "dmon":
        structural, d_c_s, _ = potts_loss(g, c, DMON_GAMMA)
        reg, d_c_r = collapse_reg(c, collapse_scaling)
        g_term = d_gamma = 0.0
    elif kind == "mincut_ortho":
        structural, d_c_s = mincut_loss(g, c)
        reg, d_c_r = ortho_reg(c)
        g_term = d_gamma = 0.0
    else:
        raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")

    total = structural + w_collapse * reg + w_gamma * g_term
    breakdown = LossBreakdown(
        potts=float(structural), collapse=float(reg), gamma_reg=float(g_term), total=float(total)
    )
    return breakdown, d_c_s + w_collapse * d_c_r, float(d_gamma)
