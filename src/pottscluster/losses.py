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
    "DMON_GAMMA",
]

LOSS_KINDS = ("potts", "dmon", "mincut_ortho")
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


def potts_loss(g: Graph, c: np.ndarray, gamma: float, out: np.ndarray | None = None):
    """Potts Hamiltonian of soft assignment ``c`` at resolution ``gamma``.

    Returns (value, dL/dC, dL/dgamma); dL/dC goes into ``out`` if given.
    """
    if g.m < 1:
        raise ValueError("Potts objective is undefined on an edgeless graph (m=0)")
    c = np.asarray(c, dtype=np.float64)
    ac = spmm(g.adj, c, out=out)
    trace = float(np.add.reduce(c * ac, axis=None))  # Tr(C^T A C)
    deg = g.float_degrees
    vol = deg @ c  # d^T C, one entry per cluster
    vol_sq = float(vol @ vol)
    two_m = 2.0 * g.m
    value = -(trace - gamma / two_m * vol_sq) / two_m
    # d_c = -(A C - (gamma/2m) d vol^T) / m in place on A C; x / -m is -(x / m) bit for bit
    ac -= (gamma / two_m) * np.multiply(deg[:, None], vol)
    ac /= -g.m
    return value, ac, vol_sq / (two_m * two_m)


def collapse_reg(c: np.ndarray):
    """DMoN's collapse penalty sqrt(k)/n * ||column sums of C|| - 1.

    It is zero for perfectly balanced columns and sqrt(k)-1 when all mass
    falls into one cluster. A k/sqrt(n) prefactor would only rescale it by
    sqrt(n*k), as w_collapse does. Returns (value, dL/dC); every row of the
    gradient is the same, so it is returned as that one row, shape (1, k).
    """
    c = np.asarray(c, dtype=np.float64)
    n, k = c.shape
    factor = sqrt(k) / n
    s = np.add.reduce(c, axis=0)
    nrm = sqrt(float(s @ s))
    row = factor * s / nrm if nrm != 0.0 else np.zeros(k)
    return factor * nrm - 1.0, row[None]


def gamma_reg(gamma: float, gamma_max: float):
    """|gamma - gamma_max|; nudges the resolution toward its ceiling.

    Returns (value, dL/dgamma), with subgradient 0 at gamma == gamma_max.
    """
    if gamma_max <= 0:
        raise ValueError(f"gamma_max must be positive, got {gamma_max}")
    return abs(gamma - gamma_max), float(np.sign(gamma - gamma_max))


def mincut_loss(g: Graph, c: np.ndarray, out: np.ndarray | None = None):
    """Normalized-cut relaxation -Tr(C^T A C) / Tr(C^T D C); returns (value, dL/dC), ``out`` as in potts_loss."""
    if g.m < 1:
        raise ValueError("min-cut objective needs at least one edge")
    c = np.asarray(c, dtype=np.float64)
    ac = spmm(g.adj, c, out=out)
    num = float(np.add.reduce(c * ac, axis=None))
    deg = g.float_degrees
    den = float(deg @ np.add.reduce(c * c, axis=1))
    if den == 0.0:
        raise ValueError("degree-weighted denominator Tr(C^T D C) is zero")
    # d_c = (num * d_den - den * d_num) / den^2 with d_den = 2 D C and d_num = 2 A C, into ac
    np.subtract(num * (2.0 * deg[:, None] * c), den * (2.0 * ac), out=ac)
    ac /= den * den
    return -num / den, ac


def ortho_reg(c: np.ndarray):
    """Distance of C^T C (Frobenius-normalized) from the balanced target I/sqrt(k).

    Returns (value, dL/dC).
    """
    c = np.asarray(c, dtype=np.float64)
    k = c.shape[1]
    s = c.T @ c
    f = sqrt(float(np.vdot(s, s)))
    t = s / f - np.eye(k) / sqrt(k)
    value = sqrt(float(np.vdot(t, t)))
    if value == 0.0:
        return value, np.zeros_like(c)
    g_mat = t / value
    d_s = g_mat / f - (float(np.add.reduce(g_mat * s, axis=None)) / f**3) * s
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
    out: np.ndarray | None = None,
):
    """Evaluate one of the training objectives on (g, C, gamma).

    The keywords other than ``out`` are the TrainConfig fields of the same
    names, which hold their defaults. Returns (LossBreakdown, dL/dC,
    dL/dgamma), with dL/dC in ``out`` if given. The dmon and mincut_ortho
    objectives do not depend on gamma, so their gamma gradient and
    gamma_reg term are zero.
    """
    if kind == "potts":
        structural, d_c, d_gamma = potts_loss(g, c, gamma, out)
        reg, d_c_r = collapse_reg(c)
        g_term, d_g_r = gamma_reg(gamma, gamma_max)
        d_gamma += w_gamma * d_g_r
    elif kind == "dmon":
        structural, d_c, _ = potts_loss(g, c, DMON_GAMMA, out)
        reg, d_c_r = collapse_reg(c)
        g_term = d_gamma = 0.0
    elif kind == "mincut_ortho":
        structural, d_c = mincut_loss(g, c, out)
        reg, d_c_r = ortho_reg(c)
        g_term = d_gamma = 0.0
    else:
        raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")

    total = structural + w_collapse * reg + w_gamma * g_term
    breakdown = LossBreakdown(
        potts=float(structural), collapse=float(reg), gamma_reg=float(g_term), total=float(total)
    )
    d_c += w_collapse * d_c_r  # collapse_reg's one row broadcasts over the n rows
    return breakdown, d_c, float(d_gamma)
