# pottscluster/metrics.py
"""Partition quality metrics, all reported on a 0..100 scale.

Graph-aware metrics (modularity, conductance) take the Graph; label-only
metrics (NMI, pairwise F1) compare two integer label vectors. Every label
vector is checked by ``graph.check_ids`` (integers, non-negative, never
cast) and its ids ranked once. Hard labels come from a soft assignment via
row-wise argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, check_ids

__all__ = [
    "hard_assign",
    "modularity",
    "conductance",
    "nmi",
    "pairwise_f1",
    "MetricsReport",
    "evaluate_partition",
]


def hard_assign(c: np.ndarray) -> np.ndarray:
    """Row-wise argmax of a soft assignment; ties go to the lowest index."""
    c = np.asarray(c)
    if c.ndim != 2:
        raise ValueError(f"expected a 2-d assignment matrix, got shape {c.shape}")
    return np.argmax(c, axis=1).astype(np.int64)


def _ranked(labels, n: int) -> tuple[int, np.ndarray]:
    """(K, ranks): ``labels``, checked by check_ids, with its K distinct ids mapped to 0..K-1 in increasing order.

    Memory then grows with n, not with the largest id, and every rank is an
    occupied cluster.
    """
    ids, ranks = np.unique(check_ids(labels, "cluster labels", n), return_inverse=True)
    return ids.size, ranks


def _graph_scores(g: Graph, k: int, ranks: np.ndarray) -> tuple[float, float]:
    """(modularity, conductance) of the partition into ranks 0..k-1, from per-cluster tallies of the arc list."""
    if g.m < 1:
        raise ValueError("modularity and conductance are undefined on an edgeless graph (m=0)")
    src = g.arc_sources()
    same = ranks[src] == ranks[g.col_idx]
    # each undirected internal edge contributes two arcs
    internal = np.bincount(ranks[src][same], minlength=k) / 2.0
    volume = np.bincount(ranks, weights=g.float_degrees, minlength=k)
    two_m = 2.0 * g.m
    q = float(np.sum(internal / g.m) - np.sum((volume / two_m) ** 2))
    cut = volume - 2.0 * internal  # arcs leaving each cluster
    denom = np.minimum(volume, two_m - volume)
    phi = np.divide(cut, denom, out=np.zeros_like(cut), where=denom != 0)
    return 100.0 * q, 100.0 * float(np.mean(phi))


def modularity(g: Graph, labels: np.ndarray) -> float:
    """Newman modularity of a hard partition, scaled by 100."""
    return _graph_scores(g, *_ranked(labels, g.n))[0]


def conductance(g: Graph, labels: np.ndarray) -> float:
    """Mean conductance over non-empty clusters, scaled by 100. Lower is better.

    A cluster's conductance is cut / min(vol, 2m - vol); a cluster with zero
    min-volume contributes 0.
    """
    return _graph_scores(g, *_ranked(labels, g.n))[1]


def _label_scores(pred: np.ndarray, classes: int, truth: np.ndarray) -> tuple[float, float]:
    """(NMI, pairwise F1) of ranks ``pred`` against ranks ``truth`` (0..classes-1).

    Both come from the occupied cells of the count table, so memory grows
    with n, not with the table.
    """
    cells, counts = np.unique(pred * classes + truth, return_counts=True)
    rows, cols = np.divmod(cells, classes)
    row_sums, col_sums = np.bincount(pred), np.bincount(truth)
    pa, pb, pj = row_sums / pred.size, col_sums / pred.size, counts / pred.size
    ha, hb = (float(-np.sum(p * np.log(p))) for p in (pa, pb))
    if ha == 0.0 and hb == 0.0:  # both sides put everything in one cluster: identical partitions
        nmi_score = 100.0
    else:
        mi = float(np.sum(pj * (np.log(pj) - np.log(pa[rows] * pb[cols]))))
        nmi_score = 100.0 * float(np.clip(mi / ((ha + hb) / 2.0), 0.0, 1.0))
    # node pairs that share a cell, a predicted cluster, a class
    tp, pred_pairs, truth_pairs = (float(np.sum(c * (c - 1.0) / 2.0)) for c in (counts, row_sums, col_sums))
    precision = tp / pred_pairs if pred_pairs > 0 else 0.0
    recall = tp / truth_pairs if truth_pairs > 0 else 0.0
    f1 = 0.0 if precision + recall == 0.0 else 100.0 * 2.0 * precision * recall / (precision + recall)
    return nmi_score, f1


def _label_pair(pred, truth) -> tuple[np.ndarray, int, np.ndarray]:
    """_label_scores' arguments: two label vectors of one length, each checked and ranked once."""
    n = np.size(pred)
    if n == 0:
        raise ValueError("cannot score empty label vectors")
    return _ranked(pred, n)[1], *_ranked(truth, n)


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information (arithmetic mean normalization), x100."""
    return _label_scores(*_label_pair(pred, truth))[0]


def pairwise_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """F1 over same-cluster node pairs, x100.

    A pair counts as positive when both nodes share a cluster. Precision and
    recall degenerate to 0 when their denominators vanish, as does F1.
    """
    return _label_scores(*_label_pair(pred, truth))[1]


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of partition scores; label-comparison fields are None without truth."""

    modularity: float
    conductance: float
    num_clusters: int
    nmi: float | None = None
    pairwise_f1: float | None = None


def evaluate_partition(g: Graph, pred: np.ndarray, truth: np.ndarray | None = None) -> MetricsReport:
    """Score a hard partition of g, its ids mapped to 0..K-1 in order, optionally against truth.

    Each label vector is checked and ranked once, and the scores are those
    of the metric functions.
    """
    k, pred = _ranked(pred, g.n)
    q, phi = _graph_scores(g, k, pred)
    nmi_score, f1 = (None, None) if truth is None else _label_scores(pred, *_ranked(truth, g.n))
    return MetricsReport(q, phi, k, nmi_score, f1)
