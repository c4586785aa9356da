# pottscluster/metrics.py
"""Partition quality metrics, all reported on a 0..100 scale.

Graph-aware metrics (modularity, conductance) take the Graph; label-only
metrics (NMI, pairwise F1) compare two integer label vectors. Hard labels
come from a soft assignment via row-wise argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

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


def _integer_labels(labels, n: int | None = None) -> np.ndarray:
    """``labels`` as int64, checked to be (n,) if n is given.

    Float, string and bool labels are rejected, not cast.
    """
    labels = np.asarray(labels)
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"cluster labels must be integers, got {labels.dtype} values")
    if n is not None and labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match n={n}")
    return labels.astype(np.int64)


def _cluster_tallies(g: Graph, labels: np.ndarray):
    """Per-cluster (internal edge count, degree volume) from the arc list.

    Cluster ids are first mapped to 0..K-1 in increasing order, so memory
    grows with n, not with the largest id, and every tallied cluster is
    non-empty.
    """
    _, labels = np.unique(labels, return_inverse=True)
    k = int(labels.max()) + 1 if labels.size else 0
    src = g.arc_sources()
    dst = g.col_idx
    same = labels[src] == labels[dst]
    # each undirected internal edge contributes two arcs
    internal = np.bincount(labels[src][same], minlength=k) / 2.0
    volume = np.bincount(labels, weights=g.float_degrees, minlength=k)
    return internal, volume


def modularity(g: Graph, labels: np.ndarray) -> float:
    """Newman modularity of a hard partition, scaled by 100."""
    if g.m < 1:
        raise ValueError("modularity is undefined on an edgeless graph (m=0)")
    labels = _integer_labels(labels, g.n)
    internal, volume = _cluster_tallies(g, labels)
    two_m = 2.0 * g.m
    q = float(np.sum(internal / g.m) - np.sum((volume / two_m) ** 2))
    return 100.0 * q


def conductance(g: Graph, labels: np.ndarray) -> float:
    """Mean conductance over non-empty clusters, scaled by 100. Lower is better.

    A cluster's conductance is cut / min(vol, 2m - vol); a cluster with zero
    min-volume contributes 0.
    """
    if g.m < 1:
        raise ValueError("conductance is undefined on an edgeless graph (m=0)")
    labels = _integer_labels(labels, g.n)
    internal, volume = _cluster_tallies(g, labels)
    cut = volume - 2.0 * internal  # arcs leaving each cluster
    two_m = 2.0 * g.m
    denom = np.minimum(volume, two_m - volume)
    vals = np.divide(cut, denom, out=np.zeros_like(cut), where=denom != 0)
    return 100.0 * float(np.mean(vals))


def _contingency(pred, truth):
    """Occupied cells of the (pred, truth) count table, after checking both label vectors.

    Both vectors are mapped to 0..K-1 in increasing order, so memory grows
    with n, not with the table. Returns (rows, cols, counts, row_sums,
    col_sums): the occupied cells in row-major order and the table's
    marginals.
    """
    pred, truth = _integer_labels(pred), _integer_labels(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("cannot score empty label vectors")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("cluster labels must be non-negative")
    _, pred = np.unique(pred, return_inverse=True)
    classes, truth = np.unique(truth, return_inverse=True)
    cells, counts = np.unique(pred * classes.size + truth, return_counts=True)
    rows, cols = np.divmod(cells, classes.size)
    return rows, cols, counts, np.bincount(pred), np.bincount(truth)


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information (arithmetic mean normalization), x100."""
    rows, cols, counts, row_sums, col_sums = _contingency(pred, truth)
    n = int(row_sums.sum())
    pa = row_sums / n
    pb = col_sums / n
    pj = counts / n

    def entropy(p: np.ndarray) -> float:
        return float(-np.sum(p * np.log(p)))

    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 and hb == 0.0:
        # both sides put everything in one cluster: identical partitions
        return 100.0
    mi = float(np.sum(pj * (np.log(pj) - np.log(pa[rows] * pb[cols]))))
    value = mi / ((ha + hb) / 2.0)
    return 100.0 * float(np.clip(value, 0.0, 1.0))


def pairwise_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """F1 over same-cluster node pairs, x100.

    A pair counts as positive when both nodes share a cluster. Precision and
    recall degenerate to 0 when their denominators vanish, as does F1.
    """
    _, _, cell_counts, row_sums, col_sums = _contingency(pred, truth)

    def pairs(counts: np.ndarray) -> float:
        c = counts.astype(np.float64)
        return float(np.sum(c * (c - 1.0) / 2.0))

    tp = pairs(cell_counts)
    pred_pairs = pairs(row_sums)
    truth_pairs = pairs(col_sums)
    precision = tp / pred_pairs if pred_pairs > 0 else 0.0
    recall = tp / truth_pairs if truth_pairs > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of partition scores; label-comparison fields are None without truth."""

    modularity: float
    conductance: float
    num_clusters: int
    nmi: float | None = None
    pairwise_f1: float | None = None


def evaluate_partition(g: Graph, pred: np.ndarray, truth: np.ndarray | None = None) -> MetricsReport:
    """Score a hard partition of g, its ids mapped to 0..K-1 in order, optionally against truth."""
    clusters, pred = np.unique(_integer_labels(pred, g.n), return_inverse=True)
    return MetricsReport(
        modularity=modularity(g, pred),
        conductance=conductance(g, pred),
        num_clusters=clusters.size,
        nmi=None if truth is None else nmi(pred, truth),
        pairwise_f1=None if truth is None else pairwise_f1(pred, truth),
    )
