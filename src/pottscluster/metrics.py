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


def _check_labels(g: Graph, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise ValueError(f"labels shape {labels.shape} does not match n={g.n}")
    return labels.astype(np.int64)


def _cluster_tallies(g: Graph, labels: np.ndarray):
    """Per-cluster (internal edge count, degree volume) from the arc list."""
    k = int(labels.max()) + 1 if labels.size else 0
    src = g.arc_sources()
    dst = g.col_idx
    same = labels[src] == labels[dst]
    # each undirected internal edge contributes two arcs
    internal = np.bincount(labels[src][same], minlength=k) / 2.0
    volume = np.bincount(labels, weights=g.degrees.astype(np.float64), minlength=k)
    return internal, volume


def modularity(g: Graph, labels: np.ndarray) -> float:
    """Newman modularity of a hard partition, scaled by 100."""
    if g.m < 1:
        raise ValueError("modularity is undefined on an edgeless graph (m=0)")
    labels = _check_labels(g, labels)
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
    labels = _check_labels(g, labels)
    internal, volume = _cluster_tallies(g, labels)
    sizes = np.bincount(labels, minlength=volume.size)
    cut = volume - 2.0 * internal  # arcs leaving each cluster
    two_m = 2.0 * g.m
    denom = np.minimum(volume, two_m - volume)
    vals = np.divide(cut, denom, out=np.zeros_like(cut), where=denom != 0)[sizes > 0]
    return 100.0 * float(np.mean(vals))


def _contingency(pred, truth) -> np.ndarray:
    """Count table of (pred, truth) label pairs, after checking both label vectors."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("cannot score empty label vectors")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("cluster labels must be non-negative")
    table = np.zeros((int(pred.max()) + 1, int(truth.max()) + 1), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information (arithmetic mean normalization), x100."""
    table = _contingency(pred, truth)
    n = int(table.sum())
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    pj = table / n

    def entropy(p: np.ndarray) -> float:
        p = p[p > 0]
        return float(-np.sum(p * np.log(p)))

    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 and hb == 0.0:
        # both sides put everything in one cluster: identical partitions
        return 100.0
    mask = pj > 0
    mi = float(np.sum(pj[mask] * (np.log(pj[mask]) - np.log(np.outer(pa, pb)[mask]))))
    value = mi / ((ha + hb) / 2.0)
    return 100.0 * float(np.clip(value, 0.0, 1.0))


def pairwise_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """F1 over same-cluster node pairs, x100.

    A pair counts as positive when both nodes share a cluster. Precision and
    recall degenerate to 0 when their denominators vanish, as does F1.
    """
    table = _contingency(pred, truth)

    def pairs(counts: np.ndarray) -> float:
        c = counts.astype(np.float64)
        return float(np.sum(c * (c - 1.0) / 2.0))

    tp = pairs(table.ravel())
    pred_pairs = pairs(table.sum(axis=1))
    truth_pairs = pairs(table.sum(axis=0))
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
    """Score a hard partition of g, optionally against ground-truth labels."""
    pred = _check_labels(g, pred)
    report = MetricsReport(
        modularity=modularity(g, pred),
        conductance=conductance(g, pred),
        num_clusters=int(np.unique(pred).size),
        nmi=None if truth is None else nmi(pred, truth),
        pairwise_f1=None if truth is None else pairwise_f1(pred, truth),
    )
    return report
