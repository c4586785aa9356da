"""Seeded workload generators and the three benchmark workloads.

The generators are O(n + m): per block pair they draw a binomial edge count
and then that many distinct pairs, instead of scanning all n(n-1)/2 pairs
as ``pottscluster.graph.sbm`` does. Outputs are written with the package's
own ``save_dataset`` and cached per (workload, seed), so the program under
test only ever sees a dataset directory.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pottscluster import from_edge_list, ring_of_cliques, save_dataset
from pottscluster.dataset import adjacency_features, one_hot_degree_features

# Bump when a generator's output for a given seed changes, so stale caches
# are never reused.
GENERATOR_VERSION = 1

CORA_CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)  # n = 2708


def _triangle_offsets(s: int) -> np.ndarray:
    """offsets[i] = index of the first pair (i, i+1) in row-major i<j order."""
    i = np.arange(s, dtype=np.int64)
    return i * s - i * (i + 1) // 2


def _sample_block_pair(rng, start_a, size_a, start_b, size_b, p):
    """Distinct node pairs between two blocks (or within one if a == b), each kept with prob p."""
    if start_a == start_b:
        total = size_a * (size_a - 1) // 2
    else:
        total = size_a * size_b
    count = int(rng.binomial(total, p)) if total else 0
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    idx = rng.choice(total, size=count, replace=False)
    if start_a == start_b:
        offsets = _triangle_offsets(size_a)
        i = np.searchsorted(offsets, idx, side="right") - 1
        j = idx - offsets[i] + i + 1
    else:
        i, j = np.divmod(idx, size_b)
    return np.stack([start_a + i, start_b + j], axis=1)


def sample_sbm(sizes, p_in: float, p_out: float, rng: np.random.Generator):
    """Stochastic block model in O(n + m) time and memory.

    Returns (graph, labels). Every unordered node pair is an edge
    independently with probability p_in inside a block and p_out across
    blocks, the same law as ``pottscluster.graph.sbm`` with a different
    random stream.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"block sizes must be positive, got {sizes}")
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ValueError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    parts = []
    for a, (sa, na) in enumerate(zip(starts, sizes)):
        for b in range(a, len(sizes)):
            p = p_in if a == b else p_out
            parts.append(_sample_block_pair(rng, int(sa), na, int(starts[b]), sizes[b], p))
    edges = np.concatenate(parts)
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return from_edge_list(edges, int(sum(sizes))), labels


def sample_csbm_features(labels, num_features: int, density: float, signal: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Sparse binary features correlated with the blocks (a contextual SBM).

    The feature columns are split into one topic slice per block. Each node
    draws Binomial(num_features, density) words; a word comes from its own
    block's slice with probability ``signal`` and uniformly from all columns
    otherwise. Repeated words collapse, so the realized density is slightly
    below ``density``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, k = labels.shape[0], int(labels.max()) + 1
    bounds = np.linspace(0, num_features, k + 1).astype(np.int64)
    counts = rng.binomial(num_features, density, size=n)
    node = np.repeat(np.arange(n, dtype=np.int64), counts)
    own = rng.random(node.shape[0]) < signal
    lo, hi = bounds[labels[node]], bounds[labels[node] + 1]
    topic = lo + (rng.random(node.shape[0]) * (hi - lo)).astype(np.int64)
    anywhere = rng.integers(0, num_features, size=node.shape[0])
    feat = np.where(own, topic, anywhere)
    x = np.zeros((n, num_features), dtype=np.float64)
    x[node, feat] = 1.0
    return x


def _degree_probs(sizes, mean_degree: float, intra_share: float) -> tuple[float, float]:
    """(p_in, p_out) giving the target mean degree with the given share of intra-block edges."""
    sizes = np.asarray(sizes, dtype=np.float64)
    n = sizes.sum()
    edges = mean_degree * n / 2.0
    intra_pairs = float((sizes * (sizes - 1) / 2.0).sum())
    inter_pairs = n * (n - 1) / 2.0 - intra_pairs
    return intra_share * edges / intra_pairs, (1.0 - intra_share) * edges / inter_pairs


def make_ring(rng: np.random.Generator):
    del rng  # the ring is fixed; the seed picks the training seeds instead
    g, labels = ring_of_cliques(10, 5)
    return g, adjacency_features(g), labels


def make_csbm_cora(rng: np.random.Generator):
    p_in, p_out = _degree_probs(CORA_CLASS_SIZES, mean_degree=4.0, intra_share=0.8)
    g, labels = sample_sbm(CORA_CLASS_SIZES, p_in, p_out, rng)
    x = sample_csbm_features(labels, 1433, density=0.0127, signal=0.3, rng=rng)
    return g, x, labels


def make_sbm_100k(rng: np.random.Generator):
    sizes = [2000] * 50
    p_in, p_out = _degree_probs(sizes, mean_degree=10.0, intra_share=0.8)
    g, labels = sample_sbm(sizes, p_in, p_out, rng)
    return g, one_hot_degree_features(g), labels


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset generator and how `train` is run on it."""

    name: str
    why: str
    make: Callable  # rng -> (graph, features, labels)
    seeds: int  # --seeds per train invocation
    config: dict  # TrainConfig fields beyond the defaults, without "seed"
    check_nmi: float | None = None  # minimum mean NMI the run must reach
    gated: bool = True  # listed in BENCHMARK.json, so every change is measured on it

    @property
    def epochs(self) -> int:
        return self.config.get("epochs", 1000)

    def train_config(self, seed: int) -> dict:
        """The --config file contents for benchmark seed ``seed``."""
        # disjoint training seeds per benchmark seed: seed*S .. seed*S + S - 1
        return {**self.config, "seed": seed * self.seeds}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ring-10x5",
            why="ring of 10 five-cliques, default config to convergence: per-epoch "
                "Python and Adam overhead dominate; the resolution-limit case, so NMI is checked here",
            make=make_ring,
            seeds=4,
            config={},
            check_nmi=80.0,
        ),
        Workload(
            name="csbm-cora",
            why="Cora-shaped contextual SBM, 1433 sparse binary features: dropout mask and "
                "feature matmuls dominate, where a sparse-features change should show",
            make=make_csbm_cora,
            seeds=3,
            config={"epochs": 8},
        ),
        Workload(
            name="sbm-100k",
            why="SBM with n=1e5, mean degree 10, narrow degree features, k=64: spmm, the "
                "objective and the loader dominate; feature-path changes should not move it",
            make=make_sbm_100k,
            seeds=1,
            config={"k": 64, "epochs": 3},
            # Runnable by name and by --workload all, but not gated: with only
            # 3-4 invocations of ~9 s per run, its run medians spread 18-23%
            # across seeds on a shared 2-core host, too close to the widest
            # bound (25%) for a steady gate.
            gated=False,
        ),
    )
}


def dataset_dir(cache_root: Path, workload: Workload, seed: int) -> Path:
    """Generate the workload's dataset for ``seed`` once and return its directory."""
    path = cache_root / f"{workload.name}-s{seed}-v{GENERATOR_VERSION}"
    if (path / "meta.json").is_file():
        return path
    g, x, labels = workload.make(np.random.default_rng([GENERATOR_VERSION, seed]))
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    save_dataset(tmp, g, x, labels)
    os.replace(tmp, path)
    return path

