# pottscluster/graph.py
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "from_edge_list",
    "normalized_adjacency",
    "spmm",
    "ring_of_cliques",
    "sbm",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in CSR form.

    Every edge is stored in both directions, so ``len(col_idx) == 2*m``.
    Within each row the column indices are sorted ascending, free of
    duplicates and self-loops. ``degrees[i]`` equals the length of row i.
    Instances are immutable and safe to share across threads.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    m: int
    degrees: np.ndarray

    @cached_property
    def adj(self) -> sp.csr_matrix:
        """Adjacency as a scipy CSR matrix with unit weights, on this graph's arrays."""
        data = np.ones(self.col_idx.shape[0], dtype=np.float64)
        return sp.csr_matrix((data, self.col_idx, self.row_ptr), shape=(self.n, self.n))

    def arc_sources(self) -> np.ndarray:
        """Source node of every stored arc (row index expanded along row_ptr)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_ptr))


def from_edge_list(edges, n: int) -> Graph:
    """Build a Graph from (u, v) pairs.

    Self-loops are dropped and duplicate edges, in either orientation,
    collapse to a single undirected edge.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    arr = arr.reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)][0]
        raise ValueError(f"edge ({bad[0]},{bad[1]}) out of bounds for n={n}")

    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    a = np.minimum(u[keep], v[keep])
    b = np.maximum(u[keep], v[keep])
    # encode (a,b) with a < b into a single key for deduplication
    key = np.unique(a * n + b)
    a, b = key // n, key % n
    m = int(a.shape[0])

    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]

    degrees = np.bincount(src, minlength=n).astype(np.int64)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    return Graph(n=n, row_ptr=row_ptr, col_idx=dst, m=m, degrees=degrees)


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Abar = D^{-1/2} A D^{-1/2} as a CSR matrix on the structure of ``g``.

    The stored value for arc (u, v) is 1/sqrt(d_u * d_v). Isolated nodes keep
    empty rows; no self-loop augmentation is applied.
    """
    src = g.arc_sources()
    values = 1.0 / np.sqrt(g.degrees[src].astype(np.float64) * g.degrees[g.col_idx])
    return sp.csr_matrix((values, g.col_idx, g.row_ptr), shape=(g.n, g.n))


def spmm(a: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``a @ x`` for a scipy operator and a dense matrix x.

    scipy's CSR kernel accumulates each row sequentially in stored order,
    which is ascending column index for the graph's matrices, so results
    are deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != a.shape[1]:
        raise ValueError(f"expected dense matrix with {a.shape[1]} rows, got shape {x.shape}")
    return a @ x


def ring_of_cliques(c: int, s: int) -> tuple[Graph, np.ndarray]:
    """c cliques of size s joined in a ring; returns (graph, clique labels).

    Clique i occupies nodes [i*s, (i+1)*s); one ring edge joins its node 0 to
    node 1 of clique (i+1) mod c. n = c*s and m = c*s*(s-1)/2 + c.
    """
    if c < 3:
        raise ValueError(f"need at least 3 cliques, got {c}")
    if s < 3:
        raise ValueError(f"need clique size of at least 3, got {s}")
    edges = []
    for i in range(c):
        base = i * s
        for p in range(s):
            for q in range(p + 1, s):
                edges.append((base + p, base + q))
        edges.append((base, ((i + 1) % c) * s + 1))
    labels = np.repeat(np.arange(c, dtype=np.int64), s)
    return from_edge_list(edges, c * s), labels


def sbm(sizes, p_in: float, p_out: float, seed) -> tuple[Graph, np.ndarray]:
    """Stochastic block model: intra-block edges with prob p_in, inter with p_out.

    Each block pair, in a fixed order, draws a binomial edge count and then
    that many distinct node pairs, so time and memory are O(n + m) and the
    edge set is a deterministic function of the seed.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    starts = np.cumsum([0] + sizes)
    rng = np.random.default_rng(seed)
    parts = []
    for a, size_a in enumerate(sizes):
        for b in range(a, len(sizes)):
            total = size_a * (size_a - 1) // 2 if a == b else size_a * sizes[b]
            count = int(rng.binomial(total, p_in if a == b else p_out))
            idx = rng.choice(total, size=count, replace=False)
            if a == b:
                # pair (i, j), i < j, has row-major index first[i] + j - i - 1
                rows = np.arange(size_a, dtype=np.int64)
                first = rows * size_a - rows * (rows + 1) // 2
                i = np.searchsorted(first, idx, side="right") - 1
                j = idx - first[i] + i + 1
            else:
                i, j = np.divmod(idx, sizes[b])
            parts.append(np.stack([starts[a] + i, starts[b] + j], axis=1))
    return from_edge_list(np.concatenate(parts), int(labels.shape[0])), labels
