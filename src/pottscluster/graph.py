# pottscluster/graph.py
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "Graph",
    "from_edge_list",
    "normalized_adjacency",
    "spmm",
    "ring_of_cliques",
    "sbm",
]

_MATVECS = {"csr": _sparsetools.csr_matvecs, "csc": _sparsetools.csc_matvecs}  # matmul_into's kernel per format


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in CSR form; ``adj`` is its unit-weight adjacency.

    ``row_ptr`` and ``col_idx`` are ``adj.indptr`` and ``adj.indices``, in
    scipy's index dtype (int32 below 2**31 arcs). Every edge is stored in
    both directions, so ``len(col_idx) == 2*m``. Each row's column indices
    are sorted ascending, free of duplicates and self-loops, and
    ``degrees[i]`` is the row's length. Instances are immutable, their
    arrays read-only, and safe to share across threads.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    m: int
    degrees: np.ndarray
    adj: sp.csr_matrix

    @cached_property
    def float_degrees(self) -> np.ndarray:  # ``degrees`` in ``adj``'s float dtype, converted once
        degrees = self.degrees.astype(self.adj.dtype)
        degrees.flags.writeable = False
        return degrees

    def arc_sources(self) -> np.ndarray:
        """Source node of every stored arc (row index expanded along row_ptr)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)


def check_ids(ids, what: str, n: int | None = None) -> np.ndarray:
    """``ids`` as an array, checked to be integers, shaped (n,) if n is given, and non-negative.

    Float, string and bool ids are rejected, and nothing is cast, so uint64
    ids past the int64 range keep their value. A list of Python ints that no
    integer dtype holds, such as ``[0, 2**63]``, is kept as an object array
    of those ints, so each keeps its value.
    """
    arr = np.asarray(ids)
    integral = np.issubdtype(arr.dtype, np.integer)
    if arr.size and not integral and not isinstance(ids, np.ndarray):  # a list holding ints past int64
        exact = np.array(ids, dtype=object)
        integral = all(type(v) is int for v in exact.flat)
        arr = exact if integral else arr
    if arr.size and not integral:
        raise ValueError(f"{what} must be integers, got {arr.dtype} values")
    if n is not None and arr.shape != (n,):
        raise ValueError(f"{what} shape {arr.shape} does not match n={n}")
    if arr.size and arr.min() < 0:
        raise ValueError(f"{what} out of bounds: {arr.min()} is negative")
    return arr


def from_edge_list(edges, n: int) -> Graph:
    """Build a Graph from (u, v) pairs, an (m, 2) array or a list of m pairs.

    Node ids are checked by check_ids, then against n. Self-loops are
    dropped and duplicate edges, in either orientation, collapse to a
    single undirected edge.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    arr = check_ids(list(edges) if not isinstance(edges, np.ndarray) else edges, "node ids")
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ValueError(f"edges must be (u, v) pairs, shape (m, 2), got shape {arr.shape}")
    arr = arr.reshape(-1, 2)  # [] is the edgeless graph
    if arr.size and arr.max() >= n:
        bad = arr[(arr >= n).any(axis=1)][0]
        raise ValueError(f"edge ({bad[0]},{bad[1]}) out of bounds for n={n}")
    arr = arr.astype(np.int64)

    u, v = arr[arr[:, 0] != arr[:, 1]].T
    arcs = np.concatenate([u, v]), np.concatenate([v, u])
    # the COO -> CSR conversion sums repeated arcs and sorts each row
    adj = sp.csr_matrix((np.ones(2 * u.size), arcs), shape=(n, n))
    adj.data[:] = 1.0
    degrees = np.diff(adj.indptr)
    for shared in (adj.indptr, adj.indices, adj.data, degrees):
        shared.flags.writeable = False  # operators such as normalized_adjacency(g) share them
    return Graph(adj.shape[0], adj.indptr, adj.indices, adj.nnz // 2, degrees, adj)  # a Python int for any integer n


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Abar = D^{-1/2} A D^{-1/2} as a CSR matrix sharing the index arrays of ``g``.

    The stored value for arc (u, v) is 1/sqrt(d_u * d_v). Isolated nodes keep
    empty rows; no self-loop augmentation is applied.
    """
    src = g.arc_sources()
    values = 1.0 / np.sqrt(g.float_degrees[src] * g.float_degrees[g.col_idx])
    return sp.csr_matrix((values, g.col_idx, g.row_ptr), shape=(g.n, g.n))


def matmul_into(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``a @ x`` into ``out`` and return it, bit for bit what ``a @ x`` gives.

    A CSR or CSC ``a`` whose values share one float dtype, float32 or
    float64, with ``x`` and ``out`` runs scipy's multi-vector kernel in that
    dtype, for any column count, on the zeroed ``out``; any other operand
    is computed as ``a @ x`` and copied.
    """
    m, n = a.shape
    if x.ndim != 2 or x.shape[0] != n or out.shape != (m, x.shape[1]) or np.may_share_memory(x, out):
        raise ValueError(f"cannot write {a.shape} @ {x.shape} into {out.shape}: need x ({n}, k), out ({m}, k), apart from x")
    kernel = _MATVECS.get(a.format) if sp.issparse(a) else None
    if kernel is None or not (out.flags.c_contiguous and a.dtype == x.dtype == out.dtype in (np.float32, np.float64)):
        out[...] = a @ x
        return out
    out.fill(0.0)
    kernel(m, n, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel())
    return out


def spmm(a: sp.spmatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sparse-dense product ``a @ x`` for a scipy operator and a dense matrix x.

    scipy's CSR kernel accumulates each row sequentially in stored order,
    which is ascending column index for the graph's matrices, so results
    are deterministic. The product goes into ``out`` when given and
    otherwise into a new array of the operands' result dtype (float32 for
    float32 operands; x is not converted); matmul_into checks the operands.
    """
    x = np.asarray(x)
    if out is None:
        out = np.empty(a.shape[:1] + x.shape[1:], dtype=np.result_type(a.dtype, x.dtype))
    return matmul_into(a, x, out)


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
    sizes = list(sizes)
    if not sizes or any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive integers, got {sizes}")  # nothing is cast, as in check_ids
    sizes = [int(s) for s in sizes]
    if sum(sizes) > np.iinfo(np.int64).max:
        raise ValueError(f"block sizes {sizes} total {sum(sizes)} nodes, past the int64 range")
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
