# tests/test_properties.py
"""Property tests over generated graphs; the hypothesis profile is set in conftest.py."""
from __future__ import annotations

import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import fd_gradient, fd_scalar, max_rel_err, objective_kw
from pottscluster import (
    FeatureDropout,
    evaluate_objective,
    from_edge_list,
    load_dataset,
    normalized_adjacency,
    potts_loss,
    save_dataset,
)


@st.composite
def raw_graphs(draw, min_n=1, max_n=10):
    """(n, edge list) with self-loops, duplicates in both orientations, and often isolated nodes."""
    n = draw(st.integers(min_n, max_n))
    node = st.integers(0, max(n - 1, 0))  # unused at n = 0, where max_size is 0
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, edges


@st.composite
def graphs_with_edges(draw, max_n=8):
    """A graph with at least one edge, plus possibly isolated nodes."""
    n, edges = draw(raw_graphs(min_n=2, max_n=max_n))
    return from_edge_list(edges + [(0, 1)], n)


def row_stochastic(seed: int, n: int, k: int) -> np.ndarray:
    """Softmax of normal logits: every entry positive, rows summing to 1."""
    logits = np.random.default_rng(seed).standard_normal((n, k))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def edge_set(edges) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges if u != v}


@given(graph=raw_graphs(min_n=0))
@example(graph=(0, []))
def test_from_edge_list_matches_brute_force(graph):
    n, edges = graph
    pairs = edge_set(edges)
    rows = [sorted(b if a == u else a for a, b in pairs if u in (a, b)) for u in range(n)]
    g = from_edge_list(edges, n)
    assert g.n == n and g.m == len(pairs)
    assert g.degrees.tolist() == [len(row) for row in rows]
    assert g.row_ptr.tolist() == np.cumsum([0] + [len(row) for row in rows]).tolist()
    assert g.col_idx.tolist() == [v for row in rows for v in row]
    # one set of index arrays: the graph's, its adjacency's and Abar's
    assert (g.adj.data == 1.0).all() and g.adj.shape == (n, n)
    assert g.adj.indptr is g.row_ptr and g.adj.indices is g.col_idx
    abar = normalized_adjacency(g)
    assert np.shares_memory(abar.indptr, g.row_ptr)
    assert g.m == 0 or np.shares_memory(abar.indices, g.col_idx)  # empty arrays share nothing


values = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@given(data=st.data(), graph=raw_graphs(), with_labels=st.booleans())
def test_save_load_round_trip(data, graph, with_labels):
    n, edges = graph
    g = from_edge_list(edges, n)
    width = data.draw(st.integers(1, 4))
    x = np.array(data.draw(st.lists(values, min_size=n * width, max_size=n * width)))
    x = x.reshape(n, width)
    labels = None
    if with_labels:
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    with tempfile.TemporaryDirectory() as root:
        save_dataset(root, g, x, labels)
        g2, x2, labels2 = load_dataset(root)
    assert g2.n == n and g2.m == len(edge_set(edges))
    assert np.array_equal(g2.row_ptr, g.row_ptr) and np.array_equal(g2.col_idx, g.col_idx)
    src = np.repeat(np.arange(n), np.diff(g2.row_ptr))
    assert edge_set(zip(src.tolist(), g2.col_idx.tolist())) == edge_set(edges)
    assert x2.shape == (n, width) and np.array_equal(x2.toarray(), x)  # .17g round-trips every double
    assert x2.has_canonical_format and not (x2.data == 0).any()
    if with_labels:
        assert np.array_equal(labels2, labels)
    else:
        assert labels2 is None


@pytest.mark.parametrize("kind", ["potts", "dmon", "mincut_ortho"])
@given(data=st.data(), g=graphs_with_edges(), seed=st.integers(0, 2**32 - 1))
def test_objective_gradients_match_fd(kind, data, g, seed):
    k = data.draw(st.integers(2, g.n + 3), label="k")  # up to k > n
    gamma = data.draw(st.floats(0.0, 4.5), label="gamma")  # away from the kink at gamma_max=5
    c = row_stochastic(seed, g.n, k)
    kw = objective_kw()
    _, d_c, d_gamma = evaluate_objective(g, c, gamma, kind, **kw)
    fd = fd_gradient(lambda t: evaluate_objective(g, t, gamma, kind, **kw)[0].total, c)
    assert max_rel_err(d_c, fd) <= 1e-5
    fd_g = fd_scalar(lambda v: evaluate_objective(g, c, v, kind, **kw)[0].total, gamma)
    assert d_gamma == pytest.approx(fd_g, abs=1e-7)


@given(data=st.data(), g=graphs_with_edges(), seed=st.integers(0, 2**32 - 1))
def test_potts_gamma_gradient_is_sum_of_squared_volume_shares(data, g, seed):
    k = data.draw(st.integers(2, g.n + 3), label="k")
    c = row_stochastic(seed, g.n, k)
    _, _, d_gamma = potts_loss(g, c, 1.0)
    shares = (g.degrees @ c) / (2.0 * g.m)  # p_c = vol_c / 2m, summing to 1
    assert d_gamma == pytest.approx(float(np.sum(shares**2)), rel=1e-12)
    # Cauchy-Schwarz: sum p_c^2 >= (sum p_c)^2 / k = 1/k, so below gamma_max the
    # full objective's dL/dgamma is at least 1/k - w_gamma and descent lowers gamma
    assert d_gamma >= (1.0 - 1e-12) / k
    kw = objective_kw()
    _, _, d_total = evaluate_objective(g, c, 1.0, "potts", **kw)
    assert d_total >= (1.0 - 1e-12) / k - kw["w_gamma"]


@given(
    n=st.integers(1, 12),
    l=st.integers(1, 300),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    keep=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
# keep * 2^53 is an integer at 0.5 and at the largest double below 1, not at the others
@example(n=4, l=50, density=0.3, seed=1, keep=0.5)
@example(n=4, l=50, density=0.3, seed=1, keep=1.0 - 2.0**-53)
@example(n=4, l=50, density=0.3, seed=1, keep=0.1)
@example(n=4, l=50, density=0.3, seed=1, keep=0.9)
@example(n=4, l=50, density=0.3, seed=1, keep=3.0e-17)
def test_skip_ahead_dropout_matches_dense_draw(n, l, density, seed, keep):
    x = sp.random(n, l, density=density, format="csr", random_state=np.random.default_rng(seed))
    x.data += 1.0  # every stored value nonzero, so the values show the mask
    stored = np.repeat(np.arange(n), np.diff(x.indptr)) * l + x.indices
    ref = np.random.default_rng([seed, 1])
    dropout = FeatureDropout(x, keep, [seed, 1])
    for _ in range(3):
        dropped = dropout.draw()
        mask = ref.random((n, l)).take(stored) < keep
        assert np.array_equal(dropped.data != 0, mask)
        assert np.array_equal(dropped.data, x.data * (mask.astype(np.float64) / keep))
    assert dropout.state == ref.bit_generator.state["state"]["state"]
