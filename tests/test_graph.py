# tests/test_graph.py
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import dense_adjacency, random_edge_list
from pottscluster import from_edge_list, normalized_adjacency, ring_of_cliques, sbm, spmm
from pottscluster.graph import matmul_into


def check_csr_invariants(g):
    assert g.row_ptr[0] == 0 and g.row_ptr[-1] == len(g.col_idx)
    assert int(g.degrees.sum()) == 2 * g.m
    a = dense_adjacency(g)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    for u in range(g.n):
        row = g.col_idx[g.row_ptr[u]:g.row_ptr[u + 1]]
        assert np.all(np.diff(row) > 0)  # sorted, duplicate-free
        assert g.degrees[u] == row.size


class TestFromEdgeList:
    def test_single_edge(self):
        g = from_edge_list([(0, 1)], 2)
        assert g.m == 1
        assert g.degrees.tolist() == [1, 1]

    def test_duplicate_and_self_loop_dropped(self):
        g = from_edge_list([(0, 1), (1, 0), (2, 2)], 3)
        assert g.m == 1
        assert g.degrees.tolist() == [1, 1, 0]

    def test_triangle(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        assert g.m == 3
        assert g.degrees.tolist() == [2, 2, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            from_edge_list([(0, 3)], 3)
        with pytest.raises(ValueError, match="out of bounds"):
            from_edge_list([(-1, 0)], 3)
        with pytest.raises(ValueError, match="node count must be nonnegative, got -1"):
            from_edge_list([], -1)

    def test_uint64_edge_message_names_the_real_id(self):
        # the range check runs before the int64 cast, which would print -2**63
        with pytest.raises(ValueError, match=r"^edge \(0,9223372036854775808\) out of bounds for n=3$"):
            from_edge_list(np.array([[0, 2**63]], dtype=np.uint64), 3)

    @pytest.mark.parametrize("big", [2**63, 2**64], ids=["2**63", "2**64"])
    def test_list_ids_past_int64_keep_their_value(self, big):
        # np.asarray alone makes [(0, 2**63)] float64 and [(0, 2**64)] object
        with pytest.raises(ValueError, match=rf"^edge \(0,{big}\) out of bounds for n=3$"):
            from_edge_list([(0, big)], 3)

    def test_empty_graph(self):
        g = from_edge_list([], 3)
        assert g.m == 0
        assert g.degrees.tolist() == [0, 0, 0]

    @pytest.mark.parametrize(
        "edges", [[(0, 1.7)], np.array([[0.0, 2.9]]), [("0", "1")]], ids=["float", "float-array", "str"]
    )
    def test_non_integer_ids_rejected(self, edges):
        with pytest.raises(ValueError, match="must be integers"):
            from_edge_list(edges, 3)

    def test_integer_inputs_build_same_graph(self):
        empty = [from_edge_list(e, 3) for e in ([], np.empty((0, 2), dtype=np.int64))]
        assert all(g.m == 0 and g.degrees.tolist() == [0, 0, 0] for g in empty)
        pairs = [(0, 1), (2, 1), (1, 0)]
        built = [from_edge_list(e, 3) for e in (pairs, np.array(pairs, dtype=np.int64),
                                                 np.array(pairs, dtype=np.int32))]
        for g in built:
            assert g.m == 2 and g.degrees.tolist() == [1, 2, 1]
            assert g.col_idx.tolist() == built[0].col_idx.tolist()
            assert g.row_ptr.tolist() == built[0].row_ptr.tolist()

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            g = from_edge_list(random_edge_list(rng, n, 0.3), n)
            check_csr_invariants(g)


class TestAdjacencyMatrices:
    def test_adj_is_unit_csr_on_graph_arrays(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        assert sp.isspmatrix_csr(g.adj)
        assert g.adj.indptr is g.row_ptr and g.adj.indices is g.col_idx
        assert np.array_equal(g.adj.toarray(), dense_adjacency(g))

    def test_normalized_shares_graph_structure(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], 5)
        ab = normalized_adjacency(g)
        assert sp.isspmatrix_csr(ab) and ab.shape == (5, 5)
        assert np.array_equal(ab.indptr, g.row_ptr)
        assert np.array_equal(ab.indices, g.col_idx)

    def test_edit_of_a_sharing_operator_fails_and_leaves_graph(self):
        g, _ = ring_of_cliques(4, 3)
        arrays = (g.row_ptr, g.col_idx, g.degrees, g.adj.data, g.float_degrees)
        before = [a.copy() for a in arrays]
        ab = normalized_adjacency(g)
        ab.data[:2] = 0.0
        with pytest.raises(ValueError):
            ab.eliminate_zeros()  # would compact the index arrays g shares
        assert all(not a.flags.writeable and np.array_equal(a, b) for a, b in zip(arrays, before))


class TestNormalizedAdjacency:
    def test_single_edge_values(self):
        ab = normalized_adjacency(from_edge_list([(0, 1)], 2))
        assert np.allclose(ab.data, [1.0, 1.0])

    def test_triangle_values(self):
        ab = normalized_adjacency(from_edge_list([(0, 1), (1, 2), (2, 0)], 3))
        assert ab.data.size == 6
        assert np.allclose(ab.data, 0.5)

    def test_star_values(self):
        g = from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
        ab = normalized_adjacency(g)
        assert np.allclose(ab.data, 0.5)  # 1/sqrt(4*1)

    def test_entrywise_formula_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 100))
            g = from_edge_list(random_edge_list(rng, n, 0.1), n)
            ab = normalized_adjacency(g)
            src = g.arc_sources()
            expected = 1.0 / np.sqrt(g.degrees[src] * g.degrees[g.col_idx])
            assert np.allclose(ab.data, expected, rtol=0, atol=0)

    def test_isolated_nodes_keep_empty_rows(self):
        g = from_edge_list([(0, 1)], 4)
        ab = normalized_adjacency(g)
        assert ab.indptr[2] == ab.indptr[3] == ab.indptr[4]
        assert np.all((ab.data > 0) & (ab.data <= 1))


class TestSpmm:
    def test_edgeless_gives_zero(self):
        g = from_edge_list([], 3)
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(spmm(g.adj, x), np.zeros((3, 2)))

    def test_single_edge_swaps(self):
        g = from_edge_list([(0, 1)], 2)
        assert spmm(g.adj, np.array([[1.0], [2.0]])).tolist() == [[2.0], [1.0]]

    def test_triangle_row_sums(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        assert spmm(g.adj, np.ones((3, 1))).tolist() == [[2.0], [2.0], [2.0]]

    def test_dimension_mismatch(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError):
            spmm(g.adj, np.ones((3, 1)))
        with pytest.raises(ValueError):
            spmm(normalized_adjacency(g), np.ones(2))

    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            g = from_edge_list(random_edge_list(rng, n, 0.2), n)
            x = rng.standard_normal((n, 4))
            assert np.allclose(spmm(g.adj, x), dense_adjacency(g) @ x, atol=1e-12)
            ab = normalized_adjacency(g)
            dense_ab = np.zeros((n, n))
            src = g.arc_sources()
            dense_ab[src, g.col_idx] = ab.data
            assert np.allclose(spmm(ab, x), dense_ab @ x, atol=1e-12)

    def test_out_is_written_and_returned(self):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        x = np.arange(6.0).reshape(3, 2)
        out = np.full((3, 2), np.nan)
        assert spmm(g.adj, x, out=out) is out
        assert np.array_equal(out, g.adj @ x)

    def test_basis_vectors_reproduce_columns(self):
        rng = np.random.default_rng(5)
        n = 17
        g = from_edge_list(random_edge_list(rng, n, 0.25), n)
        a = dense_adjacency(g)
        for j in range(n):
            e_j = np.zeros((n, 1))
            e_j[j, 0] = 1.0
            assert np.array_equal(spmm(g.adj, e_j)[:, 0], a[:, j])


class TestRingOfCliques:
    def test_3_3(self):
        g, labels = ring_of_cliques(3, 3)
        assert g.n == 9 and g.m == 12
        assert labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        check_csr_invariants(g)

    def test_10_5(self):
        g, _ = ring_of_cliques(10, 5)
        assert g.n == 50 and g.m == 110

    def test_count_formula_sweep(self):
        for c in range(3, 9):
            for s in range(3, 9):
                g, labels = ring_of_cliques(c, s)
                assert g.n == c * s
                assert g.m == c * s * (s - 1) // 2 + c
                assert labels.tolist() == [i // s for i in range(c * s)]

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            ring_of_cliques(2, 3)
        with pytest.raises(ValueError):
            ring_of_cliques(3, 2)


class TestSbm:
    def test_extreme_two_k4(self):
        g, labels = sbm([4, 4], 1.0, 0.0, 0)
        assert g.m == 12
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        a = dense_adjacency(g)
        assert np.all(a[:4, 4:] == 0)

    def test_single_block_complete(self):
        g, _ = sbm([3], 1.0, 0.0, 42)
        assert g.m == 3

    def test_determinism(self):
        g1, _ = sbm([50, 50], 0.5, 0.05, 9)
        g2, _ = sbm([50, 50], 0.5, 0.05, 9)
        assert np.array_equal(g1.col_idx, g2.col_idx)
        assert np.array_equal(g1.row_ptr, g2.row_ptr)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            sbm([4, 4], 0.2, 0.5, 0)  # p_out > p_in
        with pytest.raises(ValueError):
            sbm([4, 4], 1.5, 0.0, 0)
        with pytest.raises(ValueError):
            sbm([0, 4], 1.0, 0.0, 0)

    def test_within_block_pairs_all_present_at_p_in_one(self):
        g, labels = sbm([5, 1, 7], 1.0, 0.3, 4)
        a = dense_adjacency(g)
        same = labels[:, None] == labels[None, :]
        assert np.all(a[same & ~np.eye(g.n, dtype=bool)] == 1)
        check_csr_invariants(g)

    def test_edge_count_matches_expectation(self):
        sizes, p_in, p_out = [200, 200], 0.1, 0.01
        intra, inter = 2 * 200 * 199 // 2, 200 * 200
        mean = intra * p_in + inter * p_out
        sd = np.sqrt(intra * p_in * (1 - p_in) + inter * p_out * (1 - p_out))
        for seed in range(3):
            g, labels = sbm(sizes, p_in, p_out, seed)
            assert abs(g.m - mean) < 5 * sd
            check_csr_invariants(g)

    def test_memory_is_linear_in_edges(self):
        # scanning all n(n-1)/2 candidate pairs peaks near 260 MB at n=4000
        tracemalloc.start()
        try:
            g, _ = sbm([2000, 2000], 0.01, 0.001, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m > 0
        assert peak < 32 * 2**20


def product_cases():
    """(name, operator, dense operand) pairs covering the layouts the kernels see."""
    rng = np.random.default_rng(8)
    a = sp.random(40, 30, density=0.2, format="csr", random_state=rng)
    a.data = rng.standard_normal(a.nnz)
    wide = rng.standard_normal((30, 12))
    wide_int64 = a.copy()
    wide_int64.indices = a.indices.astype(np.int64)
    wide_int64.indptr = a.indptr.astype(np.int64)
    return [
        ("csr", a, wide),
        ("csr one column", a, wide[:, 3:4]),
        ("csc transpose view", a.T, rng.standard_normal((40, 5))),
        ("csc one column", a.T, rng.standard_normal((40, 1))),
        ("int64 indices", wide_int64, wide),
        ("non-contiguous x", a, wide[:, ::3]),
        ("fortran-order x", a, np.asfortranarray(wide)),
        ("no stored entries", sp.csr_matrix((40, 30)), wide),
        ("no rows", sp.csr_matrix((0, 30)), wide),
        ("dense", a.toarray(), wide),
        ("coo falls back", a.tocoo(), wide),
    ]


@pytest.mark.parametrize("name, a, x", product_cases(), ids=[c[0] for c in product_cases()])
def test_products_into_out_equal_scipy_bit_for_bit(name, a, x):
    expected = a @ x
    out = np.full(expected.shape, np.nan)  # stale contents must not leak into the result
    assert matmul_into(a, x, out) is out
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    if sp.issparse(a):
        out2 = np.full(expected.shape, np.nan)
        assert spmm(a, x, out=out2) is out2
        assert np.array_equal(out2.view(np.int64), expected.view(np.int64))
        assert np.array_equal(spmm(a, x).view(np.int64), expected.view(np.int64))


def test_product_shape_mismatch_rejected_before_the_kernel():
    a = sp.random(5, 4, density=0.5, format="csr", random_state=np.random.default_rng(0))
    with pytest.raises(ValueError):
        matmul_into(a, np.ones((4, 3)), np.empty((5, 2)))
    with pytest.raises(ValueError):
        matmul_into(a, np.ones((3, 3)), np.empty((5, 3)))
    with pytest.raises(ValueError):
        matmul_into(a, np.ones(4), np.empty((5, 1)))
    square, x = sp.identity(4, format="csr"), np.ones((4, 2))
    with pytest.raises(ValueError, match="apart from x"):  # zeroing out would erase x first
        spmm(square, x, out=x)


@pytest.mark.parametrize("x", [np.float64(1.0), np.ones(4)], ids=["0-d", "1-d"])
def test_operand_without_columns_is_a_value_error(x):
    # matmul_into checks the dimension before it reads a column count
    a = sp.random(5, 4, density=0.5, format="csr", random_state=np.random.default_rng(0))
    with pytest.raises(ValueError, match="cannot write"):
        spmm(a, x)
    with pytest.raises(ValueError, match="cannot write"):
        matmul_into(a, x, np.empty((5, 1)))
