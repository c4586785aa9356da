# tests/test_properties.py
"""Property tests over generated graphs; the hypothesis profile is set in conftest.py."""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import both_readers, fd_gradient, fd_scalar, max_rel_err, objective_kw
from pottscluster import (
    FeatureDropout,
    evaluate_objective,
    from_edge_list,
    load_assignment,
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


# Text that numpy's C parser and the row loop might read differently: whitespace
# either strips, numerals only Python reads, values the checks reject, ids
# past int64, characters numpy mistakes for digits, and line-level changes.
SPACES = " \x0b\x0c\xa0\u2003\x1c\x85"
ODD_TOKENS = ["inf", "-inf", "nan", "Infinity", "1e999", "1e-400", "0x1p3", "1.0", "", "x", "-1", "-0", "007",
              "9", str(2**63 - 1), str(2**63), str(10**30), "1\x00", "\u01fe", "\u2460"]
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def perturbed_tsv(draw, rows: list[list[str]]) -> bytes:
    """The rows as a tab-separated file: up to three tokens and three lines altered, any line end, maybe a BOM."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        token = rows[i][j]
        kind = draw(st.sampled_from(["pad", "plus", "underscore", "unicode", "odd"]))
        if kind == "pad":
            token = draw(st.text(SPACES, max_size=2)) + token + draw(st.text(SPACES, min_size=1, max_size=2))
        elif kind == "plus":
            token = "+" + token
        elif kind == "underscore":
            token = token[:1] + "_" + token[1:] if len(token) > 1 and token[1].isdigit() else "1_0"
        elif kind == "unicode":
            token = token.translate(ARABIC_INDIC)
        else:
            token = draw(st.sampled_from(ODD_TOKENS))
        rows[i][j] = token
    lines = ["\t".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["duplicate", "blank", "trailing-tab", "comment"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "duplicate" and lines:
            lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "", " ", "\t", "\x0c"])))
        elif kind == "trailing-tab" and at < len(lines):
            lines[at] += "\t"
        elif kind == "comment":
            lines.insert(at, "#" + "\t".join(rows[0]) if rows else "#")
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if lines and draw(st.booleans()) else "")
    return (draw(st.sampled_from(["", "", "", "\ufeff"])) + text).encode("utf-8")


floats17 = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(1, 5), num_features=st.integers(1, 3), num_classes=st.integers(1, 3),
       target=st.sampled_from(["edges.tsv", "features.tsv", "labels.tsv"]))
def test_array_reader_agrees_with_row_loop(data, n, num_features, num_classes, target):
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=6), label="edges")
    cells = data.draw(st.lists(st.tuples(node, st.integers(0, num_features - 1)), unique=True, max_size=6))
    values = data.draw(st.lists(floats17, min_size=len(cells), max_size=len(cells)), label="values")
    order = data.draw(st.permutations(range(n)), label="label order")
    labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n), label="labels")
    rows = {
        "edges.tsv": [[str(u), str(v)] for u, v in edges],
        "features.tsv": [[str(u), str(f), v] for (u, f), v in zip(cells, values)],
        "labels.tsv": [[str(u), str(labels[u])] for u in order],
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        meta = {"n": n, "num_features": num_features, "num_classes": num_classes}
        (root / "meta.json").write_text(json.dumps(meta))
        for name, file_rows in rows.items():
            if name == target:
                text = data.draw(perturbed_tsv(file_rows), label=name)
            else:
                text = "".join("\t".join(row) + "\n" for row in file_rows).encode()
            (root / name).write_bytes(text)
        first, second = both_readers(load_dataset, root)
    assert first == second


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(0, 6))
def test_assignment_readers_agree(data, n):
    ids = st.one_of(st.integers(0, 5), st.sampled_from([10**12, 2**63 - 1, 2**63, 10**30]))
    clusters = data.draw(st.lists(ids, min_size=n, max_size=n), label="clusters")
    order = data.draw(st.permutations(range(n)), label="order")
    text = data.draw(perturbed_tsv([[str(u), str(clusters[u])] for u in order]), label="a.tsv")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.tsv"
        path.write_bytes(text)
        first, second = both_readers(load_assignment, path, n)
    assert first == second


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
@example(n=4, l=50, density=0.3, seed=1, keep=0.5)
@example(n=4, l=50, density=0.3, seed=1, keep=1.0 - 2.0**-53)
@example(n=4, l=50, density=0.3, seed=1, keep=0.1)
@example(n=4, l=50, density=0.3, seed=1, keep=0.9)
@example(n=4, l=50, density=0.3, seed=1, keep=3.0e-17)
def test_skip_ahead_dropout_matches_dense_draw(n, l, density, seed, keep):
    x = sp.random(n, l, density=density, format="csr", random_state=np.random.default_rng(seed))
    x.data += 1.0  # every stored value nonzero, so the values show the mask
    ref = np.random.default_rng([seed, 1])
    dropout = FeatureDropout(x, keep, [seed, 1])
    for _ in range(3):
        dropped = dropout.draw()
        expected = x.copy()
        expected.data = x.data * ((ref.random(x.nnz) < keep) / keep)
        expected = expected.toarray()
        assert np.array_equal(dropped.toarray(), expected)
        assert np.array_equal(dropout.dropped_t.toarray(), expected.T)
        assert dropped.nnz == np.count_nonzero(expected)  # the dropped entries are not stored
