# tests/test_dataset_cli.py
from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import both_readers
from pottscluster import (
    DatasetFormatError,
    from_edge_list,
    load_assignment,
    load_dataset,
    ring_of_cliques,
    save_dataset,
)
from pottscluster import cli, dataset, trainer
from pottscluster.cli import main
from pottscluster.dataset import adjacency_features, one_hot_degree_features


def write_minimal(root, labels=True):
    root.mkdir(parents=True, exist_ok=True)
    (root / "meta.json").write_text('{"n": 2, "num_features": 1, "num_classes": 2}\n')
    (root / "edges.tsv").write_text("0\t1\n")
    (root / "features.tsv").write_text("0\t0\t1.5\n1\t0\t-2\n")
    if labels:
        (root / "labels.tsv").write_text("0\t0\n1\t1\n")


class TestLoadDataset:
    def test_minimal_roundtrip(self, tmp_path):
        write_minimal(tmp_path / "d")
        g, x, labels = load_dataset(tmp_path / "d")
        assert g.n == 2 and g.m == 1
        assert sp.isspmatrix_csr(x) and x.has_canonical_format
        assert x.toarray().tolist() == [[1.5], [-2.0]]
        assert labels.tolist() == [0, 1]

    def test_features_out_of_order_give_canonical_csr(self, tmp_path):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_text('{"n": 2, "num_features": 3, "num_classes": 2}\n')
        (tmp_path / "d" / "features.tsv").write_text("1\t2\t4\n0\t2\t-1\n1\t0\t0.5\n0\t1\t2\n")
        _, x, _ = load_dataset(tmp_path / "d")
        assert sp.isspmatrix_csr(x) and x.has_canonical_format
        assert x.toarray().tolist() == [[0.0, 2.0, -1.0], [0.5, 0.0, 4.0]]

    def test_labels_optional(self, tmp_path):
        write_minimal(tmp_path / "d", labels=False)
        _, _, labels = load_dataset(tmp_path / "d")
        assert labels is None

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not found"):
            load_dataset(tmp_path / "nope")

    def test_missing_required_file(self, tmp_path):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "features.tsv").unlink()
        with pytest.raises(DatasetFormatError, match="features.tsv"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "meta, msg",
        [
            ("not json", "invalid JSON"),
            ("[1]", "object"),
            ('{"n": 2, "num_features": 1}', "num_classes"),
            ('{"n": 2.5, "num_features": 1, "num_classes": 1}', "integer"),
            ('{"n": true, "num_features": 1, "num_classes": 1}', "integer"),
            ('{"n": 0, "num_features": 1, "num_classes": 1}', "positive"),
            ('{"n": 2, "num_features": 0, "num_classes": 1}', "positive"),
            ('{"n": 2, "num_features": 1, "num_classes": -1}', "non-negative"),
        ],
    )
    def test_meta_errors(self, tmp_path, meta, msg):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_text(meta)
        with pytest.raises(DatasetFormatError, match=msg):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "line, msg",
        [
            ("0 1", "edges.tsv:2: expected 2"),
            ("0\t1\t2", "edges.tsv:2: expected 2"),
            ("0\tx", "edges.tsv:2: .*not an integer"),
            ("0\t5", r"edges.tsv:2: edge \(0,5\) out of range"),
        ],
    )
    def test_edge_errors_cite_line_numbers(self, tmp_path, line, msg):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "edges.tsv").write_text(f"0\t1\n{line}\n")
        with pytest.raises(DatasetFormatError, match=msg):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "content, msg",
        [
            ("0\t0\t1\n0\t0\t2\n", "features.tsv:2: duplicate"),
            ("0\t9\t1\n", "feature index 9 out of range"),
            ("9\t0\t1\n", "node id 9 out of range"),
            ("0\t0\tabc\n", "not a number"),
            ("0\t0\tinf\n", "not finite"),
            ("0\t0\tnan\n", "not finite"),
            (b"0\t0\t1\n1\t0\t\xff\n", "cannot read .*features.tsv"),
        ],
    )
    def test_feature_errors(self, tmp_path, content, msg):
        write_minimal(tmp_path / "d")
        path = tmp_path / "d" / "features.tsv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(DatasetFormatError, match=msg):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "content, msg",
        [
            ("0\t0\n0\t1\n1\t0\n", "duplicate entry for node 0"),
            ("0\t0\n1\t5\n", "label 5 out of range"),
            ("0\t0\n", "no label for node 1"),
        ],
    )
    def test_label_errors(self, tmp_path, content, msg):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "labels.tsv").write_text(content)
        with pytest.raises(DatasetFormatError, match=msg):
            load_dataset(tmp_path / "d")

    def test_non_utf8_meta(self, tmp_path):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_bytes(b'{"n": 2, "num_features": 1, "num_classes": 2}\xff')
        with pytest.raises(DatasetFormatError, match="cannot read .*meta.json"):
            load_dataset(tmp_path / "d")

    def test_labels_need_positive_num_classes(self, tmp_path):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_text('{"n": 2, "num_features": 1, "num_classes": 0}')
        with pytest.raises(DatasetFormatError, match="num_classes must be positive"):
            load_dataset(tmp_path / "d")

    def test_blank_lines_tolerated(self, tmp_path):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "edges.tsv").write_text("\n0\t1\n\n")
        g, _, _ = load_dataset(tmp_path / "d")
        assert g.m == 1

    def test_duplicate_edges_tolerated(self, tmp_path):
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "edges.tsv").write_text("0\t1\n1\t0\n0\t1\n")
        g, _, _ = load_dataset(tmp_path / "d")
        assert g.m == 1

    @pytest.mark.parametrize("key", ["n", "num_features", "num_classes"])
    def test_meta_count_past_int64(self, tmp_path, key):
        write_minimal(tmp_path / "d")
        meta = {"n": 2, "num_features": 1, "num_classes": 2, key: 10**19}
        (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match=rf"^meta.json: {key} must be at most 2\*\*63 - 1, got 10{{19}}$"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("n", [2**60, 2**62, 2**63 - 1])
    def test_meta_n_past_the_address_space(self, tmp_path, n):
        # numpy refuses n + 1 int64 entries before it allocates anything
        write_minimal(tmp_path / "d")
        (tmp_path / "d" / "meta.json").write_text(json.dumps({"n": n, "num_features": 1, "num_classes": 0}))
        with pytest.raises(DatasetFormatError, match=rf"^meta.json: n={n} is too large: "):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("step", ["from_edge_list", "_read_features", "_read_labels"])
    def test_unallocatable_n_is_a_format_error(self, tmp_path, monkeypatch, step):
        # a count within int64 can still ask for more memory than there is
        write_minimal(tmp_path / "d")
        monkeypatch.setattr(dataset, step, out_of_memory)
        with pytest.raises(DatasetFormatError, match=r"^out of memory loading the dataset \(n=2 nodes\)$"):
            load_dataset(tmp_path / "d")


def out_of_memory(*args, **kwargs):
    """Stands in for an allocation the machine cannot make; no test asks for that memory."""
    raise MemoryError


@contextmanager
def piped(content: bytes):
    """A /dev/fd path to the read end of a pipe holding ``content``, as ``<(cat file)`` gives."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(content)
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


def refuse_row_loop(path, *args):
    raise AssertionError(f"{path.name} fell back to the row loop")


def snapshot(loaded):
    """Every array load_dataset returns, with its dtype, as comparable bytes."""
    g, x, labels = loaded
    arrays = (g.row_ptr, g.col_idx, g.degrees, g.adj.data, x.indptr, x.indices, x.data, labels)
    return (g.n, g.m, x.shape, x.has_canonical_format,
            [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays])


class TestArrayReader:
    """The C-parser path of the loader: what it reads itself, and that it matches the row loop."""

    @pytest.mark.parametrize("content", ["", "\n\n", "\r\n\n\r"], ids=["empty", "blank", "blank-crlf"])
    def test_empty_files_load_as_the_row_loop_reads_them(self, tmp_path, monkeypatch, content):
        root = tmp_path / "d"
        write_minimal(root)
        for name in ("edges.tsv", "features.tsv", "labels.tsv"):
            (root / name).write_bytes(content.encode())
        (root / "labels.tsv").unlink()
        assign = tmp_path / "a.tsv"
        assign.write_bytes(content.encode())
        with monkeypatch.context() as patch:  # empty files are read without the row loop
            patch.setattr(dataset, "_iter_rows", refuse_row_loop)
            g, x, labels = loaded = load_dataset(root)
            empty = load_assignment(assign, 0)
        assert g.m == 0 and g.row_ptr.tolist() == [0, 0, 0] and labels is None
        assert x.shape == (2, 1) and x.nnz == 0 and x.has_canonical_format
        assert empty.dtype == np.int64 and empty.shape == (0,)
        (root / "labels.tsv").write_bytes(content.encode())
        with pytest.raises(DatasetFormatError, match="^labels.tsv: no label for node 0$"):
            load_dataset(root)
        with pytest.raises(DatasetFormatError, match="^a.tsv: no cluster id for node 0$"):
            load_assignment(assign, 2)
        (root / "labels.tsv").unlink()
        monkeypatch.setattr(dataset, "_read_table", lambda *args: None)
        assert snapshot(load_dataset(root)) == snapshot(loaded)
        assert load_assignment(assign, 0).dtype == np.int64

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_canonical_files_never_fall_back(self, tmp_path, monkeypatch, line_end):
        # the row loop would give the same arrays, only slower: no other test sees a fallback
        g, labels = ring_of_cliques(4, 3)
        x = adjacency_features(g)
        x.data = np.random.default_rng(0).standard_normal(x.nnz)  # 17 significant digits on disk
        root = tmp_path / "d"
        save_dataset(root, g, x, labels)
        assign = tmp_path / "assignment.tsv"  # gapped cluster ids 0, 5, 10, 15
        assign.write_text("".join(f"{i}\t{c}\n" for i, c in enumerate(labels[::-1] * 5)))
        for path in (root / "edges.tsv", root / "features.tsv", root / "labels.tsv", assign):
            path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "_read_table", lambda *args: None)
            expected = snapshot(load_dataset(root))
        monkeypatch.setattr(dataset, "_iter_rows", refuse_row_loop)
        g2, x2, labels2 = loaded = load_dataset(root)
        assert snapshot(loaded) == expected
        assert np.array_equal(g2.col_idx, g.col_idx) and np.array_equal(x2.toarray(), x.toarray())
        assert labels2.dtype == np.int64 and np.array_equal(labels2, labels)
        pred = load_assignment(assign, g.n)
        assert pred.dtype == np.int64 and pred.tolist() == labels[::-1].tolist()

    @pytest.mark.parametrize(
        "content",
        ["0\t1\n#0\t1\n", "0\t1\n1\t0\t\n", "\ufeff0\t1\n", "0\t1_0\n", "0\t+1\n", "0\t1.0\n", "0\t\u0661\n",
         "0\t1\x1c\n", "1\t\u01fe\n", "1\t\u2460\n", "0\t1\x0b\n1\t\xa00\n"],
        ids=["comment", "trailing-tab", "bom", "underscore", "plus", "float-id", "arabic-indic-digit",
             "file-separator", "U+01FE", "circled-digit", "whitespace"],
    )
    def test_readers_agree_on_odd_text(self, tmp_path, content):
        # numpy reads \x1c as whitespace and U+01FE or a circled digit as a digit,
        # where int() rejects all three; such text must reach the row loop
        root = tmp_path / "d"
        write_minimal(root)
        (root / "edges.tsv").write_bytes(content.encode())
        (tmp_path / "a.tsv").write_bytes(("0\t0\n" + content).encode())
        for load, args in ((load_dataset, (root,)), (load_assignment, (tmp_path / "a.tsv", 2))):
            first, second = both_readers(load, *args)
            assert first == second

    @pytest.mark.parametrize(
        "content, ids",
        [(b"0\t5\n1\t5\n2\t9\n", [0, 0, 1]), (b"0\t5\n1\t5\n2\t\xd9\xa3\n", [1, 1, 0])],
        ids=["array-reader", "row-loop"],
    )
    def test_assignment_from_a_pipe_loads(self, content, ids):
        # a pipe can be read once: a second open finds it empty
        with piped(content) as path:
            assert load_assignment(path, 3).tolist() == ids

    def test_features_past_int64_in_row_major_order_load_through_the_row_loop(self, tmp_path):
        # node 3 of 2**62 features sits at row-major position 3 * 2**62, past int64
        root = tmp_path / "d"
        write_minimal(root, labels=False)
        (root / "meta.json").write_text(json.dumps({"n": 4, "num_features": 2**62, "num_classes": 0}))
        (root / "features.tsv").write_text(f"3\t{2**62 - 1}\t1.5\n2\t0\t-2\n")
        first, second = both_readers(load_dataset, root)
        assert first == second
        _, x, _ = load_dataset(root)
        assert x.shape == (4, 2**62) and x.indptr.tolist() == [0, 0, 0, 1, 2]
        assert x.indices.tolist() == [0, 2**62 - 1] and x.data.tolist() == [-2.0, 1.5]

    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize("lenient", [False, True], ids=["this-numpy", "float-fallback-numpy"])
    def test_float_ids_rejected_under_default_warning_filters(self, tmp_path, monkeypatch, lenient):
        # numpy from 1.23 until that deprecation expired reads "1.5" as the int 1
        # with only a DeprecationWarning, which Python hides outside __main__
        if lenient:
            def loadtxt(fname, dtype, **kwargs):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                return np.ones(1, dtype=dtype)

            monkeypatch.setattr(dataset.np, "loadtxt", loadtxt)
        root = tmp_path / "d"
        write_minimal(root)
        (root / "edges.tsv").write_text("0\t1.5\n")
        with pytest.raises(DatasetFormatError, match=r"^edges.tsv:1: node id is not an integer: '1.5'$"):
            load_dataset(root)
        write_minimal(root)
        (root / "labels.tsv").write_text("0\t1.0\n1\t0\n")
        with pytest.raises(DatasetFormatError, match=r"^labels.tsv:1: label is not an integer: '1.0'$"):
            load_dataset(root)
        (tmp_path / "a.tsv").write_text("0\t1e0\n1\t0\n")
        with pytest.raises(DatasetFormatError, match=r"^a.tsv:1: cluster id is not an integer: '1e0'$"):
            load_assignment(tmp_path / "a.tsv", 2)


class TestSaveDataset:
    def test_roundtrip_exact(self, tmp_path):
        g, labels = ring_of_cliques(3, 4)
        rng = np.random.default_rng(0)
        x = np.where(rng.random((g.n, 5)) < 0.4, rng.standard_normal((g.n, 5)), 0.0)
        save_dataset(tmp_path / "d", g, x, labels)
        g2, x2, labels2 = load_dataset(tmp_path / "d")
        assert g2.n == g.n and g2.m == g.m
        assert np.array_equal(g2.col_idx, g.col_idx)
        assert np.array_equal(x2.toarray(), x)  # 17 significant digits round-trip float64
        assert np.array_equal(labels2, labels)

    def test_sparse_features_write_same_files_as_dense(self, tmp_path):
        g, labels = ring_of_cliques(3, 4)
        rng = np.random.default_rng(1)
        dense = np.where(rng.random((g.n, 6)) < 0.4, rng.standard_normal((g.n, 6)), 0.0)
        dense[0, :2] = [0.25, 0.0]
        rows, cols = np.nonzero(dense)
        trip = [t for t in zip(rows.tolist(), cols.tolist(), dense[rows, cols].tolist()) if t[:2] != (0, 0)]
        # (0, 0) stored as two halves, an explicit zero at (0, 1), columns descending in each row
        trip += [(0, 0, 0.125), (0, 1, 0.0), (0, 0, 0.125)]
        trip.sort(key=lambda t: (t[0], -t[1]))
        r, c, v = (np.array(col) for col in zip(*trip))
        csr = sp.csr_matrix((v, c, np.searchsorted(r, np.arange(g.n + 1))), shape=dense.shape)
        assert not csr.has_sorted_indices
        before = [a.copy() for a in (csr.data, csr.indices, csr.indptr)]
        save_dataset(tmp_path / "dense", g, dense, labels)
        save_dataset(tmp_path / "sparse", g, csr, labels)
        for name in ("meta.json", "edges.tsv", "features.tsv", "labels.tsv"):
            assert (tmp_path / "dense" / name).read_bytes() == (tmp_path / "sparse" / name).read_bytes()
        for a, old in zip((csr.data, csr.indices, csr.indptr), before):
            assert np.array_equal(a, old)

    def test_roundtrip_without_labels(self, tmp_path):
        g = from_edge_list([(0, 1)], 2)
        save_dataset(tmp_path / "d", g, np.eye(2))
        _, _, labels = load_dataset(tmp_path / "d")
        assert labels is None

    def test_graph_of_numpy_integer_n_saves(self, tmp_path):
        graphs = {"edge": from_edge_list([(0, 1)], np.int64(2)), "ring": ring_of_cliques(np.int64(4), 3)[0]}
        for name, g in graphs.items():
            save_dataset(tmp_path / name, g, np.eye(g.n))
            assert load_dataset(tmp_path / name)[0].n == g.n

    def test_validation(self, tmp_path):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "d", g, np.eye(3))
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "d", g, np.eye(2), np.array([0]))
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "d", g, np.eye(2), np.array([-1, 0]))

    @pytest.mark.parametrize(
        "n, x, labels, msg",
        [
            (0, np.zeros((0, 1)), None, "^meta.json: n must be positive, got 0$"),
            (2, np.zeros((2, 0)), None, "^meta.json: num_features must be positive, got 0$"),
            (2, np.eye(2), np.array([2**63, 2**63 + 3], dtype=np.uint64),
             r"^meta.json: num_classes must be at most 2\*\*63 - 1, got 9223372036854775812$"),
            (2, np.array([[1.0], [np.inf]]), None, "^feature values must be finite, got inf$"),
            (2, np.array([[np.nan], [1.0]]), None, "^feature values must be finite, got nan$"),
        ],
        ids=["no-nodes", "no-features", "num-classes-past-int64", "inf", "nan"],
    )
    def test_what_load_dataset_refuses_is_never_written(self, tmp_path, n, x, labels, msg):
        g = from_edge_list([(0, 1)] if n else [], n)
        with pytest.raises(ValueError, match=msg):
            save_dataset(tmp_path / "d", g, x, labels)
        assert not (tmp_path / "d").exists()


class TestFeatureBuilders:
    def test_one_hot_degree(self, path4):
        x = one_hot_degree_features(path4)  # degrees 1,2,2,1
        assert x.shape == (4, 3)
        assert x.tolist() == [[0, 1, 0], [0, 0, 1], [0, 0, 1], [0, 1, 0]]

    def test_adjacency_features(self, path4):
        x = adjacency_features(path4)
        expected = np.array(
            [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], dtype=float
        )
        assert sp.isspmatrix_csr(x) and x.has_canonical_format
        assert np.array_equal(x.toarray(), expected)


def run_cli(*args):
    return main(list(args))


ROOT = Path(__file__).resolve().parent.parent


def src_env():
    """The environment for a child process that imports this tree's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class TestCliGen:
    def test_ring_of_cliques(self, tmp_path):
        out = tmp_path / "ring"
        assert run_cli("gen", "ring-of-cliques", "--cliques", "10", "--size", "5", "--out", str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n"] == 50
        assert len((out / "edges.tsv").read_text().splitlines()) == 110
        g, x, labels = load_dataset(out)
        assert g.n == 50 and g.m == 110
        assert labels.tolist() == [i // 5 for i in range(50)]
        assert x.shape == (50, 50) and (x != adjacency_features(g)).nnz == 0  # A + I

    def test_quick_start_recovers_the_ring(self, tmp_path):
        # README's quick start: gen a ring of 10 five-cliques, train 4 seeds with defaults
        data, out = tmp_path / "ring", tmp_path / "run"
        assert run_cli("gen", "ring-of-cliques", "--cliques", "10", "--size", "5",
                       "--out", str(data)) == 0
        assert run_cli("train", "--data", str(data), "--out", str(out), "--seeds", "4") == 0
        assert json.loads((out / "metrics.json").read_text())["aggregate"]["mean"]["nmi"] >= 80.0

    def test_sbm(self, tmp_path):
        out = tmp_path / "sbm"
        assert run_cli(
            "gen", "sbm", "--sizes", "4,4", "--p-in", "1.0", "--p-out", "0.0", "--out", str(out)
        ) == 0
        g, x, labels = load_dataset(out)
        assert g.m == 12
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert x.shape == (8, 8) and (x != adjacency_features(g)).nnz == 0

    def test_bad_parameters_exit_2(self, tmp_path):
        assert run_cli("gen", "ring-of-cliques", "--cliques", "2", "--size", "3",
                       "--out", str(tmp_path / "x")) == 2
        assert run_cli("gen", "sbm", "--sizes", "4;4", "--p-in", "1.0", "--p-out", "0.0",
                       "--out", str(tmp_path / "x")) == 2
        assert run_cli("gen", "sbm", "--sizes", ",", "--p-in", "1.0", "--p-out", "0.0",
                       "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    def test_usage_error_raises_system_exit(self):
        with pytest.raises(SystemExit) as err:
            run_cli("gen")
        assert err.value.code == 2

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert run_cli("gen", "ring-of-cliques", "--cliques", "3", "--size", "3",
                       "--out", str(taken)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert taken.read_text() == "keep\n"


@pytest.fixture
def ring_dataset(tmp_path):
    out = tmp_path / "data"
    assert run_cli("gen", "ring-of-cliques", "--cliques", "3", "--size", "3", "--out", str(out)) == 0
    return out


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return path


class TestCliTrain:
    def test_outputs_and_config_echo(self, tmp_path, ring_dataset):
        cfg = write_config(tmp_path, epochs=30, k=4, hidden=8)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(out)) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,total,potts,collapse,gamma_reg,gamma"
        assert len(trace) == 32  # header + epochs 0..30
        assignment = (out / "assignment.tsv").read_text().splitlines()
        assert len(assignment) == 9
        assert all(len(line.split("\t")) == 2 for line in assignment)
        metrics = json.loads((out / "metrics.json").read_text())
        from pottscluster import TrainConfig
        assert set(metrics["config"]) == {f.name for f in dataclasses.fields(TrainConfig)}
        assert metrics["config"]["epochs"] == 30
        assert metrics["num_seeds"] == 1
        assert len(metrics["per_seed"]) == 1
        assert "gamma_final" in metrics["per_seed"][0]

    def test_zero_epochs_trace_has_two_lines(self, tmp_path, ring_dataset):
        cfg = write_config(tmp_path, epochs=0, k=4, hidden=8)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(out)) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 2

    def test_dmon_gamma_column_constant_one(self, tmp_path, ring_dataset):
        cfg = write_config(tmp_path, epochs=20, k=4, hidden=8, loss="dmon")
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(out)) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[5] == "1" for row in rows)

    def test_multi_seed_aggregate(self, tmp_path, ring_dataset):
        cfg = write_config(tmp_path, epochs=15, k=4, hidden=8)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(out), "--seeds", "2") == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["per_seed"]) == 2
        assert [e["seed"] for e in metrics["per_seed"]] == [0, 1]
        for block in ("mean", "std"):
            agg = metrics["aggregate"][block]
            for key in ("modularity", "conductance", "nmi", "pairwise_f1", "gamma_final", "total"):
                assert key in agg
                assert agg[key] is not None  # ring dataset ships labels

    def test_quick_determinism(self, tmp_path, ring_dataset):
        cfg = write_config(tmp_path, epochs=40, k=4, hidden=8)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                           "--out", str(out)) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "assignment.tsv").read_bytes() == (out2 / "assignment.tsv").read_bytes()

    def test_determinism_across_processes(self, tmp_path, ring_dataset):
        # the README claim: same dataset, config, BLAS build and thread count
        # give the same bytes, whatever the process and its hash seed
        cfg = write_config(tmp_path, epochs=60, k=4, hidden=8)
        outs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"run{hash_seed}"
            env = {**src_env(), "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-m", "pottscluster.cli", "train", "--data", str(ring_dataset),
                 "--config", str(cfg), "--out", str(out), "--seeds", "2"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("trace.csv", "assignment.tsv", "metrics.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_metrics_json_layout(self, tmp_path, ring_dataset):
        cfg = write_config(tmp_path, epochs=15, k=4, hidden=8)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(out), "--seeds", "2") == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert list(metrics) == ["config", "num_seeds", "per_seed", "aggregate"]
        for entry in metrics["per_seed"]:
            assert list(entry) == ["seed", "gamma_final", "total", "modularity", "conductance",
                                   "num_clusters", "nmi", "pairwise_f1"]
        for block in ("mean", "std"):
            assert list(metrics["aggregate"][block]) == ["modularity", "conductance", "nmi",
                                                         "pairwise_f1", "gamma_final", "total"]

    def test_bad_config_exits_2(self, tmp_path, ring_dataset):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(bad),
                       "--out", str(tmp_path / "o")) == 2
        unknown = write_config(tmp_path, momentum=0.9)
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(unknown),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "overrides",
        [{"epochs": 5.5}, {"seed": "a"}, {"k": 2.0}, {"dropout_keep": "0.5"}, {"epochs": True}],
    )
    def test_wrong_config_type_exits_2(self, tmp_path, ring_dataset, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [{"hidden": 2**62}, {"k": 2**62}], ids=["hidden", "k"])
    def test_unsizable_hidden_or_k_exits_2_before_the_dataset_is_read(self, tmp_path, ring_dataset, capsys,
                                                                      monkeypatch, overrides):
        def never(*args, **kwargs):
            raise AssertionError("the dataset was read despite an unsizable config")

        monkeypatch.setattr(cli, "load_dataset", never)
        cfg, out = write_config(tmp_path, **overrides), tmp_path / "o"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg), "--out", str(out)) == 2
        hidden, k = overrides.get("hidden", 64), overrides.get("k", 16)
        err = capsys.readouterr().err
        assert err == (f"error: hidden={hidden} and k={k} are too large:"
                       " one feature's weights exceed the address space\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, msg",
        [
            (["--seeds", "0"], "--seeds must be positive, got 0"),
            (["--config", "{tmp}"], "cannot read config file {tmp}"),
            (["--config", "{tmp}/list.json"], "config file {tmp}/list.json must hold a JSON object"),
        ],
        ids=["seeds-0", "config-is-a-directory", "config-holds-a-list"],
    )
    def test_bad_argument_exits_2_before_out_is_made(self, tmp_path, ring_dataset, capsys, extra, msg):
        (tmp_path / "list.json").write_text("[1]\n")
        out = tmp_path / "o"
        extra = [a.format(tmp=tmp_path) for a in extra]
        assert run_cli("train", "--data", str(ring_dataset), "--out", str(out), *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + msg.format(tmp=tmp_path)) and "Traceback" not in err
        assert not out.exists()

    def test_dmon_with_gamma_max_below_one_exits_2(self, tmp_path, ring_dataset, capsys):
        cfg = write_config(tmp_path, loss="dmon", gamma_max=0.5, gamma_init=0.2, epochs=3)
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: loss 'dmon' fixes gamma at 1.0") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_unusable_out_exits_2_before_training(self, tmp_path, ring_dataset, capsys,
                                                  monkeypatch, sub):
        def never(*args, **kwargs):
            raise AssertionError("run_seeds called despite an unusable --out")

        monkeypatch.setattr(cli, "run_seeds", never)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert run_cli("train", "--data", str(ring_dataset), "--out", str(taken / sub)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert taken.read_text() == "keep\n"

    def test_missing_dataset_exits_3(self, tmp_path):
        assert run_cli("train", "--data", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "o")) == 3

    def test_malformed_dataset_exits_3(self, tmp_path, ring_dataset):
        (ring_dataset / "edges.tsv").write_text("0\tbroken\n")
        assert run_cli("train", "--data", str(ring_dataset),
                       "--out", str(tmp_path / "o")) == 3

    def test_meta_count_past_int64_exits_3(self, tmp_path, ring_dataset, capsys):
        (ring_dataset / "meta.json").write_text('{"n": 10000000000000000000, "num_features": 9, "num_classes": 3}')
        assert run_cli("train", "--data", str(ring_dataset),
                       "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "meta.json: n must be at most" in err and "Traceback" not in err

    def test_meta_n_past_the_address_space_exits_3(self, tmp_path, ring_dataset, capsys):
        (ring_dataset / "meta.json").write_text(json.dumps({"n": 2**62, "num_features": 9, "num_classes": 3}))
        assert run_cli("train", "--data", str(ring_dataset),
                       "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert f"meta.json: n={2**62} is too large" in err and "Traceback" not in err

    def test_unallocatable_n_exits_3(self, tmp_path, ring_dataset, monkeypatch, capsys):
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "from_edge_list", out_of_memory)
            assert run_cli("train", "--data", str(ring_dataset),
                           "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "out of memory loading the dataset (n=9 nodes)" in err and "Traceback" not in err
        monkeypatch.setattr(trainer, "adam_step", out_of_memory)  # training's memory is not the dataset's
        with pytest.raises(MemoryError):
            run_cli("train", "--data", str(ring_dataset), "--out", str(tmp_path / "o"))

    def test_unsizable_weights_exit_3_before_out_is_made(self, tmp_path, capsys):
        # 2 * 2**62 * 64 weights: numpy refuses to size them before it allocates
        root = tmp_path / "wide"
        write_minimal(root)
        (root / "meta.json").write_text(json.dumps({"n": 2, "num_features": 2**62, "num_classes": 2}))
        out = tmp_path / "o"
        assert run_cli("train", "--data", str(root), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"num_features={2**62} is too large" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_features_exits_3(self, tmp_path, ring_dataset, capsys):
        (ring_dataset / "features.tsv").write_bytes(b"0\t0\t1\n1\t0\t\xe9\n")
        assert run_cli("train", "--data", str(ring_dataset),
                       "--out", str(tmp_path / "o")) == 3
        assert "features.tsv" in capsys.readouterr().err

    def test_edgeless_dataset_exits_3(self, tmp_path, capsys):
        root = tmp_path / "edgeless"
        write_minimal(root)
        (root / "edges.tsv").write_text("0\t0\n")  # a self-loop is dropped, leaving m=0
        assign = tmp_path / "a.tsv"
        assign.write_text("0\t0\n1\t1\n")
        assert run_cli("train", "--data", str(root), "--out", str(tmp_path / "o")) == 3
        assert run_cli("eval", "--data", str(root), "--assignment", str(assign)) == 3
        err = capsys.readouterr().err
        assert err.count(f"dataset {root} has no edges") == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path):
        root = tmp_path / "huge"
        write_minimal(root)
        (root / "features.tsv").write_text("0\t0\t1e308\n1\t0\t-1e308\n")
        cfg = write_config(tmp_path, epochs=3, k=2, hidden=64)
        assert run_cli("train", "--data", str(root), "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_after_the_first_record_exits_4(self, tmp_path, ring_dataset, capsys):
        # records 0 and 1 are finite; epoch 1's Adam step, of size 1e300, overflows epoch 2's logits
        cfg = write_config(tmp_path, learning_rate=1e300, epochs=5, k=4)
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: objective became non-finite at epoch 2: ") and "Traceback" not in err

    def test_verbose_logs_to_stderr(self, tmp_path, ring_dataset, monkeypatch, capsys):
        monkeypatch.setenv("POTTSCLUSTER_VERBOSE", "1")
        cfg = write_config(tmp_path, epochs=5, k=4, hidden=8)
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 0
        err = capsys.readouterr().err
        assert "loaded" in err and "seed 0" in err


class TestCliEval:
    def write_assignment(self, path, labels):
        path.write_text("".join(f"{i}\t{c}\n" for i, c in enumerate(labels)))

    def test_ground_truth_is_perfect(self, tmp_path, ring_dataset, capsys):
        assign = tmp_path / "a.tsv"
        self.write_assignment(assign, [i // 3 for i in range(9)])
        assert run_cli("eval", "--data", str(ring_dataset), "--assignment", str(assign)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nmi"] == 100.0
        assert report["pairwise_f1"] == 100.0
        assert list(report) == ["modularity", "conductance", "num_clusters", "nmi", "pairwise_f1"]

    def test_single_cluster(self, tmp_path, ring_dataset, capsys):
        assign = tmp_path / "a.tsv"
        self.write_assignment(assign, [0] * 9)
        assert run_cli("eval", "--data", str(ring_dataset), "--assignment", str(assign)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conductance"] == 0.0
        assert report["modularity"] == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_edges_fixture(self, tmp_path, capsys):
        root = tmp_path / "d"
        root.mkdir()
        (root / "meta.json").write_text('{"n": 4, "num_features": 1, "num_classes": 2}')
        (root / "edges.tsv").write_text("0\t1\n2\t3\n")
        (root / "features.tsv").write_text("0\t0\t1\n")
        assign = tmp_path / "a.tsv"
        self.write_assignment(assign, [0, 0, 1, 1])
        assert run_cli("eval", "--data", str(root), "--assignment", str(assign)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["modularity"] == pytest.approx(50.0, abs=1e-12)
        assert report["nmi"] is None and report["pairwise_f1"] is None  # no labels.tsv

    def test_wide_features_read_by_the_row_loop(self, tmp_path, capsys):
        # an Arabic-Indic three sends features.tsv to the row loop, with node 3 of 2**62 features
        assign = tmp_path / "a.tsv"
        self.write_assignment(assign, [0, 0, 1, 1])
        reports = []
        for i, node in enumerate(["3", "\u0663"]):
            root = tmp_path / f"d{i}"
            root.mkdir()
            (root / "meta.json").write_text(json.dumps({"n": 4, "num_features": 2**62, "num_classes": 0}))
            (root / "edges.tsv").write_text("0\t1\n2\t3\n")
            (root / "features.tsv").write_text(f"{node}\t0\t1\n", encoding="utf-8")
            assert run_cli("eval", "--data", str(root), "--assignment", str(assign)) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and json.loads(reports[0])["num_clusters"] == 2

    def test_assignment_from_a_pipe(self, tmp_path, ring_dataset, capsys):
        assign = tmp_path / "a.tsv"
        self.write_assignment(assign, [i // 3 for i in range(9)])
        assert run_cli("eval", "--data", str(ring_dataset), "--assignment", str(assign)) == 0
        expected = capsys.readouterr().out
        with piped(assign.read_bytes()) as path:  # eval --assignment <(cat a.tsv)
            assert run_cli("eval", "--data", str(ring_dataset), "--assignment", path) == 0
        assert capsys.readouterr().out == expected

    def test_incomplete_assignment_exits_3(self, tmp_path, ring_dataset):
        assign = tmp_path / "a.tsv"
        assign.write_text("0\t0\n")
        assert run_cli("eval", "--data", str(ring_dataset), "--assignment", str(assign)) == 3

    @pytest.mark.parametrize(
        "content, msg",
        [
            ("0\t0\n1\t0\t7\n", "a.tsv:2: expected 2 tab-separated fields"),
            ("0\t0\n1\tx\n", "a.tsv:2: cluster id is not an integer"),
            ("0\t0\n9\t0\n", "a.tsv:2: node id 9 out of range for n=9"),
            ("0\t0\n1\t-1\n", "a.tsv:2: negative cluster id -1"),
            ("0\t0\n0\t1\n", "a.tsv:2: duplicate entry for node 0"),
            (None, "cannot read .*a.tsv"),
        ],
    )
    def test_malformed_assignment_exits_3(self, tmp_path, ring_dataset, capsys, content, msg):
        assign = tmp_path / "a.tsv"
        if content is not None:
            assign.write_text(content)
        assert run_cli("eval", "--data", str(ring_dataset), "--assignment", str(assign)) == 3
        assert re.search(msg, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "ids, by_hand",
        [
            ([0, 0, 0, 1, 1, 1, 10**12, 10**12, 10**12], [0, 0, 0, 1, 1, 1, 2, 2, 2]),
            ([5, 5, 10**30, 10**30, 10**30, 5, 7, 7, 7], [0, 0, 2, 2, 2, 0, 1, 1, 1]),
            ([4, 4, 9, 9, 9, 0, 0, 0, 4], [1, 1, 2, 2, 2, 0, 0, 0, 1]),
        ],
        ids=["1e12", "1e30", "gapped"],
    )
    def test_large_and_gapped_ids_score_as_mapped(self, tmp_path, ring_dataset, capsys, ids, by_hand):
        # ids map to 0..K-1 in increasing order, so metric tallies are sized by K
        reports = []
        for name, labels in (("raw.tsv", ids), ("mapped.tsv", by_hand)):
            self.write_assignment(tmp_path / name, labels)
            assert run_cli("eval", "--data", str(ring_dataset),
                           "--assignment", str(tmp_path / name)) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert reports[0] == reports[1]
        assert load_assignment(tmp_path / "raw.tsv", 9).tolist() == by_hand

    def test_dense_ids_map_to_themselves(self, tmp_path):
        labels = [2, 0, 1, 1, 3, 0, 2, 3, 3]
        self.write_assignment(tmp_path / "a.tsv", labels)
        pred = load_assignment(tmp_path / "a.tsv", 9)
        assert pred.dtype == np.int64 and pred.tolist() == labels

    def test_train_then_eval_pipeline(self, tmp_path, ring_dataset, capsys):
        cfg = write_config(tmp_path, epochs=60, k=4, hidden=8)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(ring_dataset), "--config", str(cfg),
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("eval", "--data", str(ring_dataset),
                       "--assignment", str(out / "assignment.tsv")) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"modularity", "conductance", "num_clusters", "nmi", "pairwise_f1"}

    def test_eval_of_written_assignment_equals_metrics_row(self, tmp_path, capsys):
        # this run leaves cluster ids unused below its largest one, where
        # scoring the raw argmax ids summed over the empty clusters too
        g, labels = ring_of_cliques(3, 3)
        save_dataset(tmp_path / "data", g, adjacency_features(g), labels)
        cfg = write_config(tmp_path, epochs=30, seed=1)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(tmp_path / "data"), "--config", str(cfg),
                       "--out", str(out)) == 0
        ids = {int(line.split("\t")[1]) for line in (out / "assignment.tsv").read_text().splitlines()}
        assert max(ids) + 1 > len(ids)
        capsys.readouterr()
        assert run_cli("eval", "--data", str(tmp_path / "data"),
                       "--assignment", str(out / "assignment.tsv")) == 0
        report = json.loads(capsys.readouterr().out)
        row = json.loads((out / "metrics.json").read_text())["per_seed"][0]
        assert report == {key: row[key] for key in report}


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # Build the console script an installer writes for the declared
        # [project.scripts] entry, and run it against this tree's src/, so the
        # check depends on the declaration and the code, not on an install.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["pottscluster"]
        module, _, func = target.partition(":")
        exe = tmp_path / "bin" / "pottscluster"
        exe.parent.mkdir()
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({func}())\n"
        )
        exe.chmod(0o755)
        out = tmp_path / "ring"
        proc = subprocess.run(
            [str(exe), "gen", "ring-of-cliques", "--cliques", "3", "--size", "3", "--out", str(out)],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "meta.json").is_file()


class TestConvertScript:
    def run_script(self, tmp_path, adj, attr, labels, replaced=()):
        """Run the converter into tmp_path/toy on these arrays, as ``replaced`` overrides them; None leaves one out."""
        arrays = dict(
            adj_data=adj.data, adj_indices=adj.indices,
            adj_indptr=adj.indptr, adj_shape=np.array(adj.shape),
            attr_data=attr.data, attr_indices=attr.indices,
            attr_indptr=attr.indptr, attr_shape=np.array(attr.shape),
            labels=labels if labels is None else np.array(labels),
        )
        archive = tmp_path / "toy.npz"
        np.savez(archive, **{k: v for k, v in {**arrays, **dict(replaced)}.items() if v is not None})
        script = ROOT / "scripts" / "convert_npz_dataset.py"
        return subprocess.run(
            [sys.executable, str(script), str(archive), str(tmp_path / "toy")],
            capture_output=True,
            text=True,
            env=src_env(),
        )

    def convert(self, tmp_path, adj, attr, labels):
        proc = self.run_script(tmp_path, adj, attr, labels)
        assert proc.returncode == 0, proc.stderr
        return load_dataset(tmp_path / "toy")

    @pytest.mark.parametrize(
        "replaced, msg",
        [
            ({"labels": np.array([0, 0.9, 1.2])}, "labels must be integers, got float64 values"),
            ({"labels": np.array([0, 2**63, 2**63 + 1], dtype=np.uint64)},
             r"meta.json: num_classes must be at most 2\*\*63 - 1, got 9223372036854775810"),
            ({"labels": None}, "archive lacks a labels array"),
            ({"adj_shape": np.array([3, 4])}, r"adjacency must be square, got shape \(3, 4\)"),
            ({"adj_shape": np.array(3)}, "iteration over a 0-d array"),
        ],
        ids=["float-labels", "uint64-labels-past-int64", "no-labels", "non-square", "0-d-shape"],
    )
    def test_bad_archive_exits_3_and_writes_nothing(self, tmp_path, replaced, msg):
        # labels are passed on as stored: 0.9 is not cast to 0, nor 2**63 wrapped to -2**63
        adj = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 2])), shape=(3, 3))
        proc = self.run_script(tmp_path, adj, sp.csr_matrix(np.eye(3)), [0, 1, 1], replaced)
        assert proc.returncode == 3 and proc.stdout == ""
        assert re.fullmatch(f"error: {msg}\n", proc.stderr), proc.stderr
        assert not (tmp_path / "toy").exists()

    def test_npz_archive_roundtrip(self, tmp_path):
        # directed triangle plus an isolated node; converter must symmetrize
        adj = sp.csr_matrix(
            np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
        )
        attr = sp.csr_matrix(np.array([[1.5, 0], [0, 2.0], [0, 0], [3.25, 0]]))
        g, x, labels = self.convert(tmp_path, adj, attr, [0, 0, 1, 1])
        assert g.n == 4 and g.m == 3
        assert np.array_equal(x.toarray(), np.array([[1.5, 0], [0, 2.0], [0, 0], [3.25, 0]]))
        assert labels.tolist() == [0, 0, 1, 1]

    def test_every_stored_arc_is_one_edge(self, tmp_path):
        # a weighted arc 0->1, the arc 1-2 stored both ways, a self-loop at 2,
        # and an arc 3->4 stored only with a negative weight
        adj = sp.csr_matrix(np.array([
            [0, 2.5, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 3, 0, 0],
            [0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0],
        ]))
        g, _, _ = self.convert(tmp_path, adj, sp.csr_matrix(np.ones((5, 1))), [0, 0, 0, 1, 1])
        src = g.arc_sources()
        assert set(zip(src.tolist(), g.col_idx.tolist())) == {
            (0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)
        }
        assert g.m == 3
