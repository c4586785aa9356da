# pottscluster/dataset.py
"""On-disk dataset format: a directory of small text files.

    meta.json      {"n": ..., "num_features": ..., "num_classes": ...}
    edges.tsv      u<TAB>v per line, 0-indexed, undirected, duplicates fine
    features.tsv   node<TAB>feature<TAB>value sparse triplets
    labels.tsv     node<TAB>label, one line per node (file optional)

An assignment file, as ``pottscluster train`` writes and ``eval`` reads,
has the labels.tsv layout with a cluster id in place of the label.

The format is deliberately plain so converters from public benchmark
archives can be written in any language.

Each .tsv file is read in one pass by numpy's C parser and checked with
array operations. A file numpy declines (non-ASCII text, a numeral only
Python's ``int`` or ``float`` reads, such as ``1_0``, or malformed text),
or whose values fail a check, is read again line by line by
``_iter_rows``. That row loop is the reference reader: both give the same
arrays, and it words every error with file and line number.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Graph, from_edge_list

__all__ = [
    "DatasetFormatError",
    "load_dataset",
    "load_assignment",
    "save_dataset",
    "one_hot_degree_features",
    "adjacency_features",
    "feature_matrix",
]


class DatasetFormatError(ValueError):
    """A dataset directory is missing files or contains malformed content."""


def _fail(name: str, lineno: int, problem: str) -> None:
    raise DatasetFormatError(f"{name}:{lineno}: {problem}")


def _parse_int(name: str, lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(name, lineno, f"{what} is not an integer: {token!r}")
    raise AssertionError("unreachable")


def _iter_rows(path: Path, expected_fields: int):
    """Yield (lineno, fields) for each non-blank line, enforcing field count.

    A file that cannot be opened or is not UTF-8 raises DatasetFormatError
    naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != expected_fields:
                    _fail(path.name, lineno, f"expected {expected_fields} tab-separated fields, got {len(fields)}")
                yield lineno, fields
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


_INT64_MAX = np.iinfo(np.int64).max
_NUMPY_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_NODE_LABEL = np.dtype([("node", np.int64), ("label", np.int64)])  # labels.tsv and assignment files
_FEATURE = np.dtype([("node", np.int64), ("feature", np.int64), ("value", np.float64)])


def _numpy_reads_like_python(path: Path) -> bool:
    """Whether the file is text on which numpy's parser agrees with ``int()`` and ``float()``.

    That is ASCII without the separators \\x1c-\\x1f: numpy strips those
    as whitespace, where ``int()`` rejects them, and reads some non-ASCII
    characters (U+01FE, circled digits) as digits of the wrong value.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return False
    return raw.isascii() and not any(sep in raw for sep in _NUMPY_ONLY_SPACES)


def _read_table(path: Path, row: np.dtype) -> np.ndarray | None:
    """A tab-separated file as records of ``row`` parsed by numpy's C reader, or None where it declines.

    Blank lines are skipped, so a file with no other gives zero records.
    On the text it is given, numpy reads a subset of the numerals ``int()``
    and ``float()`` read, to the same values; it declines ``1_0``, ``1.0``
    as an id, ids past int64, NUL and a line with a wrong field count.
    ``comments=None`` keeps a ``#`` line from being skipped.
    """
    if not _numpy_reads_like_python(path):
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        # numpy from 1.23 until that deprecation expired reads an integer field
        # such as "1.5" through a float, warning only; as an error it declines
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            # the path again, not the bytes the check read: numpy reads a path in
            # chunks but a file object line by line, 1.8x as long on csbm-cora
            return np.loadtxt(path, dtype=row, delimiter="\t", comments=None, encoding="utf-8", ndmin=1)
        except UserWarning:
            return np.empty(0, dtype=row)
        except (ValueError, OSError, DeprecationWarning):
            return None


def _in_range(ids: np.ndarray, stop: int) -> bool:
    return ids.size == 0 or (ids.min() >= 0 and ids.max() < stop)


def _one_row_per_node(nodes: np.ndarray, n: int) -> bool:
    """Whether ``nodes`` names each of 0..n-1 exactly once."""
    return nodes.size == n and _in_range(nodes, n) and bool(np.bincount(nodes, minlength=n).all())


def _load_meta(path: Path) -> tuple[int, int, int]:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"meta.json: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DatasetFormatError("meta.json: top level must be an object")
    out = []
    for key in ("n", "num_features", "num_classes"):
        if key not in raw:
            raise DatasetFormatError(f"meta.json: missing key {key!r}")
        val = raw[key]
        if not isinstance(val, int) or isinstance(val, bool):
            raise DatasetFormatError(f"meta.json: {key} must be an integer, got {val!r}")
        out.append(val)
    n, num_features, num_classes = out
    if n < 1:
        raise DatasetFormatError(f"meta.json: n must be positive, got {n}")
    if num_features < 1:
        raise DatasetFormatError(f"meta.json: num_features must be positive, got {num_features}")
    if num_classes < 0:
        raise DatasetFormatError(f"meta.json: num_classes must be non-negative, got {num_classes}")
    for key, val in zip(("n", "num_features", "num_classes"), out):
        if val > _INT64_MAX:  # past int64, numpy cannot size or index arrays by it
            raise DatasetFormatError(f"meta.json: {key} must be at most 2**63 - 1, got {val}")
    return n, num_features, num_classes


def load_dataset(path: str | os.PathLike) -> tuple[Graph, sp.csr_matrix, np.ndarray | None]:
    """Read a dataset directory into (graph, features, labels-or-None).

    The features come back as an (n, num_features) CSR matrix in canonical
    format (sorted indices, no duplicates) holding the triplets of
    features.tsv, so no dense n x num_features array is ever built.
    """
    root = Path(path)
    if not root.is_dir():
        raise DatasetFormatError(f"dataset directory not found: {root}")
    for name in ("meta.json", "edges.tsv", "features.tsv"):
        if not (root / name).is_file():
            raise DatasetFormatError(f"missing required file: {name}")
    n, num_features, num_classes = _load_meta(root / "meta.json")

    g = from_edge_list(_read_edges(root / "edges.tsv", n), n)
    x = _read_features(root / "features.tsv", n, num_features)
    labels_path = root / "labels.tsv"
    labels: np.ndarray | None = None
    if labels_path.is_file():
        if num_classes < 1:
            raise DatasetFormatError("meta.json: num_classes must be positive when labels.tsv is present")
        labels = _read_labels(labels_path, n, num_classes)
    return g, x, labels


def _read_edges(path: Path, n: int) -> np.ndarray | list[tuple[int, int]]:
    """edges.tsv's (u, v) pairs, each id checked against n."""
    table = _read_table(path, _EDGE)
    if table is not None and _in_range(table["u"], n) and _in_range(table["v"], n):
        return np.column_stack((table["u"], table["v"]))
    edges = []
    for lineno, fields in _iter_rows(path, 2):
        u = _parse_int("edges.tsv", lineno, fields[0], "node id")
        v = _parse_int("edges.tsv", lineno, fields[1], "node id")
        if not (0 <= u < n and 0 <= v < n):
            _fail("edges.tsv", lineno, f"edge ({u},{v}) out of range for n={n}")
        edges.append((u, v))
    return edges


def _read_features(path: Path, n: int, num_features: int) -> sp.csr_matrix:
    """features.tsv as a canonical (n, num_features) CSR matrix, rejecting duplicate and non-finite entries."""
    table = _read_table(path, _FEATURE)
    if (
        table is not None
        and _in_range(table["node"], n)
        and _in_range(table["feature"], num_features)
        and np.isfinite(table["value"]).all()
    ):
        # the COO -> CSR conversion sorts each row's indices and sums duplicates
        x = sp.csr_matrix((table["value"], (table["node"], table["feature"])), shape=(n, num_features))
        if x.nnz == table.size:  # no (node, feature) pair was given twice
            return x
    entries: dict[int, float] = {}  # row-major position node * num_features + feature -> value
    for lineno, fields in _iter_rows(path, 3):
        node = _parse_int("features.tsv", lineno, fields[0], "node id")
        feat = _parse_int("features.tsv", lineno, fields[1], "feature index")
        if not 0 <= node < n:
            _fail("features.tsv", lineno, f"node id {node} out of range for n={n}")
        if not 0 <= feat < num_features:
            _fail("features.tsv", lineno, f"feature index {feat} out of range for num_features={num_features}")
        key = node * num_features + feat
        if key in entries:
            _fail("features.tsv", lineno, f"duplicate entry for node {node}, feature {feat}")
        try:
            value = float(fields[2])
        except ValueError:
            _fail("features.tsv", lineno, f"value is not a number: {fields[2]!r}")
        if not math.isfinite(value):
            _fail("features.tsv", lineno, f"value is not finite: {fields[2]!r}")
        entries[key] = value
    # the COO -> CSR conversion sorts each row's indices; keys are unique
    rows_cols = np.divmod(np.array(list(entries), dtype=np.int64), num_features)
    values = np.array(list(entries.values()), dtype=np.float64)
    return sp.csr_matrix((values, rows_cols), shape=(n, num_features))


def _read_labels(path: Path, n: int, num_classes: int) -> np.ndarray:
    """labels.tsv as an int64 label per node, every node labelled once."""
    table = _read_table(path, _NODE_LABEL)
    if table is not None and _in_range(table["label"], num_classes) and _one_row_per_node(table["node"], n):
        labels = np.empty(n, dtype=np.int64)
        labels[table["node"]] = table["label"]
        return labels
    labels = np.full(n, -1, dtype=np.int64)
    for lineno, fields in _iter_rows(path, 2):
        node = _parse_int("labels.tsv", lineno, fields[0], "node id")
        label = _parse_int("labels.tsv", lineno, fields[1], "label")
        if not 0 <= node < n:
            _fail("labels.tsv", lineno, f"node id {node} out of range for n={n}")
        if not 0 <= label < num_classes:
            _fail("labels.tsv", lineno, f"label {label} out of range for num_classes={num_classes}")
        if labels[node] != -1:
            _fail("labels.tsv", lineno, f"duplicate label for node {node}")
        labels[node] = label
    missing = np.flatnonzero(labels == -1)
    if missing.size:
        raise DatasetFormatError(f"labels.tsv: no label for node {int(missing[0])}")
    return labels


def load_assignment(path: str | os.PathLike, n: int) -> np.ndarray:
    """Read a node<TAB>cluster file covering nodes 0..n-1 into cluster ids 0..K-1.

    The file's K distinct ids map to 0..K-1 in increasing order, as
    ``evaluate_partition`` maps them. Ids past the int64 range, which
    numpy declines, load too: the row loop reads them as Python ints. Ids
    already 0..K-1 map to themselves.
    """
    path = Path(path)
    table = _read_table(path, _NODE_LABEL)
    if table is not None and (table["label"] >= 0).all() and _one_row_per_node(table["node"], n):
        clusters = np.empty(n, dtype=np.int64)
        clusters[table["node"]] = table["label"]
        return np.unique(clusters, return_inverse=True)[1].astype(np.int64, copy=False)
    clusters: list[int | None] = [None] * n
    for lineno, fields in _iter_rows(path, 2):
        node = _parse_int(path.name, lineno, fields[0], "node id")
        cluster = _parse_int(path.name, lineno, fields[1], "cluster id")
        if not 0 <= node < n:
            _fail(path.name, lineno, f"node id {node} out of range for n={n}")
        if cluster < 0:
            _fail(path.name, lineno, f"negative cluster id {cluster}")
        if clusters[node] is not None:
            _fail(path.name, lineno, f"duplicate entry for node {node}")
        clusters[node] = cluster
    if None in clusters:
        raise DatasetFormatError(f"{path.name}: no cluster for node {clusters.index(None)}")
    rank = {cluster: i for i, cluster in enumerate(sorted(set(clusters)))}
    return np.array([rank[cluster] for cluster in clusters], dtype=np.int64)


def feature_matrix(x: np.ndarray | sp.spmatrix, n: int) -> sp.csr_matrix:
    """A float64 CSR copy of dense or sparse (n, l) features, duplicates summed and zeros dropped.

    The copy is canonical (sorted indices), and the caller's matrix is left
    as it was.
    """
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"features shape {x.shape} does not match n={n}")
    x = sp.csr_matrix(x, dtype=np.float64, copy=True)
    x.sum_duplicates()
    x.eliminate_zeros()
    return x


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def save_dataset(
    path: str | os.PathLike,
    g: Graph,
    x: np.ndarray | sp.spmatrix,
    labels: np.ndarray | None = None,
) -> None:
    """Write (graph, features, labels) as a dataset directory.

    Each file lands via write-temp-then-rename. Edges are emitted once in
    canonical u < v order; features as nonzero triplets in row-major order
    with 17 significant digits. ``x`` may be a dense array or a scipy sparse
    matrix; both forms of the same matrix write the same files (see
    ``feature_matrix``). meta.json's ``num_classes`` is the largest label
    plus one, or 0 without labels.
    """
    x = feature_matrix(x, g.n)
    num_classes = 0
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (g.n,):
            raise ValueError(f"labels shape {labels.shape} does not match n={g.n}")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        num_classes = int(labels.max()) + 1 if labels.size else 0

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    meta = {"n": g.n, "num_features": int(x.shape[1]), "num_classes": num_classes}
    write_atomic(root / "meta.json", json.dumps(meta, indent=2) + "\n")

    src = g.arc_sources()
    keep = src < g.col_idx
    edge_lines = [f"{u}\t{v}" for u, v in zip(src[keep], g.col_idx[keep])]
    write_atomic(root / "edges.tsv", "\n".join(edge_lines) + ("\n" if edge_lines else ""))

    rows = np.repeat(np.arange(g.n), np.diff(x.indptr))
    feat_lines = [
        f"{r}\t{c}\t{v:.17g}" for r, c, v in zip(rows.tolist(), x.indices.tolist(), x.data.tolist())
    ]
    write_atomic(root / "features.tsv", "\n".join(feat_lines) + ("\n" if feat_lines else ""))

    if labels is not None:
        label_lines = [f"{i}\t{int(lab)}" for i, lab in enumerate(labels)]
        write_atomic(root / "labels.tsv", "\n".join(label_lines) + "\n")


def one_hot_degree_features(g: Graph) -> np.ndarray:
    """One-hot encode each node's degree; width is max degree + 1."""
    degrees = g.degrees.astype(np.int64)
    width = int(degrees.max()) + 1 if g.n else 1
    x = np.zeros((g.n, width), dtype=np.float64)
    x[np.arange(g.n), degrees] = 1.0
    return x


def adjacency_features(g: Graph) -> sp.csr_matrix:
    """Adjacency rows with a self entry, A + I as a CSR matrix, as features for featureless graphs.

    Nodes with identical closed neighborhoods get identical rows, so the
    encoder maps them to the same cluster distribution; that keeps tightly
    knit groups together instead of letting per-node features split them.
    """
    return g.adj + sp.identity(g.n, format="csr")
