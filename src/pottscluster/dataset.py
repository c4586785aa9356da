# pottscluster/dataset.py
"""On-disk dataset format: a directory of small text files.

    meta.json      {"n": ..., "num_features": ..., "num_classes": ...}
    edges.tsv      u<TAB>v per line, 0-indexed, undirected, duplicates fine
    features.tsv   node<TAB>feature<TAB>value sparse triplets
    labels.tsv     node<TAB>label, one line per node (file optional)

An assignment file, as ``pottscluster train`` writes and ``eval`` reads,
has the labels.tsv layout with a cluster id in place of the label; one
reader, ``_read_node_ids``, reads both. The loader's checks are the one
statement of the format: ``save_dataset`` runs them before it writes.

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

import io
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Graph, check_ids, from_edge_list

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


def _read_bytes(path: Path) -> bytes:
    """The file's bytes, read once, so a pipe such as ``<(cat a.tsv)`` loads too."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


def _text(raw: bytes) -> io.TextIOWrapper:
    """``raw`` as ``open(path, encoding="utf-8")`` reads the file: same newlines, same decode errors."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def _iter_rows(path: Path, raw: bytes, expected_fields: int):
    """Yield (lineno, fields) for each non-blank line of the file ``path`` holding ``raw``, enforcing field count.

    Text that is not UTF-8 raises DatasetFormatError naming the file.
    """
    try:
        for lineno, line in enumerate(_text(raw), start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != expected_fields:
                _fail(path.name, lineno, f"expected {expected_fields} tab-separated fields, got {len(fields)}")
            yield lineno, fields
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc


_INT64_MAX = np.iinfo(np.int64).max
_NUMPY_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_NODE_ID = np.dtype([("node", np.int64), ("id", np.int64)])  # labels.tsv and assignment files
_FEATURE = np.dtype([("node", np.int64), ("feature", np.int64), ("value", np.float64)])


def _numpy_reads_like_python(raw: bytes) -> bool:
    """Whether ``raw`` is text on which numpy's parser agrees with ``int()`` and ``float()``.

    That is ASCII without the separators \\x1c-\\x1f: numpy strips those
    as whitespace, where ``int()`` rejects them, and reads some non-ASCII
    characters (U+01FE, circled digits) as digits of the wrong value.
    """
    return raw.isascii() and not any(sep in raw for sep in _NUMPY_ONLY_SPACES)


def _read_table(path: Path, raw: bytes, row: np.dtype) -> np.ndarray | None:
    """The file ``path`` holding ``raw`` as records of ``row`` parsed by numpy's C reader, or None where it declines.

    Blank lines are skipped, so a file with no other gives zero records.
    On the text it is given, numpy reads a subset of the numerals ``int()``
    and ``float()`` read, to the same values; it declines ``1_0``, ``1.0``
    as an id, ids past int64, NUL and a line with a wrong field count.
    ``comments=None`` keeps a ``#`` line from being skipped.
    """
    if not _numpy_reads_like_python(raw):
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        # numpy from 1.23 until that deprecation expired reads an integer field
        # such as "1.5" through a float, warning only; as an error it declines
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            # a regular file by its path again: numpy reads a path in chunks but a
            # file object line by line, 1.8x as long on csbm-cora; a pipe is read once
            source = path if path.is_file() else _text(raw)
            return np.loadtxt(source, dtype=row, delimiter="\t", comments=None, encoding="utf-8", ndmin=1)
        except UserWarning:
            return np.empty(0, dtype=row)
        except (ValueError, OSError, DeprecationWarning):
            return None


def _in_range(ids: np.ndarray, stop: int) -> bool:
    return ids.size == 0 or (ids.min() >= 0 and ids.max() < stop)


def _check_meta(raw) -> tuple[int, int, int]:
    """meta.json's (n, num_features, num_classes), as read or about to be written, each checked in that order."""
    if not isinstance(raw, dict):
        raise DatasetFormatError("meta.json: top level must be an object")
    out = []
    for key, low in (("n", 1), ("num_features", 1), ("num_classes", 0)):
        if key not in raw:
            raise DatasetFormatError(f"meta.json: missing key {key!r}")
        val = raw[key]
        if not isinstance(val, int) or isinstance(val, bool):
            raise DatasetFormatError(f"meta.json: {key} must be an integer, got {val!r}")
        if val < low:
            raise DatasetFormatError(f"meta.json: {key} must be {'positive' if low else 'non-negative'}, got {val}")
        if val > _INT64_MAX:  # past int64, numpy cannot size or index arrays by it
            raise DatasetFormatError(f"meta.json: {key} must be at most 2**63 - 1, got {val}")
        out.append(val)
    n, num_features, num_classes = out
    if (n + 1) * np.dtype(np.int64).itemsize > sys.maxsize:  # numpy refuses to size the graph's row pointer
        raise DatasetFormatError(f"meta.json: n={n} is too large: n + 1 int64 entries exceed the address space")
    return n, num_features, num_classes


def _load_meta(path: Path) -> tuple[int, int, int]:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"meta.json: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    return _check_meta(raw)


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

    try:  # arrays of n + 1 entries, or the files' own arrays, may not fit in memory
        g = from_edge_list(_read_edges(root / "edges.tsv", n), n)
        x = _read_features(root / "features.tsv", n, num_features)
        labels_path = root / "labels.tsv"
        labels: np.ndarray | None = None
        if labels_path.is_file():
            if num_classes < 1:
                raise DatasetFormatError("meta.json: num_classes must be positive when labels.tsv is present")
            labels = _read_labels(labels_path, n, num_classes)
    except MemoryError as exc:
        raise DatasetFormatError(f"out of memory loading the dataset (n={n} nodes)") from exc
    return g, x, labels


def _read_edges(path: Path, n: int) -> np.ndarray | list[tuple[int, int]]:
    """edges.tsv's (u, v) pairs, each id checked against n."""
    raw = _read_bytes(path)
    table = _read_table(path, raw, _EDGE)
    if table is not None and _in_range(table["u"], n) and _in_range(table["v"], n):
        return np.column_stack((table["u"], table["v"]))
    edges = []
    for lineno, fields in _iter_rows(path, raw, 2):
        u = _parse_int("edges.tsv", lineno, fields[0], "node id")
        v = _parse_int("edges.tsv", lineno, fields[1], "node id")
        if not (0 <= u < n and 0 <= v < n):
            _fail("edges.tsv", lineno, f"edge ({u},{v}) out of range for n={n}")
        edges.append((u, v))
    return edges


def _read_features(path: Path, n: int, num_features: int) -> sp.csr_matrix:
    """features.tsv as a canonical (n, num_features) CSR matrix, rejecting duplicate and non-finite entries."""
    raw = _read_bytes(path)
    table = _read_table(path, raw, _FEATURE)
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
    entries: dict[tuple[int, int], float] = {}  # (node, feature) -> value
    for lineno, fields in _iter_rows(path, raw, 3):
        node = _parse_int("features.tsv", lineno, fields[0], "node id")
        feat = _parse_int("features.tsv", lineno, fields[1], "feature index")
        if not 0 <= node < n:
            _fail("features.tsv", lineno, f"node id {node} out of range for n={n}")
        if not 0 <= feat < num_features:
            _fail("features.tsv", lineno, f"feature index {feat} out of range for num_features={num_features}")
        if (node, feat) in entries:
            _fail("features.tsv", lineno, f"duplicate entry for node {node}, feature {feat}")
        try:
            value = float(fields[2])
        except ValueError:
            _fail("features.tsv", lineno, f"value is not a number: {fields[2]!r}")
        if not math.isfinite(value):
            _fail("features.tsv", lineno, f"value is not finite: {fields[2]!r}")
        entries[node, feat] = value
    # the COO -> CSR conversion sorts each row's indices; the pairs are unique
    nodes, feats = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
    values = np.array(list(entries.values()), dtype=np.float64)
    return sp.csr_matrix((values, (nodes, feats)), shape=(n, num_features))


def _read_node_ids(path: Path, n: int, what: str) -> np.ndarray:
    """The node<TAB>id file ``path`` as one non-negative ``what`` per node 0..n-1, every node named once.

    numpy's reader gives an int64 array; ids past int64, which it declines,
    reach the row loop and come back as Python ints in an object array.
    """
    raw = _read_bytes(path)
    table = _read_table(path, raw, _NODE_ID)
    if table is not None and table.size == n and _in_range(table["node"], n) and (table["id"] >= 0).all():
        if np.bincount(table["node"], minlength=n).all():  # each node named once
            ids = np.empty(n, dtype=np.int64)
            ids[table["node"]] = table["id"]
            return ids
    ids = np.full(n, None, dtype=object)  # Python ints, so ids past int64 fit
    for lineno, fields in _iter_rows(path, raw, 2):
        node = _parse_int(path.name, lineno, fields[0], "node id")
        value = _parse_int(path.name, lineno, fields[1], what)
        if not 0 <= node < n:
            _fail(path.name, lineno, f"node id {node} out of range for n={n}")
        if value < 0:
            _fail(path.name, lineno, f"negative {what} {value}")
        if ids[node] is not None:
            _fail(path.name, lineno, f"duplicate entry for node {node}")
        ids[node] = value
    if None in ids:
        raise DatasetFormatError(f"{path.name}: no {what} for node {list(ids).index(None)}")
    return ids


def _read_labels(path: Path, n: int, num_classes: int) -> np.ndarray:
    """labels.tsv as an int64 label below num_classes per node; n is at least 1."""
    labels = _read_node_ids(path, n, "label")
    if labels.max() >= num_classes:
        raise DatasetFormatError(f"labels.tsv: label {labels.max()} out of range for num_classes={num_classes}")
    return labels.astype(np.int64, copy=False)


def load_assignment(path: str | os.PathLike, n: int) -> np.ndarray:
    """Read a node<TAB>cluster file covering nodes 0..n-1 into cluster ids 0..K-1.

    The file's K distinct ids map to 0..K-1 in increasing order, as
    ``evaluate_partition`` maps them. Ids past the int64 range, which
    numpy declines, load too: the row loop reads them as Python ints. Ids
    already 0..K-1 map to themselves.
    """
    clusters = _read_node_ids(Path(path), n, "cluster id")
    return np.unique(clusters, return_inverse=True)[1].astype(np.int64, copy=False)


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
    ``feature_matrix``). ``labels`` are checked by check_ids, so float and
    bool labels are rejected, not cast. meta.json's ``num_classes`` is the
    largest label plus one, or 0 without labels. A dataset ``load_dataset``
    would refuse raises ValueError before anything is written: meta.json's
    counts go through the loader's own check, and feature values must be finite.
    """
    x = feature_matrix(x, g.n)
    if not np.isfinite(x.data).all():
        raise ValueError(f"feature values must be finite, got {x.data[~np.isfinite(x.data)][0]}")
    num_classes = 0
    if labels is not None:
        labels = check_ids(labels, "labels", g.n)
        num_classes = int(labels.max()) + 1 if labels.size else 0
    meta = {"n": g.n, "num_features": int(x.shape[1]), "num_classes": num_classes}
    _check_meta(meta)

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
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
