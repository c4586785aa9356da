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
``read_json_object`` reads meta.json and the CLI's ``--config`` file.

The format is deliberately plain so converters from public benchmark
archives can be written in any language.

Each .tsv file may hold only printable ASCII, tabs and line ends (\\n,
\\r\\n or \\r); a non-blank line is one record of tab-separated decimal
numerals as numpy reads them into int64 and float64. Each file is read
once and parsed by one ``np.loadtxt`` call, array operations check the
values, and every error names the file and, where it has one, the line.
"""
from __future__ import annotations

import io
import json
import os
import re
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


_INT64_MAX = np.iinfo(np.int64).max
_TEXT = bytes(range(0x20, 0x7F)) + b"\t\n\r"  # the bytes a .tsv file may hold
# each table's records, which _read_table parses and _write_table writes
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_NODE_ID = np.dtype([("node", np.int64), ("id", np.int64)])  # labels.tsv and assignment files
_FEATURE = np.dtype([("node", np.int64), ("feature", np.int64), ("value", np.float64)])


def _line(raw: bytes, record: int) -> tuple[int, list[str]]:
    """The 1-based number and the fields of the line of ``raw`` holding ``record``; blank lines hold none."""
    lines = raw.splitlines()  # at \n, \r\n and \r, as Python's text files split them
    lineno = [i for i, line in enumerate(lines, start=1) if line][record]
    return lineno, lines[lineno - 1].decode("ascii").split("\t")


def _read_table(path: Path, row: np.dtype, what: tuple[str, ...]) -> tuple[np.ndarray, bytes]:
    """The file ``path``, read once so a pipe loads too, as records of ``row``, one per non-blank line, and its bytes.

    ``what`` names each column in messages. The bytes numpy parses may hold
    only printable ASCII, tabs and line ends; numpy would read some other
    characters as digits of another value. ``comments=None`` keeps a ``#`` line a record.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    other = raw.translate(None, _TEXT)  # the other bytes, in file order
    if other:
        at = raw.index(other[:1])  # the byte's line is the last of the lines up to it
        _fail(path.name, len(raw[: at + 1].splitlines()),
              f"byte 0x{other[0]:02x} is not printable ASCII, tab or line end")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy from 1.23 until that deprecation expired reads an integer field
        # such as "1.5" through a float, warning only, without a row
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            text = io.TextIOWrapper(io.BytesIO(raw), encoding="ascii")  # lines end at \n, \r\n and \r
            return np.loadtxt(text, dtype=row, delimiter="\t", comments=None, ndmin=1), raw
        except DeprecationWarning:
            raise DatasetFormatError(f"{path.name}: an id or index is not an integer") from None
        except ValueError as exc:
            at = re.search(r"at row (\d+)(?:, column (\d+))?", str(exc))
            if at is None:
                raise DatasetFormatError(f"{path.name}: {exc}") from None
            if at[2] is None:  # a wrong field count, at a 1-based record
                lineno, fields = _line(raw, int(at[1]) - 1)
                _fail(path.name, lineno, f"expected {len(what)} tab-separated fields, got {len(fields)}")
            lineno, fields = _line(raw, int(at[1]))  # a field numpy cannot convert: a 0-based record, a 1-based column
            col = int(at[2]) - 1
            kind = "a number" if row[col].kind == "f" else "an integer"
            _fail(path.name, lineno, f"{what[col]} is not {kind}: {fields[col]!r}")


def _fail_first(path: Path, raw: bytes, bad: np.ndarray, problem) -> None:
    """Fail at the line of the first record ``bad`` flags, with ``problem(record)``."""
    if bad.any():
        record = int(bad.argmax())
        _fail(path.name, _line(raw, record)[0], problem(record))


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Which records hold the keys of an earlier record."""
    order = np.lexsort(keys[::-1])  # stable: records with equal keys keep their order
    repeats = np.zeros(keys[0].size, dtype=bool)
    repeats[order[1:]] = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in keys])
    return repeats


def _check_meta(raw: dict) -> tuple[int, int, int]:
    """meta.json's (n, num_features, num_classes), as read or about to be written, each checked in that order."""
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
    n, num_features, num_classes = _check_meta(read_json_object(root / "meta.json", "meta.json", DatasetFormatError))

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


def _read_edges(path: Path, n: int) -> np.ndarray:
    """edges.tsv's (u, v) pairs, each id checked against n."""
    table, raw = _read_table(path, _EDGE, ("node id", "node id"))
    u, v = table["u"], table["v"]
    _fail_first(path, raw, (u < 0) | (u >= n) | (v < 0) | (v >= n),
                lambda i: f"edge ({u[i]},{v[i]}) out of range for n={n}")
    return np.column_stack((u, v))


def _read_features(path: Path, n: int, num_features: int) -> sp.csr_matrix:
    """features.tsv as a canonical (n, num_features) CSR matrix, rejecting duplicate and non-finite entries."""
    table, raw = _read_table(path, _FEATURE, ("node id", "feature index", "value"))
    node, feat, value = table["node"], table["feature"], table["value"]
    _fail_first(path, raw, (node < 0) | (node >= n), lambda i: f"node id {node[i]} out of range for n={n}")
    _fail_first(path, raw, (feat < 0) | (feat >= num_features),
                lambda i: f"feature index {feat[i]} out of range for num_features={num_features}")
    _fail_first(path, raw, ~np.isfinite(value), lambda i: f"value is not finite: {_line(raw, i)[1][2]!r}")
    # the COO -> CSR conversion sorts each row's indices and sums duplicates
    x = sp.csr_matrix((value, (node, feat)), shape=(n, num_features))
    if x.nnz < table.size:  # some (node, feature) pair was given twice
        _fail_first(path, raw, _repeats(node, feat), lambda i: f"duplicate entry for node {node[i]}, feature {feat[i]}")
    return x


def _read_node_ids(path: Path, n: int, what: str) -> np.ndarray:
    """The node<TAB>id file ``path`` as one non-negative int64 ``what`` per node 0..n-1, every node named once."""
    table, raw = _read_table(path, _NODE_ID, ("node id", what))
    node, ids = table["node"], table["id"]
    _fail_first(path, raw, (node < 0) | (node >= n), lambda i: f"node id {node[i]} out of range for n={n}")
    _fail_first(path, raw, ids < 0, lambda i: f"negative {what} {ids[i]}")
    named = np.bincount(node, minlength=n)
    if node.size > np.count_nonzero(named):  # some node named twice
        _fail_first(path, raw, _repeats(node), lambda i: f"duplicate entry for node {node[i]}")
    if node.size < n:
        raise DatasetFormatError(f"{path.name}: no {what} for node {named.argmin()}")
    out = np.empty(n, dtype=np.int64)
    out[node] = ids
    return out


def _read_labels(path: Path, n: int, num_classes: int) -> np.ndarray:
    """labels.tsv as an int64 label below num_classes per node; n is at least 1."""
    labels = _read_node_ids(path, n, "label")
    if labels.max() >= num_classes:
        raise DatasetFormatError(f"labels.tsv: label {labels.max()} out of range for num_classes={num_classes}")
    return labels


def load_assignment(path: str | os.PathLike, n: int) -> np.ndarray:
    """Read a node<TAB>cluster file covering nodes 0..n-1 into cluster ids 0..K-1.

    The file's K distinct ids, each within int64, map to 0..K-1 in
    increasing order, as ``evaluate_partition`` maps them. Ids already
    0..K-1 map to themselves.
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


def read_json_object(path: str | os.PathLike, name: str, error: type[ValueError] = ValueError) -> dict:
    """The JSON object the UTF-8 file ``path`` holds, or ``error`` naming the file as ``name``.

    An object at any depth that repeats a key is refused, naming the key,
    where json would keep the last value.
    """

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{name}: repeated key {json.dumps(key)}")
            obj[key] = value
        return obj

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested past the parser's depth
        raise error(f"{name}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {name}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{name} must hold a JSON object")
    return raw


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_table(path: Path, row: np.dtype, *columns: np.ndarray) -> None:
    """Write ``columns`` as records of ``row``, one tab-separated line each: ints as digits, floats as %.17g."""
    line = "\t".join("%.17g" if row[name].kind == "f" else "%d" for name in row.names) + "\n"
    fields = [np.asarray(column, dtype=row[name]).tolist() for name, column in zip(row.names, columns)]
    write_atomic(path, "".join(line % record for record in zip(*fields)))  # one record's tuple at a time


def write_node_ids(path: Path, ids: np.ndarray) -> None:
    """Write ids[i] as node i's id, the layout of labels.tsv and assignment files."""
    _write_table(path, _NODE_ID, np.arange(ids.size), ids)


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
    largest label plus one, or 0 without labels, when an earlier labels.tsv
    is removed. A dataset ``load_dataset`` would refuse raises ValueError
    before anything is written: meta.json's counts go through the loader's
    own check, and feature values must be finite.
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
    if labels is None:  # the loader refuses an earlier labels.tsv beside num_classes 0
        (root / "labels.tsv").unlink(missing_ok=True)
    write_atomic(root / "meta.json", json.dumps(meta, indent=2) + "\n")

    src = g.arc_sources()
    keep = src < g.col_idx
    _write_table(root / "edges.tsv", _EDGE, src[keep], g.col_idx[keep])
    _write_table(root / "features.tsv", _FEATURE, np.repeat(np.arange(g.n), np.diff(x.indptr)), x.indices, x.data)
    if labels is not None:
        write_node_ids(root / "labels.tsv", labels)


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
