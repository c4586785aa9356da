"""Spans recorded around the package's public functions, and their arithmetic.

The train process installs wrappers at the module attribute each caller
looks up (``trainer.forward`` is what ``train`` calls, ``model.spmm`` what
``forward`` calls), so nothing under ``src/`` changes. A span is
(name, parent, start, end) on the CLOCK_MONOTONIC clock that ``time.monotonic``
reads, which the benchmark process shares, so the launch time it records
and the spans compare directly.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""
from __future__ import annotations

import array
import functools
import importlib
import math
import time

import numpy as np

# (module under pottscluster, attribute looked up by its callers, span name)
LIGHT = (
    ("cli", "load_dataset", "dataset.load"),
    ("trainer", "train", "trainer.train"),
)
FULL = LIGHT + (
    ("cli", "run_seeds", "trainer.run_seeds"),
    ("cli", "hard_assign", "metrics.hard_assign"),
    ("trainer", "normalized_adjacency", "graph.normalized_adjacency"),
    ("trainer", "forward", "model.forward"),
    ("trainer", "evaluate_objective", "losses.objective"),
    ("trainer", "backward", "model.backward"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "hard_assign", "metrics.hard_assign"),
    ("trainer", "evaluate_partition", "metrics.evaluate"),
    ("model", "spmm", "graph.spmm"),
    ("losses", "spmm", "graph.spmm"),
)
ROOT = "cli.main"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


class Tracer:
    """Collects spans in memory; ``save`` writes them once the program returns.

    Spans go into one flat array of floats, four per span (name id, parent
    row or -1, start, end). A list per span would leave tens of thousands of
    long-lived lists for the cyclic garbage collector to rescan, which made
    traced ring-10x5 epochs about a quarter slower.
    """

    def __init__(self):
        self.names: list[str] = []
        self.flat = array.array("d")
        self.stack: list[int] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def call(self, name_id: int, fn, *args, **kwargs):
        flat = self.flat
        row = len(flat) // 4
        flat.append(name_id)
        flat.append(self.stack[-1] if self.stack else -1)
        flat.append(time.monotonic())
        flat.append(math.nan)
        self.stack.append(row)
        try:
            return fn(*args, **kwargs)
        finally:
            flat[4 * row + 3] = time.monotonic()
            self.stack.pop()

    def install(self, targets) -> None:
        """Replace each target attribute with a span-recording wrapper."""
        for mod_name, attr, name in targets:
            module = importlib.import_module(f"pottscluster.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, self.name_id(name)))

    def _wrap(self, fn, name_id: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name_id, fn, *args, **kwargs)

        return wrapper

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            rows=np.frombuffer(self.flat, dtype=np.float64).reshape(-1, 4),
            missing=np.array(self.missing, dtype=str),
        )


def load(path):
    """(names, rows, missing) as written by ``Tracer.save``."""
    with np.load(path, allow_pickle=False) as z:
        return [str(n) for n in z["names"]], z["rows"], [str(m) for m in z["missing"]]


def self_times(rows: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = rows[:, 3] - rows[:, 2]
    out = dur.copy()
    parent = rows[:, 1].astype(np.int64)
    has_parent = parent >= 0
    np.subtract.at(out, parent[has_parent], dur[has_parent])
    return out


def split_epochs(names: list[str], rows: np.ndarray):
    """Attribute self time to training epochs.

    Inside each ``trainer.train`` span, epoch 1 starts when the first
    ``losses.objective`` call (the eval-mode record 0) returns, and epoch e
    ends when the e-th ``trainer.adam_step`` returns. Returns
    (per-name self seconds summed over all epochs, per-name call counts in
    epochs, train self seconds in epochs, list of epoch durations).
    """
    ids = {n: i for i, n in enumerate(names)}
    train_id, obj_id, adam_id = (ids.get(n, -1) for n in ("trainer.train", "losses.objective", "trainer.adam_step"))
    selfs = self_times(rows)
    parent = rows[:, 1].astype(np.int64)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        children.setdefault(int(p), []).append(i)

    layer_s: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    train_self = 0.0
    epochs: list[float] = []

    def add_subtree(i: int) -> None:
        name = names[int(rows[i, 0])]
        layer_s[name] = layer_s.get(name, 0.0) + selfs[i]
        layer_calls[name] = layer_calls.get(name, 0) + 1
        for c in children.get(i, ()):
            add_subtree(c)

    for t in np.flatnonzero(rows[:, 0] == train_id):
        kids = children.get(int(t), [])
        start = next((rows[c, 3] for c in kids if rows[c, 0] == obj_id), None)
        if start is None:
            continue
        pending: list[int] = []
        for c in kids:
            if rows[c, 2] < start:
                continue
            pending.append(c)
            if rows[c, 0] == adam_id:
                end = rows[c, 3]
                epochs.append(end - start)
                train_self += (end - start) - sum(rows[p, 3] - rows[p, 2] for p in pending)
                for p in pending:
                    add_subtree(p)
                start, pending = end, []
    return layer_s, layer_calls, train_self, epochs


def tail_percentile(num_samples: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if num_samples * round(1000 - 10 * p) >= 10_000:  # in thousandths, so 99.9 is exact
            return p
    return None


def tail(samples) -> tuple[float, float]:
    """(percentile, value) by the ladder rule; the maximum (100) below 20 samples."""
    samples = np.asarray(samples, dtype=np.float64)
    p = tail_percentile(samples.shape[0])
    if p is None:
        return 100.0, float(samples.max())
    return p, float(np.percentile(samples, p))
