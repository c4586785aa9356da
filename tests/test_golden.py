# tests/test_golden.py
"""``pottscluster train``'s output files, and the dataset it trains on, against copies kept under tests/golden/.

A change that should not move any output (a refactor, a speed-up that keeps
the float operations) must pass unedited. The four files ``save_dataset``
writes (tests/golden/data/) and ``assignment.tsv`` must match byte for byte;
every number in ``trace.csv`` and ``metrics.json`` must lie within 1e-12
relative, because the bits hold only per BLAS build and thread count. A
change that moves outputs on purpose rewrites the copies, and says so, with

    PYTHONPATH=src python tests/test_golden.py

which prints, per loss kind, whether ``assignment.tsv`` changed and the
largest absolute and relative change of any number in ``trace.csv`` and
``metrics.json`` against the copies it replaces.

Training runs in float32; the same runs in float64 must give the same
``assignment.tsv`` and every number within TOLERANCE.
"""
from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pottscluster import LOSS_KINDS, adjacency_features, ring_of_cliques, save_dataset, trainer
from pottscluster.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12
TOLERANCE = 1e-5  # declared agreement of float32 training with float64, absolute, per number
DATA_FILES = ("meta.json", "edges.tsv", "features.tsv", "labels.tsv")


def saved_dataset(root: Path) -> Path:
    """``root``/data, written once by ``save_dataset`` from ring(4, 3) with A + I features and labels."""
    data = root / "data"
    if not data.exists():
        g, labels = ring_of_cliques(4, 3)
        save_dataset(data, g, adjacency_features(g), labels)
    return data


def train_outputs(root: Path, loss: str) -> Path:
    """Run ``train`` in-process on ``saved_dataset``, 2 seeds, 30 epochs, k 4; return --out."""
    data, config, out = saved_dataset(root), root / f"{loss}.json", root / loss
    config.write_text(json.dumps({"epochs": 30, "k": 4, "loss": loss}))
    argv = ["train", "--data", str(data), "--out", str(out), "--config", str(config), "--seeds", "2"]
    assert main(argv) == 0
    return out


def leaves(obj, path=()):
    """(path, value) for every scalar in a JSON document, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    else:
        yield path, obj


def numbers(out: Path) -> dict:
    """Every number in ``out``'s trace.csv and metrics.json, keyed by file and position."""
    header, *rows = (out / "trace.csv").read_text().splitlines()
    found = {("trace.csv", i, name): float(value)
             for i, row in enumerate(rows) for name, value in zip(header.split(","), row.split(","))}
    for path, value in leaves(json.loads((out / "metrics.json").read_text())):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            found[("metrics.json", *path)] = float(value)
    return found


def changes(old: Path, new: Path) -> str:
    """Whether assignment.tsv differs between two --out directories, and the largest change of any number."""
    moved = (old / "assignment.tsv").read_bytes() != (new / "assignment.tsv").read_bytes()
    before, after = numbers(old), numbers(new)
    if before.keys() != after.keys():
        return f"assignment.tsv {'changed' if moved else 'unchanged'}; the numbers' layout changed"
    diffs = [(abs(after[key] - before[key]), abs(before[key])) for key in before if after[key] != before[key]]
    largest = max((d for d, _ in diffs), default=0.0)
    relative = max((d / old if old else math.inf for d, old in diffs), default=0.0)
    return (f"assignment.tsv {'changed' if moved else 'unchanged'}; largest change of a number in trace.csv"
            f" and metrics.json: {largest:.3g} absolute, {relative:.3g} relative")


def test_saved_dataset_matches_golden(tmp_path):
    data = saved_dataset(tmp_path)
    for name in DATA_FILES:
        assert (data / name).read_bytes() == (GOLDEN / "data" / name).read_bytes(), name


@pytest.mark.parametrize("loss", LOSS_KINDS)
def test_train_outputs_match_golden(tmp_path, loss):
    out, want = train_outputs(tmp_path, loss), GOLDEN / loss
    assert (out / "assignment.tsv").read_bytes() == (want / "assignment.tsv").read_bytes()

    got_rows, want_rows = ((d / "trace.csv").read_text().splitlines() for d in (out, want))
    assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows) == 32
    got_trace, want_trace = (np.array([row.split(",") for row in rows[1:]], dtype=np.float64)
                             for rows in (got_rows, want_rows))
    np.testing.assert_allclose(got_trace, want_trace, rtol=REL, atol=0)

    got, expected = (list(leaves(json.loads((d / "metrics.json").read_text()))) for d in (out, want))
    assert [path for path, _ in got] == [path for path, _ in expected]
    for (path, value), (_, golden) in zip(got, expected):
        if isinstance(golden, float):
            assert value == pytest.approx(golden, rel=REL, abs=0), path
        else:
            assert value == golden, path


@pytest.mark.parametrize("loss", LOSS_KINDS)
def test_float32_training_agrees_with_float64(tmp_path, monkeypatch, loss):
    assert trainer.DTYPE is np.float32
    shipped = train_outputs(tmp_path / "float32", loss)
    monkeypatch.setattr(trainer, "DTYPE", np.float64)
    wide = train_outputs(tmp_path / "float64", loss)
    assert (shipped / "assignment.tsv").read_bytes() == (wide / "assignment.tsv").read_bytes()
    got, want = numbers(shipped), numbers(wide)
    assert got.keys() == want.keys()
    worst = max(want, key=lambda key: abs(got[key] - want[key]))
    assert abs(got[worst] - want[worst]) <= TOLERANCE, worst


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = saved_dataset(Path(tmp))
        (GOLDEN / "data").mkdir(exist_ok=True)
        for name in DATA_FILES:
            shutil.copyfile(data / name, GOLDEN / "data" / name)
        for kind in LOSS_KINDS:
            out = train_outputs(Path(tmp), kind)
            print(f"{kind}: {changes(GOLDEN / kind, out) if (GOLDEN / kind).exists() else 'new copies'}")
            (GOLDEN / kind).mkdir(parents=True, exist_ok=True)
            for name in ("trace.csv", "assignment.tsv", "metrics.json"):
                shutil.copyfile(out / name, GOLDEN / kind / name)
