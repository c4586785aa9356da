# tests/test_golden.py
"""``pottscluster train``'s output files, and the dataset it trains on, against copies kept under tests/golden/.

A change that should not move any output (a refactor, a speed-up that keeps
the float operations) must pass unedited. The four files ``save_dataset``
writes (tests/golden/data/) and ``assignment.tsv`` must match byte for byte;
every number in ``trace.csv`` and ``metrics.json`` must lie within 1e-12
relative, because the bits hold only per BLAS build and thread count. A
change that moves outputs on purpose rewrites the copies, and says so, with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pottscluster import LOSS_KINDS, adjacency_features, ring_of_cliques, save_dataset
from pottscluster.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = saved_dataset(Path(tmp))
        (GOLDEN / "data").mkdir(exist_ok=True)
        for name in DATA_FILES:
            shutil.copyfile(data / name, GOLDEN / "data" / name)
        for kind in LOSS_KINDS:
            out = train_outputs(Path(tmp), kind)
            (GOLDEN / kind).mkdir(parents=True, exist_ok=True)
            for name in ("trace.csv", "assignment.tsv", "metrics.json"):
                shutil.copyfile(out / name, GOLDEN / kind / name)
