# tests/test_package.py
from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import pottscluster
from pottscluster import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("dataset", "graph", "losses", "metrics", "model", "trainer")


def test_all_is_the_modules_lists_without_duplicates():
    names = pottscluster.__all__
    assert len(names) == len(set(names))
    expected = [n for m in MODULES for n in importlib.import_module(f"pottscluster.{m}").__all__]
    assert names == expected + ["__version__"]
    assert "write_atomic" not in names


def test_every_exported_name_resolves():
    for name in pottscluster.__all__:
        assert getattr(pottscluster, name) is not None, name


def test_library_use_names_import_from_package():
    # the names README "Library use" calls importable
    from pottscluster import (  # noqa: F401
        AdamState,
        ModelParams,
        SeedRun,
        TrainConfig,
        adam_step,
        adjacency_features,
        backward,
        collapse_reg,
        evaluate_objective,
        forward,
        load_assignment,
        normalized_adjacency,
        one_hot_degree_features,
        potts_loss,
        ring_of_cliques,
        run_seeds,
        spmm,
        train,
    )


def test_version_is_stated_once():
    # pyproject.toml reads the version from the package instead of repeating it
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"] and meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "pottscluster.__version__"}


def test_readme_configuration_table_matches_train_config():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and not set(line) <= set("|- ") and cells[0] != "key":
            rows.append((cells[0], cells[1]))
    assert rows == [(f.name, str(f.default)) for f in dataclasses.fields(TrainConfig)]


def test_only_graph_names_scipys_private_kernels():
    # scipy's private kernel module is an implementation detail of one helper
    users = sorted(p.name for p in (ROOT / "src" / "pottscluster").glob("*.py") if "_sparsetools" in p.read_text())
    assert users == ["graph.py"]


def test_only_dataset_reads_files():
    # the program's file formats, its JSON files among them, are read in one module
    reads = ("read_text(", "read_bytes(", "open(", "json.load(", "json.loads(")
    readers = sorted(p.name for p in (ROOT / "src" / "pottscluster").glob("*.py")
                     if any(call in p.read_text() for call in reads))
    assert readers == ["dataset.py"]
