# tests/test_package.py
from __future__ import annotations

import importlib

import pottscluster

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
