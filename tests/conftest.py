# tests/conftest.py
from __future__ import annotations

import tempfile
import warnings

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from pottscluster import from_edge_list

# Property tests replay the same examples on every run and keep no example
# database; a handful of examples each keeps the suite fast.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=30)
settings.load_profile("tier1")
# Hypothesis still caches the constants it reads from source files, from
# collection on; a temporary home, removed at exit, keeps that out of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
# When a property fails, hypothesis's pytest plugin imports its patch writer,
# whose libcst import warns about mypy_extensions.TypedDict; under
# filterwarnings = error that warning would abort the session before the
# falsifying example prints. Importing it once here, with that warning
# ignored, leaves every warning raised by the package or the tests an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional; without it nothing is imported
        pass


@pytest.fixture
def two_disjoint_edges():
    return from_edge_list([(0, 1), (2, 3)], 4)


@pytest.fixture
def two_k4s():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
    return from_edge_list(edges, 8)


@pytest.fixture
def two_k3s():
    return from_edge_list([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], 6)


@pytest.fixture
def path4():
    return from_edge_list([(0, 1), (1, 2), (2, 3)], 4)


@pytest.fixture
def triangle():
    return from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
