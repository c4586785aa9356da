# tests/test_same_outputs.py
"""scripts/same_outputs.py on one short ring-10x5 run: a checkout against itself, and against a changed copy."""
from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", REPO / "scripts" / "same_outputs.py")
so = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(so)


@pytest.fixture(autouse=True)
def one_short_run(monkeypatch):
    monkeypatch.setattr(so, "RUNS", (("ring-10x5", {"epochs": 3}, 1),))


def test_a_checkout_against_itself_is_the_same(capsys):
    assert so.main([str(REPO), str(REPO)]) == 0
    out = capsys.readouterr().out
    for name in so.OUTPUTS:
        assert f'ring-10x5-s0 {{"epochs": 3}} --seeds 1: {name} same' in out


def test_a_changed_float_differs(tmp_path, capsys):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    trainer = change / "src" / "pottscluster" / "trainer.py"
    text = trainer.read_text()
    assert "ADAM_EPS = 1e-8\n" in text
    trainer.write_text(text.replace("ADAM_EPS = 1e-8\n", "ADAM_EPS = 1e-7\n"))
    assert so.main([str(REPO), str(change)]) == 1
    assert "trace.csv differs" in capsys.readouterr().out
