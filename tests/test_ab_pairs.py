# tests/test_ab_pairs.py
"""The verdict arithmetic of scripts/ab_pairs.py, on synthetic pairs and on stub checkouts."""
from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

STEADY = [1.0] * 10


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (STEADY, [1.3] * 10, "lower", "worse"),
        (STEADY, [1.2] * 10, "lower", "within"),
        (STEADY, [0.5] * 10, "lower", "within"),
        ([100.0] * 10, [70.0] * 10, "higher", "worse"),
        ([100.0] * 10, [80.0] * 10, "higher", "within"),
        ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [2.0] * 10, "lower", "unresolved"),  # IQR 0.4 of median 1.0
        ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [0.7] * 10, "lower", "unresolved"),
        ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [0.5] * 10, "lower", "within"),  # every change run is better
        (STEADY, STEADY, "lower", "within"),
    ],
)
def test_verdict(parent, change, better, expected):
    assert ab.verdict(parent, change, better, 0.25) == expected


def test_quartiles_and_worsening():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.worsening(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert ab.worsening(2.0, 2.5, "higher") == pytest.approx(-0.25)
    assert ab.worsening(0.0, 0.0, "lower") == 0.0 and ab.worsening(0.0, 1.0, "lower") == math.inf


def test_pair_ratio_is_the_median_of_per_pair_ratios():
    # the medians are 2 and 2, but the change read 0.8x its pair's parent in two of three pairs
    assert ab.pair_ratio([1.0, 2.0, 3.0], [0.8, 3.0, 2.4]) == pytest.approx(0.8)
    assert ab.pair_ratio([0.0, 0.0, 1.0], [0.0, 1.0, 2.0]) == 2.0  # 0/0 counts as 1, x/0 as inf


def test_ties_count_for_neither_side():
    parent = [1.0, 1.0, 1.0, 2.0]
    change = [0.5, 1.0, 1.5, 2.0]
    assert ab.tally(parent, change, "lower") == (1, 1, 2)
    assert ab.tally(parent, change, "higher") == (1, 1, 2)


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        (STEADY, [0.8] * 9 + [1.1], (True, True)),  # nine of ten won, median 0.8 against a zero-width IQR
        (STEADY, [0.8] * 8 + [1.1] * 2, (False, True)),
        (STEADY, [0.8] * 9 + [1.0], (True, True)),
        (STEADY, [0.8] * 8 + [1.0] * 2, (False, True)),  # a tie is not a win
        ([0.8, 0.9, 1.0, 1.1, 1.2] * 2, [0.9, 1.0, 1.1, 1.2, 1.3] * 2, (False, False)),
        # won every pair, but by 0.05 against the parent's IQR of 0.2
        ([0.9, 1.0, 1.1, 1.2, 1.3] * 2, [0.85, 0.95, 1.05, 1.15, 1.25] * 2, (True, False)),
    ],
)
def test_claim(parent, change, expected):
    assert ab.claim(parent, change, "lower") == expected


def test_claim_needs_ten_pairs():
    assert ab.claim([1.0] * 9, [0.5] * 9, "lower") == (False, True)


def stub_checkout(root: Path, wall_s: dict[int, float], correct: bool = True) -> Path:
    """A checkout whose perfbench/run.py prints a fixed result per seed and logs its call order."""
    (root / "perfbench").mkdir(parents=True)
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        f"with open({str(root.parent / 'calls')!r}, 'a') as fh: fh.write({root.name!r} + '\\n')\n"
        "print('human-readable lines first')\n"
        f"print(json.dumps({{'correct': {correct}, 'metrics': {{'wall_s': {{'value': {wall_s!r}[seed]}}}}}}))\n"
    )
    return root


def test_pairs_alternate_and_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab.subprocess, "run", _python3_as_this_interpreter(ab.subprocess.run))
    parent = stub_checkout(tmp_path / "parent", {5: 1.0, 6: 1.0, 7: 1.0})
    change = stub_checkout(tmp_path / "change", {5: 1.5, 6: 1.0, 7: 0.9})
    assert ab.main([str(parent), str(change), "--workload", "w", "--pairs", "3", "--seed", "5"]) == 0
    assert (tmp_path / "calls").read_text().split() == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "pair 1 seed 6 (change first): wall_s 1 / 1" in out
    assert "(+0.0% worse; median pair ratio 1); change won 1, lost 1, tied 1; within" in out


def test_incorrect_run_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(ab.subprocess, "run", _python3_as_this_interpreter(ab.subprocess.run))
    parent = stub_checkout(tmp_path / "parent", {0: 1.0})
    change = stub_checkout(tmp_path / "change", {0: 1.0}, correct=False)
    assert ab.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_a_usage_error(tmp_path, capsys, pairs):
    parent = stub_checkout(tmp_path / "parent", {0: 1.0})
    with pytest.raises(SystemExit) as exit_:
        ab.main([str(parent), str(parent), "--workload", "w", "--pairs", pairs])
    assert exit_.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err
    assert not (tmp_path / "calls").exists()


def _python3_as_this_interpreter(run):
    def patched(cmd, **kwargs):
        return run([sys.executable, *cmd[1:]], **kwargs)
    return patched
