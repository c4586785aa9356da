# tests/test_ab_pairs.py
"""The verdict arithmetic of scripts/ab_pairs.py, on synthetic pairs, and its runs, on stub checkouts."""
from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
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
    """A checkout whose perfbench/run.py prints a fixed result per seed and logs its call order.

    Like the real harness, a run caches its seed's dataset in the checkout; a run
    that finds none reads twice its seed's ``wall_s``, as a generated dataset raises
    the real runs' peak RSS. A ``--seconds`` run logs itself as a warm-up.
    """
    (root / "perfbench").mkdir(parents=True)
    (root / "cache").mkdir()
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "cached = os.path.exists(f'cache/s{seed}')\n"
        "open(f'cache/s{seed}', 'a').close()\n"
        "call = '-warm-up' if '--seconds' in sys.argv else ''\n"
        f"with open({str(root.parent / 'calls')!r}, 'a') as fh: fh.write({root.name!r} + call + '\\n')\n"
        "print('human-readable lines first')\n"
        f"value = {wall_s!r}[seed] * (1 if cached else 2)\n"
        f"print(json.dumps({{'correct': {correct}, 'metrics': {{'wall_s': {{'value': value}}}}}}))\n"
    )
    return root


def test_pairs_alternate_and_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab.subprocess, "Popen", _python3_as_this_interpreter(ab.subprocess.Popen))
    parent = stub_checkout(tmp_path / "parent", {5: 1.0, 6: 1.0, 7: 1.0})
    change = stub_checkout(tmp_path / "change", {5: 1.5, 6: 1.0, 7: 0.9})
    assert ab.main([str(parent), str(change), "--workload", "w", "--pairs", "3", "--seed", "5"]) == 0
    assert (tmp_path / "calls").read_text().split() == [
        "parent-warm-up", "change-warm-up", "parent", "change",
        "change-warm-up", "parent-warm-up", "change", "parent",
        "parent-warm-up", "change-warm-up", "parent", "change",
    ]
    out = capsys.readouterr().out
    assert "pair 1 seed 6 (change first): wall_s 1 / 1" in out
    assert "(+0.0% worse; median pair ratio 1); change won 1, lost 1, tied 1; within" in out


def test_both_sides_are_measured_from_a_filled_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab.subprocess, "Popen", _python3_as_this_interpreter(ab.subprocess.Popen))
    parent = stub_checkout(tmp_path / "parent", {0: 1.0, 1: 1.0})
    change = stub_checkout(tmp_path / "change", {0: 1.0, 1: 1.0})
    for seed in (0, 1):  # only the parent holds the datasets
        (parent / "cache" / f"s{seed}").touch()
    assert ab.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "pair 0 seed 0 (parent first): wall_s 1 / 1" in out
    assert "pair 1 seed 1 (change first): wall_s 1 / 1" in out


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_kills_the_running_benchmark_and_its_children(tmp_path, signum):
    # three processes: the script, the stub run.py it launches, and the stub's sleeping child
    python3 = tmp_path / "bin" / "python3"
    python3.parent.mkdir()
    python3.symlink_to(sys.executable)
    parent, change = stub_checkout(tmp_path / "parent", {0: 1.0}), stub_checkout(tmp_path / "change", {0: 1.0})
    pids_file = tmp_path / "pids"
    (parent / "perfbench" / "run.py").write_text(
        "import os, subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"with open({str(pids_file)!r} + '.tmp', 'w') as fh: fh.write(f'{{os.getpid()}} {{child.pid}}')\n"
        f"os.replace({str(pids_file)!r} + '.tmp', {str(pids_file)!r})\n"
        "time.sleep(60)\n"
    )
    env = {**os.environ, "PATH": f"{python3.parent}{os.pathsep}{os.environ.get('PATH', '')}"}
    script = subprocess.Popen([sys.executable, str(SCRIPT), str(parent), str(change), "--workload", "w"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 10
        while not pids_file.exists():
            assert script.poll() is None and time.monotonic() < deadline, "the stub run never started"
            time.sleep(0.05)
        pids = [int(pid) for pid in pids_file.read_text().split()]
        script.send_signal(signum)
        assert script.wait(timeout=10) == 128 + signum
        deadline = time.monotonic() + 5
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
    finally:
        script.kill()
        script.wait()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, which has exited and waits for its parent to reap it, does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no /proc: a process that takes signals runs
        return True


def test_incorrect_run_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(ab.subprocess, "Popen", _python3_as_this_interpreter(ab.subprocess.Popen))
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


def _python3_as_this_interpreter(popen):
    def patched(cmd, **kwargs):
        return popen([sys.executable, *cmd[1:]], **kwargs)
    return patched
