#!/usr/bin/env python3
"""Judge a change against its parent on one benchmark workload, from alternating pairs of runs.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload ring-10x5 --pairs 10 --seed 0
    python3 scripts/ab_pairs.py PARENT CHANGE --workload csbm-cora --pairs 10 --seed 0 --claim epochs_per_s

PARENT and CHANGE are two checkouts of the repository. Pair i runs
``python3 perfbench/run.py --workload W --seed S --trace 0`` once in each,
with S the first seed plus i; even pairs run the parent first, odd pairs the
change. The last line a run prints is its JSON result. Before either run of
a pair, an unmeasured ``--seconds 1`` run in each checkout caches the pair's
dataset there: a run that generates its dataset does so in its own process,
whose peak RSS every ``train`` it launches then reports, so both sides are
measured from a filled cache. Each run has its own session, and SIGTERM,
SIGINT or an error kills the running one's process group before the script
exits non-zero. For each end-to-end
metric in the parent's BENCHMARK.json the script prints every pair, each
side's median and quartiles, the median over pairs of the change's value
over the parent's (the two runs of a pair share the host's state, so this
ratio drifts less than the two medians), the pairs the change won (a tie
counts for neither side), and a verdict on the change's median against the
parent's:

    worse       worse by more than the metric's bound, relative to the parent's median
    within      not worse by more than the bound
    unresolved  the parent's interquartile range, relative to its median, exceeds the
                bound, and not every run of the change reads better than every run of the parent

With --claim METRIC it also prints whether the change won at least nine
tenths of at least ten pairs, and whether its median beats the parent's by
more than the parent's interquartile range. It exits 1 if any run is not
correct. Only the standard library is used.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), with the quartiles interpolated between the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction of ``parent``; negative when better."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(parent)


def pair_ratio(parent: list[float], change: list[float]) -> float:
    """Median over pairs of change[i] / parent[i]; a pair whose parent reads 0 gives 1 if both do, else inf."""
    return statistics.median(c / p if p else (1.0 if c == 0 else math.inf) for p, c in zip(parent, change))


def tally(parent: list[float], change: list[float], better: str) -> tuple[int, int, int]:
    """(pairs the change won, pairs it lost, ties) over pairs (parent[i], change[i])."""
    signs = [worsening(p, c, better) for p, c in zip(parent, change)]
    return sum(s < 0 for s in signs), sum(s > 0 for s in signs), sum(s == 0 for s in signs)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    q1, median, q3 = quartiles(parent)
    every_run_better = all(worsening(p, c, better) < 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(median) and not every_run_better:
        return "unresolved"
    return "worse" if worsening(median, quartiles(change)[1], better) > bound else "within"


def claim(parent: list[float], change: list[float], better: str) -> tuple[bool, bool]:
    """(whether the change won at least nine tenths of at least ten pairs,
    whether its median beats the parent's by more than the parent's interquartile range)."""
    won = tally(parent, change, better)[0]
    q1, median, q3 = quartiles(parent)
    gain = -worsening(median, quartiles(change)[1], better) * abs(median)
    return len(parent) >= MIN_CLAIM_PAIRS and won >= CLAIM_WIN_SHARE * len(parent), gain > q3 - q1


def run_bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    """Run ``python3 perfbench/run.py *args`` in ``checkout``, in a session of its own.

    If waiting for it ends in an exception, its process group, the run and
    every ``train`` it started, is killed first.
    """
    cmd = ["python3", "perfbench/run.py", *args]
    with subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:  # SIGTERM and SIGINT arrive as SystemExit, from _exit_on_signal
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = run_bench(checkout, "--workload", workload, "--seed", str(seed), "--trace", "0")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        result["correct"] = False
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="the first pair's seed")
    parser.add_argument("--claim", metavar="METRIC", help="also judge a claimed gain on this metric")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in spec}:
        parser.error(f"--claim must be one of {[m['name'] for m in spec]}")
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {m["name"]: [] for m in spec} for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:  # unmeasured: each side caches the dataset before either side is measured
            run_bench(sides[side], "--workload", args.workload, "--seed", str(seed), "--seconds", "1")
        for side in order:
            result = run_once(sides[side], args.workload, seed)
            if not result["correct"]:
                print(f"error: the {side} run of pair {i} (seed {seed}) is not correct", file=sys.stderr)
                return 1
            for m in spec:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"pair {i} seed {seed} ({order[0]} first): "
              + "  ".join(f"{m['name']} {values['parent'][m['name']][-1]:.6g} / {values['change'][m['name']][-1]:.6g}"
                          for m in spec), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs from seed {args.seed}, parent / change")
    for m in spec:
        name, better, bound = m["name"], m["better"], m["bound"]
        parent, change = values["parent"][name], values["change"][name]
        won, lost, tied = tally(parent, change, better)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        print(f"{name} ({better} is better, bound {bound:g}): parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}], "
              f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] ({worsening(pmed, cmed, better):+.1%} worse; "
              f"median pair ratio {pair_ratio(parent, change):.4g}); "
              f"change won {won}, lost {lost}, tied {tied}; {verdict(parent, change, better, bound)}")
    if args.claim is not None:
        m = next(m for m in spec if m["name"] == args.claim)
        pairs_ok, margin_ok = claim(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        print(f"claim {args.claim}: won nine tenths of at least {MIN_CLAIM_PAIRS} pairs: {'yes' if pairs_ok else 'no'}; "
              f"median gain beyond the parent's interquartile range: {'yes' if margin_ok else 'no'}")
    return 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _exit_on_signal)
    sys.exit(main())
