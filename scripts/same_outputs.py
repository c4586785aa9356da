#!/usr/bin/env python3
"""Check that a change writes every output byte of ``pottscluster train`` as its parent does.

    python3 scripts/same_outputs.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository. The script generates
the seed-0 dataset of each benchmark workload that ``RUNS`` names once, into
a temporary directory, by calling PARENT's ``perfbench/workloads.dataset_dir``
in a subprocess. It then runs ``python -m pottscluster.cli train`` from each
checkout's ``src/`` (``PYTHONPATH=<checkout>/src``, ``OPENBLAS_NUM_THREADS=1``,
``POTTSCLUSTER_VERBOSE`` unset) on every run of ``RUNS``, and prints ``same``
or ``differs`` for each of its trace.csv, assignment.tsv and metrics.json. It
exits 1 if any file differs or any run exits non-zero. Only the standard
library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (workload, --config contents, --seeds): the default run of each benchmark
# workload, then ring-10x5 without dropout and with each other loss
RUNS = (
    ("ring-10x5", {}, 4),
    ("csbm-cora", {"epochs": 8}, 3),
    ("ring-10x5", {"dropout_keep": 1.0, "epochs": 50}, 2),
    ("ring-10x5", {"loss": "mincut_ortho", "gamma_init": 0.1, "epochs": 3}, 2),
    ("ring-10x5", {"loss": "dmon", "epochs": 20}, 2),
)
OUTPUTS = ("trace.csv", "assignment.tsv", "metrics.json")

_GENERATE = """
import sys
from pathlib import Path
import workloads
for name in sys.argv[2:]:
    print(workloads.dataset_dir(Path(sys.argv[1]), workloads.WORKLOADS[name], 0))
"""


def _env(checkout: Path, *paths: str) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "POTTSCLUSTER_VERBOSE"}
    env["PYTHONPATH"] = os.pathsep.join(str(checkout / p) for p in paths)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def generate(parent: Path, root: Path, names: list[str]) -> dict[str, Path]:
    """The seed-0 dataset directory of each workload in ``names``, made under ``root`` by PARENT's generator."""
    proc = subprocess.run([sys.executable, "-c", _GENERATE, str(root), *names], env=_env(parent, "src", "perfbench"),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: generating the datasets failed:\n{proc.stderr}")
    return dict(zip(names, map(Path, proc.stdout.splitlines())))


def train(checkout: Path, data: Path, config: Path, seeds: int, out: Path) -> bool:
    """Run ``pottscluster train`` from ``checkout``'s src/; whether it exited 0."""
    cmd = [sys.executable, "-m", "pottscluster.cli", "train", "--data", str(data), "--out", str(out),
           "--config", str(config), "--seeds", str(seeds)]
    proc = subprocess.run(cmd, env=_env(checkout, "src"), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    ok = True
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        root = Path(tmp)
        data = generate(sides["parent"], root / "data", sorted({workload for workload, _, _ in RUNS}))
        for i, (workload, config, seeds) in enumerate(RUNS):
            run = f"{workload}-s0 {json.dumps(config)} --seeds {seeds}"
            config_file = root / f"config{i}.json"
            config_file.write_text(json.dumps(config), encoding="utf-8")
            outs = {side: root / f"run{i}-{side}" for side in sides}
            failed = [side for side, checkout in sides.items()
                      if not train(checkout, data[workload], config_file, seeds, outs[side])]
            if failed:
                print(f"{run}: the {' and the '.join(failed)} run exited non-zero", flush=True)
                ok = False
                continue
            for name in OUTPUTS:
                same = (outs["parent"] / name).read_bytes() == (outs["change"] / name).read_bytes()
                print(f"{run}: {name} {'same' if same else 'differs'}", flush=True)
                ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
