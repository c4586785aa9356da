# pottscluster/cli.py
"""Command-line front end.

    pottscluster train --data DIR --out DIR [--config FILE] [--seeds N]
    pottscluster eval  --data DIR --assignment FILE
    pottscluster gen ring-of-cliques --cliques C --size S --out DIR
    pottscluster gen sbm --sizes A,B,... --p-in P --p-out Q [--seed S] --out DIR

Exit codes: 0 success, 2 usage or config error, 3 dataset error (a dataset
without edges included), 4 training diverged. Set POTTSCLUSTER_VERBOSE=1 for
progress messages on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    DatasetFormatError,
    load_assignment,
    load_dataset,
    one_hot_degree_features,
    save_dataset,
    write_atomic,
)
from .graph import Graph, ring_of_cliques, sbm
from .metrics import evaluate_partition, hard_assign
from .trainer import EpochRecord, TrainConfig, TrainDivergedError, run_seeds

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_DIVERGED = 4

TRACE_FIELDS = [f.name for f in dataclasses.fields(EpochRecord)]


def _verbose() -> bool:
    return os.environ.get("POTTSCLUSTER_VERBOSE", "") not in ("", "0")


def _log(msg: str) -> None:
    if _verbose():
        print(msg, file=sys.stderr)


def _load_config(path: str | None) -> TrainConfig:
    if path is None:
        return TrainConfig()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return TrainConfig.from_dict(raw)


def _load_graph_dataset(path: str):
    """load_dataset, rejecting a graph without edges: the objectives and modularity need one."""
    g, x, labels = load_dataset(path)
    if g.m == 0:
        raise DatasetFormatError(f"dataset {path} has no edges")
    return g, x, labels


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.seeds < 1:
        raise ValueError(f"--seeds must be positive, got {args.seeds}")
    g, x, labels = _load_graph_dataset(args.data)
    _log(f"loaded {args.data}: n={g.n}, m={g.m}, features={x.shape[1]}")

    sweep = run_seeds(g, x, config, args.seeds, labels)
    for run in sweep.runs:
        _log(f"seed {run.seed}: total={run.trace.records[-1].total:.6f} gamma={run.trace.gamma_final:.4f}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    base = sweep.runs[0]
    # one column per EpochRecord field; .17g prints the int epoch as its digits
    rows = [",".join(TRACE_FIELDS)]
    for r in base.trace.records:
        rows.append(",".join(f"{getattr(r, name):.17g}" for name in TRACE_FIELDS))
    write_atomic(out / "trace.csv", "\n".join(rows) + "\n")

    pred = hard_assign(base.trace.final_assignment)
    assign_lines = [f"{i}\t{int(c)}" for i, c in enumerate(pred)]
    write_atomic(out / "assignment.tsv", "\n".join(assign_lines) + "\n")

    payload = {
        "config": dataclasses.asdict(config),
        "num_seeds": args.seeds,
        "per_seed": [run.summary() for run in sweep.runs],
        "aggregate": {"mean": sweep.mean, "std": sweep.std},
    }
    write_atomic(out / "metrics.json", json.dumps(payload, indent=2) + "\n")
    _log(f"wrote trace.csv, assignment.tsv, metrics.json to {out}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    g, _, labels = _load_graph_dataset(args.data)
    pred = load_assignment(args.assignment, g.n)
    report = evaluate_partition(g, pred, labels)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK


def _write_generated(out: str, g: Graph, labels: np.ndarray) -> None:
    save_dataset(out, g, one_hot_degree_features(g), labels)
    _log(f"wrote dataset to {out}: n={g.n}, m={g.m}")


def _cmd_gen_ring(args: argparse.Namespace) -> int:
    g, labels = ring_of_cliques(args.cliques, args.size)
    _write_generated(args.out, g, labels)
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise ValueError("--sizes must name at least one block")
    return sizes


def _cmd_gen_sbm(args: argparse.Namespace) -> int:
    g, labels = sbm(_parse_sizes(args.sizes), args.p_in, args.p_out, args.seed)
    _write_generated(args.out, g, labels)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottscluster",
        description="Graph clustering via a Potts-objective graph-conv encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a dataset directory")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", default=None, help="JSON file of TrainConfig fields")
    p_train.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="score an assignment file against a dataset")
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--assignment", required=True, help="node<TAB>cluster file")
    p_eval.set_defaults(func=_cmd_eval)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset directory")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    p_ring = gen_sub.add_parser("ring-of-cliques", help="c cliques of size s joined in a ring")
    p_ring.add_argument("--cliques", type=int, required=True)
    p_ring.add_argument("--size", type=int, required=True)
    p_ring.add_argument("--out", required=True)
    p_ring.set_defaults(func=_cmd_gen_ring)

    p_sbm = gen_sub.add_parser("sbm", help="stochastic block model sample")
    p_sbm.add_argument("--sizes", required=True, help="comma-separated block sizes")
    p_sbm.add_argument("--p-in", type=float, required=True)
    p_sbm.add_argument("--p-out", type=float, required=True)
    p_sbm.add_argument("--seed", type=int, default=0)
    p_sbm.add_argument("--out", required=True)
    p_sbm.set_defaults(func=_cmd_gen_sbm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except TrainDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
