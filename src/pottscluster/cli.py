# pottscluster/cli.py
"""Command-line front end.

    pottscluster train --data DIR --out DIR [--config FILE] [--seeds N]
    pottscluster eval  --data DIR --assignment FILE
    pottscluster gen ring-of-cliques --cliques C --size S --out DIR
    pottscluster gen sbm --sizes A,B,... --p-in P --p-out Q [--seed S] --out DIR

Exit codes: 0 success, 2 usage or config error or an unwritable output
path, 3 dataset error (a dataset without edges included), 4 training
diverged. Set POTTSCLUSTER_VERBOSE=1 for progress messages on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from .dataset import (
    DatasetFormatError,
    adjacency_features,
    load_assignment,
    load_dataset,
    read_json_object,
    save_dataset,
    write_atomic,
    write_node_ids,
)
from .graph import ring_of_cliques, sbm
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
    return TrainConfig.from_dict(read_json_object(path, f"config file {path}"))


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
    if not config.weights_fit(x.shape[1]):
        raise DatasetFormatError(f"num_features={x.shape[1]} is too large: the weights exceed the address space")
    # fail on an unusable --out before training, not after it
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)

    try:
        sweep = run_seeds(g, x, config, args.seeds, labels)
    except BaseException as exc:  # a failed run leaves no directory it made, and rmdir removes only empty ones
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        if isinstance(exc, MemoryError):  # a usage error, as in gen: the sizes asked for do not fit
            raise ValueError(f"out of memory training hidden={config.hidden}, k={config.k}"
                             f" on n={g.n} nodes with num_features={x.shape[1]}") from None
        raise
    for run in sweep.runs:
        _log(f"seed {run.seed}: total={run.trace.records[-1].total:.6f} gamma={run.trace.gamma_final:.4f}")

    base = sweep.runs[0]
    # one column per EpochRecord field; .17g prints the int epoch as its digits
    rows = [",".join(TRACE_FIELDS)]
    for r in base.trace.records:
        rows.append(",".join(f"{getattr(r, name):.17g}" for name in TRACE_FIELDS))
    write_atomic(out / "trace.csv", "\n".join(rows) + "\n")

    write_node_ids(out / "assignment.tsv", hard_assign(base.trace.final_assignment))

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


def _generate(out: str, n: int, make, *args) -> int:
    """Write the graph and labels ``make(*args)`` draws, n nodes, as a dataset with A + I as features.

    A graph too large for memory is a usage error, as its parameters are.
    """
    try:
        g, labels = make(*args)
        save_dataset(out, g, adjacency_features(g), labels)
    except MemoryError:
        raise ValueError(f"out of memory generating n={n} nodes") from None
    _log(f"wrote dataset to {out}: n={g.n}, m={g.m}")
    return EXIT_OK


def _cmd_gen_ring(args: argparse.Namespace) -> int:
    return _generate(args.out, args.cliques * args.size, ring_of_cliques, args.cliques, args.size)


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise ValueError("--sizes must name at least one block")
    return sizes


def _cmd_gen_sbm(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    return _generate(args.out, sum(sizes), sbm, sizes, args.p_in, args.p_out, args.seed)


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
