"""Checks on what one `pottscluster train` invocation wrote to its --out directory."""
from __future__ import annotations

import json
import math
from pathlib import Path

TRACE_HEADER = "epoch,total,potts,collapse,gamma_reg,gamma"


class OutputError(Exception):
    """An output file is missing, malformed, or disagrees with the run's inputs."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_trace(text: str, epochs: int, w_collapse: float, w_gamma: float, gamma_max: float) -> float:
    """Validate trace.csv; returns the last row's total."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise OutputError(f"trace.csv header is {lines[:1]}")
    if len(lines) != epochs + 2:
        raise OutputError(f"trace.csv has {len(lines) - 1} rows, expected {epochs + 1}")
    for want_epoch, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 6 or fields[0] != str(want_epoch):
            raise OutputError(f"trace.csv row {want_epoch}: {line!r}")
        total, potts, collapse, gamma_reg, gamma = map(float, fields[1:])
        if not all(map(math.isfinite, (total, potts, collapse, gamma_reg, gamma))):
            raise OutputError(f"trace.csv row {want_epoch} is not finite: {line!r}")
        if not _close(total, potts + w_collapse * collapse + w_gamma * gamma_reg):
            raise OutputError(f"trace.csv row {want_epoch}: total is not the weighted sum of its terms")
        if not 0.0 <= gamma <= gamma_max:
            raise OutputError(f"trace.csv row {want_epoch}: gamma {gamma} outside [0, {gamma_max}]")
    return total


def check_assignment(text: str, n: int, k: int) -> None:
    lines = text.splitlines()
    if len(lines) != n:
        raise OutputError(f"assignment.tsv has {len(lines)} rows, expected n={n}")
    for node, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) != 2 or fields[0] != str(node) or not 0 <= int(fields[1]) < k:
            raise OutputError(f"assignment.tsv row {node}: {line!r} (k={k})")


def check_outputs(out: Path, n: int, config: dict, seeds: int, min_nmi: float | None) -> dict:
    """Check the three output files of one invocation against its inputs.

    ``config`` is the --config the invocation was given. Returns the
    quality figures: mean final total and mean NMI over seeds.
    """
    try:
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        trace_text = (out / "trace.csv").read_text(encoding="utf-8")
        assign_text = (out / "assignment.tsv").read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise OutputError(f"unreadable output: {exc}") from None
    echo = metrics["config"]
    if any(echo.get(key) != value for key, value in config.items()):
        raise OutputError(f"metrics.json config echo {echo} does not match {config}")
    gamma_max = echo["gamma_max"]

    per_seed = metrics["per_seed"]
    want_seeds = list(range(config["seed"], config["seed"] + seeds))
    if metrics["num_seeds"] != seeds or [s["seed"] for s in per_seed] != want_seeds:
        raise OutputError(f"metrics.json covers seeds {[s['seed'] for s in per_seed]}, expected {want_seeds}")
    for s in per_seed:
        if not 0.0 <= s["gamma_final"] <= gamma_max:
            raise OutputError(f"seed {s['seed']}: gamma_final {s['gamma_final']} outside [0, {gamma_max}]")

    last_total = check_trace(trace_text, echo["epochs"], echo["w_collapse"], echo["w_gamma"], gamma_max)
    if last_total != per_seed[0]["total"]:
        raise OutputError("trace.csv final total differs from metrics.json for the base seed")
    check_assignment(assign_text, n, echo["k"])

    mean = metrics["aggregate"]["mean"]
    final_loss = sum(s["total"] for s in per_seed) / seeds
    if not _close(final_loss, mean["total"]):
        raise OutputError(f"aggregate mean total {mean['total']} is not the mean of the seeds' {final_loss}")
    nmi = mean["nmi"]
    if min_nmi is not None and not nmi >= min_nmi:
        raise OutputError(f"mean NMI {nmi} below {min_nmi}")
    return {"final_loss": final_loss, "nmi": nmi}
