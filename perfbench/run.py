#!/usr/bin/env python3
"""pottscluster benchmark: time `pottscluster train` end to end and per layer.

    python3 perfbench/run.py --workload ring-10x5 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, both modes; writes BENCHMARK.json

Run from the repository root. The workload's dataset is generated from
--seed (cached under .perfbench/), then `train` is invoked repeatedly from
the source tree, one process at a time, until --seconds have passed. Every
invocation's outputs are checked. With --trace 0 the end-to-end metrics
are printed; with --trace 1 untraced and traced invocations alternate and
the per-layer split is printed. The last line of output is one JSON object.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread on both sides of any comparison: results differ bitwise
# between thread counts, and a single thread is steadier on a shared host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench"

RUN_SECONDS = 55
MIN_ROUNDS = 2  # a round is one invocation per mode
OP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # launch no invocation expected to end past this
LOSS_FLOOR = -1.0  # the objective's minimum: the Potts term is >= -1, the rest >= 0

# Bounds: on the 2-core shared host this was tuned on, other tenants slow
# the CPU by up to 35% for seconds to minutes at a time, and ten runs of the
# same code on ten seeds spread by up to 32% when a run reported the median
# invocation, so timings get the widest bound the result format allows.
# final_loss_gap varies across seeds only through the inputs (3-11% spread).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("epochs_per_s", "seed-epochs/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("final_loss_gap", "objective", "lower", 0.25),
)
PER_LAYER = (
    ("trainer.adam_ms", "ms", "lower"),
    ("trainer.self_ms", "ms", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.backward_ms", "ms", "lower"),
    ("graph.spmm_ms", "ms", "lower"),
    ("graph.spmm_calls", "count", "lower"),
    ("losses.objective_ms", "ms", "lower"),
    ("graph.normalized_adjacency_ms", "ms", "lower"),
    ("dataset.load_s", "s", "lower"),
    ("metrics.evaluate_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trainer.epoch_ms.p50", "ms", "lower"),
    ("trainer.epoch_ms.tail", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("metrics.nmi", "0-100", "higher"),
)
# per-epoch self time of these spans. With trainer.self_ms (the epoch
# window minus its wrapped children) they add up to the epoch by
# definition, provided no other wrapped function runs inside an epoch;
# _measure fails the invocation if one does.
EPOCH_LAYERS = {
    "trainer.adam_ms": "trainer.adam_step",
    "model.forward_ms": "model.forward",
    "model.backward_ms": "model.backward",
    "graph.spmm_ms": "graph.spmm",
    "losses.objective_ms": "losses.objective",
}


def spec() -> dict:
    """The BENCHMARK.json contents."""
    import workloads

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values() if w.gated],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }


def fingerprint() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class Op:
    """One `pottscluster train` invocation and what was measured around it."""

    mode: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    train_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    epoch_ms: list = field(default_factory=list)


def _launch(cmd: list[str], env: dict, log: Path):
    """Run cmd to completion; returns (launch time, exit time, exit code, rusage)."""
    with open(log, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage


class Runner:
    """Runs one workload for one seed: dataset, invocations, checks, metrics."""

    def __init__(self, workload, seed: int):
        import workloads

        self.w = workload
        self.seed = seed
        self.data = workloads.dataset_dir(WORK / "data", workload, seed)
        self.n = json.loads((self.data / "meta.json").read_text(encoding="utf-8"))["n"]
        self.work = WORK / "runs" / f"{workload.name}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = workload.train_config(seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config) + "\n", encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env.pop("POTTSCLUSTER_VERBOSE", None)
        self.reference: tuple[bytes, bytes] | None = None
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def invoke(self, mode: str) -> Op:
        self.count += 1
        out = self.work / f"op{self.count}"
        spans_path = self.work / f"op{self.count}.npz"
        cmd = [
            sys.executable, str(BENCH_DIR / "probe.py"), mode, str(spans_path), "--",
            "train", "--data", str(self.data), "--out", str(out),
            "--config", str(self.config_path), "--seeds", str(self.w.seeds),
        ]
        t0, t1, code, usage = _launch(cmd, self.env, self.work / f"op{self.count}.stderr")
        op = Op(mode=mode, wall_s=t1 - t0, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss * 1024 / 1e6)
        try:
            if code != 0:
                tail = (self.work / f"op{self.count}.stderr").read_text(errors="replace").strip()[-300:]
                raise checks.OutputError(f"exit code {code}: {tail}")
            op.quality = checks.check_outputs(out, self.n, self.config, self.w.seeds, self.w.check_nmi)
            outputs = ((out / "trace.csv").read_bytes(), (out / "assignment.tsv").read_bytes())
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                raise checks.OutputError(f"{mode} invocation's trace.csv/assignment.tsv differ from the first one's")
            names, rows, missing = spans.load(spans_path)
            if missing:
                raise checks.OutputError(f"cannot wrap {missing}")
            self._measure(op, names, rows, t0)
        except (checks.OutputError, KeyError, ValueError, TypeError, OSError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        return op

    def _measure(self, op: Op, names: list[str], rows, t0: float) -> None:
        by_name = {n: rows[rows[:, 0] == i] for i, n in enumerate(names)}
        load = by_name["dataset.load"]
        train = by_name["trainer.train"]
        op.setup_s = float(load[0, 3] - t0)
        op.train_s = float((train[:, 3] - train[:, 2]).sum())
        epochs = self.w.seeds * self.w.epochs
        if op.mode == "light":
            return
        layer_s, layer_calls, train_self, epoch_s = spans.split_epochs(names, rows)
        if len(epoch_s) != epochs:
            raise checks.OutputError(f"found {len(epoch_s)} epoch windows in the trace, expected {epochs}")
        stray = sorted(set(layer_s) - set(EPOCH_LAYERS.values()))
        if stray:
            raise checks.OutputError(f"{stray} run inside an epoch but have no per-epoch layer metric")
        selfs = spans.self_times(rows)
        layers = {key: 1e3 * layer_s.get(name, 0.0) / epochs for key, name in EPOCH_LAYERS.items()}
        layers["trainer.self_ms"] = 1e3 * train_self / epochs
        layers["graph.spmm_calls"] = layer_calls.get("graph.spmm", 0) / epochs

        def total(name):
            part = by_name.get(name)
            return 0.0 if part is None else float((part[:, 3] - part[:, 2]).sum())

        layers["graph.normalized_adjacency_ms"] = 1e3 * total("graph.normalized_adjacency") / len(train)
        layers["dataset.load_s"] = total("dataset.load")
        layers["metrics.evaluate_ms"] = 1e3 * total("metrics.evaluate") / self.w.seeds
        layers["cli.self_s"] = float(selfs[rows[:, 0] == names.index(spans.ROOT)].sum())
        op.layers = layers
        op.epoch_ms = [1e3 * s for s in epoch_s]


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run the workload for about ``seconds`` and return the contract's result object."""
    runner = Runner(workload, seed)
    modes = ("light", "full") if trace else ("light",)
    try:
        # untimed, but checked: a run's first invocation is measurably slower
        # than the ones after it (up to 30% on sbm-100k)
        ops = [runner.invoke("light")]
        warmup = ops[0]
        start = time.monotonic()
        rounds = 0
        while True:
            ops.extend(runner.invoke(mode) for mode in modes)
            rounds += 1
            elapsed = time.monotonic() - start
            per_round = elapsed / rounds
            if elapsed + per_round > RUN_LIMIT_S or (rounds >= MIN_ROUNDS and elapsed + per_round > seconds):
                break
    finally:
        runner.close()

    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.error:
            print(f"FAILED {op.mode} invocation: {op.error}")
    good = [op for op in ops if op.error is None and op is not warmup]
    if not good:
        return {"correct": False, "attempted": len(ops), "failed": failed, "metrics": {}}
    med = statistics.median
    light = [op for op in good if op.mode == "light"]
    quality = good[0].quality
    info = {
        "invocations": len(ops),
        "samples": [{"mode": "warmup" if op is warmup else op.mode, "wall_s": op.wall_s, "cpu_s": op.cpu_s, "setup_s": op.setup_s,
                     "train_s": op.train_s, "rss_mb": op.rss_mb, "error": op.error} for op in ops],
        "failed_frac": failed / len(ops),
        "final_loss": quality["final_loss"],
        "nmi": quality["nmi"],
    }
    if not trace:
        # wall_s and epochs_per_s are totals over the run, not medians: on a
        # shared host the invocations fall into a fast and a slow group about
        # 35% apart, and a median jumps to whichever group holds half the run
        values = {
            "wall_s": statistics.fmean(op.wall_s for op in light),
            "setup_s": med(op.setup_s for op in light),
            "epochs_per_s": workload.seeds * workload.epochs * len(light) / sum(op.train_s for op in light),
            "peak_rss_mb": med(op.rss_mb for op in light),
            "final_loss_gap": quality["final_loss"] - LOSS_FLOOR,
        }
        units = {name: unit for name, unit, *_ in END_TO_END}
    else:
        full = [op for op in good if op.mode == "full"]
        if not light or not full:
            return {"correct": False, "attempted": len(ops), "failed": failed, "metrics": {}}
        values = {key: med(op.layers[key] for op in full) for key in full[0].layers}
        samples = [ms for op in full for ms in op.epoch_ms]
        pct, tail_ms = spans.tail(samples)
        info["epoch_ms.tail_is"] = f"p{pct:g} of {len(samples)} traced epochs"
        values.update({
            "trainer.epoch_ms.p50": statistics.median(samples),
            "trainer.epoch_ms.tail": tail_ms,
            "trace.overhead": statistics.fmean(op.wall_s for op in full) / statistics.fmean(op.wall_s for op in light),
            "metrics.nmi": quality["nmi"],
        })
        units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics, "info": info}


def report(workload, seed: int, seconds: int, trace: bool) -> dict:
    """Measure, print human-readable lines, and save the full record under .perfbench/results."""
    result = measure(workload, seed, seconds, trace)
    info = result.pop("info", {})
    fp = fingerprint()
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{result['attempted']} invocations, {result['failed']} failed")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for key, value in info.items():
        if key != "samples":
            print(f"  {key:32s} {value}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "trace": int(trace), "fingerprint": fp,
              "info": info, **result}
    (results / f"{workload.name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="non-negative input seed")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the per-layer run")
    args = parser.parse_args(argv)

    if not (SRC / "pottscluster" / "cli.py").is_file():
        print(f"error: {SRC / 'pottscluster'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        (REPO / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        results = [report(w, args.seed, args.seconds, t) for w in workloads.WORKLOADS.values() for t in (False, True)]
        correct = all(r["correct"] for r in results)
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }))
        return 0 if correct else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or 'all'")
    result = report(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    if not result["metrics"]:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
