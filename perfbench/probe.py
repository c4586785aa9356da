"""Run the `pottscluster` CLI from the source tree with span wrappers installed.

    python perfbench/probe.py {light|full} SPANS.npz -- train --data ... --out ...

``light`` wraps only what setup_s and epochs_per_s need (the dataset load
and each ``train`` call); ``full`` wraps every layer boundary listed in
``spans.FULL``. The wrappers only observe: outputs must stay byte-identical
to a light run's. Exits with the CLI's own exit code.
"""
from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    mode, out, sep, *cli_args = argv
    if sep != "--" or mode not in ("light", "full"):
        raise SystemExit(f"usage: probe.py {{light|full}} SPANS.npz -- CLI-ARGS, got {argv}")
    from pottscluster import cli

    tracer = spans.Tracer()
    tracer.install(spans.LIGHT if mode == "light" else spans.FULL)
    try:
        return tracer.call(tracer.name_id(spans.ROOT), cli.main, cli_args)
    finally:
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
