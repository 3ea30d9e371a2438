"""Command line front end.

    hopwar run --config scenario.cfg [--seed N] [--runs N]
               [--attacker S] [--defender S] [--out-dir DIR] [--timeseries]

Exit codes: 0 success (``--help`` too), 1 usage or configuration error,
2 output I/O error.

Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, before numpy loads: hopwar uses only ``numpy.random``, so
OpenBLAS's thread pool would only cost start-up time. Set the variable
yourself to override it.

``python -m hopwar``, ``python -m hopwar.cli`` and the ``hopwar`` script run
``console_main``, which freezes the garbage collector once ``main`` has
written the outputs, so the interpreter's final collection at exit skips the
objects the run leaves behind. ``main`` itself, called in-process, leaves the
collector as it is.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

# hopwar does no linear algebra; this must run before the first import that
# loads numpy (.config -> .attacker -> numpy).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import ConfigError, load_config  # noqa: E402
from .engine import emit_summary, emit_timeseries, run_batch  # noqa: E402


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every other bad input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopwar", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario batch and write CSV results")
    run.add_argument("--config", required=True, help="path to a key = value scenario file")
    run.add_argument("--seed", default=None, help="override the base seed")
    run.add_argument("--runs", default=None, help="override the number of runs")
    run.add_argument("--attacker", default=None, help="override the attacker strategy")
    run.add_argument("--defender", default=None, help="override the defender strategy")
    run.add_argument("--out-dir", default="hopwar_out", help="directory for CSV outputs")
    run.add_argument(
        "--timeseries",
        action="store_true",
        help="also write one trace CSV per run, a row every round(1 / slot_s) slots",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            overrides={
                "seed": args.seed,
                "runs": args.runs,
                "attacker": args.attacker,
                "defender": args.defender,
            },
        )
    except ConfigError as exc:
        print(f"hopwar: config error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)

    # Called in whichever process simulated the run, as soon as it ends; the
    # trace is dropped once written, so only counters are kept or piped back.
    def write_trace(run):
        emit_timeseries(run, out_dir / f"run_{run.seed}.csv")
        run.trace = None
        return run

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        batch = run_batch(config, write_trace if args.timeseries else None)
        written = [emit_summary(batch, out_dir / "summary.csv")]
    except OSError as exc:
        print(f"hopwar: cannot write results: {exc}", file=sys.stderr)
        return 2
    written += [out_dir / f"run_{run.seed}.csv" for run in batch.runs if args.timeseries]

    aggregates = " ".join(f"{column}={value:.4f}" for column, value in batch.summary().items())
    print(f"{config.attacker} vs {config.defender}: runs={len(batch.runs)} {aggregates}")
    for path in written:
        print(f"wrote {path}")
    return 0


def console_main() -> int:
    """``main`` for a process that exits when it returns; the command-line entry paths run it.

    Freezing the collector moves every live object out of its reach, so the
    interpreter's final collection at exit does not traverse them. ``os._exit``
    would be cheaper but would skip ``atexit`` handlers.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
