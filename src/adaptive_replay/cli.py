"""Command-line entry point.

Subcommands::

    adaptive-replay run <spec.ini>     execute an experiment spec
    adaptive-replay bench              store index micro-benchmarks
    adaptive-replay metrics <trace..>  summarize trace CSVs forming a seed group

Output locations honor ``--out`` first and the ``ADAPTIVE_REPLAY_OUT``
environment variable as the output root otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import run_bench
from .harness import (
    OUTPUT_ROOT_ENV,
    metrics_from_traces,
    parse_config,
    run_suite,
)
from .reporting import metrics_text, write_bench


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptive-replay",
        description="Variance-minimizing adaptive experience sampling: experiments and checks.",
        epilog=f"Outputs land under --out, else ${OUTPUT_ROOT_ENV}/<output_dir>, else <output_dir>.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment spec file")
    run_p.add_argument("spec", help="INI spec file (see README for the key schema)")
    run_p.add_argument("--seed-list", help="comma-separated seed override", default=None)
    run_p.add_argument("--out", help="output directory override", default=None)
    run_p.add_argument("--workers", type=int, default=1, help="parallel cell workers")

    bench_p = sub.add_parser("bench", help="store index micro-benchmarks")
    bench_p.add_argument("--capacity", type=_positive_int, default=1_000_000)
    bench_p.add_argument("--batch", type=_positive_int, default=256)
    bench_p.add_argument("--rounds", type=_positive_int, default=200)
    bench_p.add_argument("--out", default=None, help="also write a bench CSV here")

    metrics_p = sub.add_parser("metrics", help="summarize trace CSVs (one seed group)")
    metrics_p.add_argument("traces", nargs="+", help="trace CSV files")
    metrics_p.add_argument("--window", type=int, default=10, help="moving-average width")
    return parser


def _cmd_run(args) -> int:
    spec = parse_config(args.spec)
    if args.seed_list:
        # Replacing, not assigning, re-checks the spec: an empty list is rejected.
        spec = replace(spec, seeds=tuple(int(s) for s in args.seed_list.split(",") if s.strip()))
    return run_suite(spec, out=args.out, workers=args.workers)


def _cmd_bench(args) -> int:
    rows = run_bench(capacity=args.capacity, batch=args.batch, rounds=args.rounds)
    for capacity, operation, batch, rounds, ops in rows:
        print(f"capacity={capacity} {operation:>14s}: {ops:,.0f} ops/s (batch={batch})")
    if args.out:
        out = Path(args.out)  # an override, as for `run`: no output root applies
        out.mkdir(parents=True, exist_ok=True)
        write_bench(out / "bench.csv", rows)
        print(f"wrote {out / 'bench.csv'}")
    return 0


def _cmd_metrics(args) -> int:
    row = metrics_from_traces(args.traces, window=args.window)
    sys.stdout.write(metrics_text([("-", "-", "-", "-", len(args.traces), row)]))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "bench": _cmd_bench,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
