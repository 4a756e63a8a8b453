"""Command-line entry point.

Subcommands::

    adaptive-replay run <spec.ini>     execute an experiment spec
    adaptive-replay bench              store index micro-benchmarks
    adaptive-replay metrics <trace..>  summarize trace CSVs forming a seed group

Output locations honor ``--out`` first and the ``ADAPTIVE_REPLAY_OUT``
environment variable as the output root otherwise.  A spec or trace file
that cannot be read or fails its checks exits with status 2, as a bad flag
value does.
"""

from __future__ import annotations

import argparse
import configparser
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


# What reading a spec or trace file raises on bad input: a missing file, text
# that is not INI, or a value that fails its checks.
_INPUT_ERRORS = (OSError, ValueError, configparser.Error)


class _InputError(Exception):
    """A spec or trace file the command cannot use; reported as exit 2."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated int list: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"must name at least one seed, got {text!r}")
    return seeds


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
    run_p.add_argument("--seed-list", type=_seed_list, help="comma-separated seed override")
    run_p.add_argument("--out", help="output directory override", default=None)
    run_p.add_argument("--workers", type=_positive_int, default=1, help="parallel cell workers")

    bench_p = sub.add_parser("bench", help="store index micro-benchmarks")
    bench_p.add_argument("--capacity", type=_positive_int, default=1_000_000)
    bench_p.add_argument("--batch", type=_positive_int, default=256)
    bench_p.add_argument("--rounds", type=_positive_int, default=200)
    bench_p.add_argument("--out", default=None, help="also write a bench CSV here")

    metrics_p = sub.add_parser("metrics", help="summarize trace CSVs (one seed group)")
    metrics_p.add_argument("traces", nargs="+", help="trace CSV files")
    metrics_p.add_argument("--window", type=_positive_int, default=10, help="moving-average width")
    return parser


def _cmd_run(args) -> int:
    try:
        spec = parse_config(args.spec)
        if args.seed_list:
            spec = replace(spec, seeds=args.seed_list)
    except _INPUT_ERRORS as exc:
        raise _InputError(exc) from exc
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
    try:
        row = metrics_from_traces(args.traces, window=args.window)
    except _INPUT_ERRORS as exc:
        raise _InputError(exc) from exc
    sys.stdout.write(metrics_text([("-", "-", "-", "-", len(args.traces), row)]))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "bench": _cmd_bench,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
