"""Deterministic CSV emission and parsing for traces, ledgers and summaries.

Every file starts with ``# schema=<name>.v<N>`` followed by optional comment
metadata lines, then an exact, versioned header row.  Floats are written with
shortest-roundtrip formatting so identical runs produce identical bytes.
Every file goes through :func:`write_atomic`, so a run killed midway leaves
either no file or a whole one.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import MetricsRow
from .regret import RegretLedger
from .training import TrainingTrace

TRACE_SCHEMA = "trace.v1"
TRACE_HEADER = "seed,mode,env,step,episodic_test_return,variance_probe,p_entropy,reset_count"
REGRET_SCHEMA = "regret.v1"
REGRET_HEADER = (
    "seed,t,realized_cost,static_opt_cum,dynamic_opt_cum,regret_static,regret_dynamic"
)
METRICS_SCHEMA = "metrics.v1"
METRICS_HEADER = (
    "family,cell,env,mode,n_seeds,learning_speed,max_score,"
    "learning_stability,robustness,final_performance"
)
VARIANCE_SCHEMA = "variance.v1"
VARIANCE_HEADER = "construction,seed,loss_spread_orders,var_learned,var_uniform,improved"
BENCH_SCHEMA = "bench.v1"
BENCH_HEADER = "capacity,operation,batch,rounds,ops_per_second"


def fmt(value) -> str:
    """Canonical cell formatting: shortest-roundtrip floats, empty for NaN."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if np.isnan(value):
        return ""
    return repr(value)


def csv_text(
    schema: str,
    header: str,
    rows: Iterable[Sequence],
    metadata: Mapping[str, str] | None = None,
) -> str:
    lines = [f"# schema={schema}"]
    for key in sorted(metadata or {}):
        lines.append(f"# {key}={metadata[key]}")
    lines.append(header)
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temp file next to ``path`` and ``os.replace`` it there:
    ``path`` is the old file or the whole new one, and a failed write leaves no temp."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(path: Path, trace: TrainingTrace, config_echo: Mapping[str, str] | None = None) -> None:
    metadata = {
        "config_hash": trace.config_hash,
        "ratio_cap_hits": str(trace.ratio_cap_hits),
        **(config_echo or {}),
    }
    rows = [
        (
            trace.seed,
            trace.mode,
            trace.env_name,
            trace.steps[i],
            trace.returns[i],
            trace.probes[i],
            trace.entropies[i],
            trace.reset_counts[i],
        )
        for i in range(len(trace.steps))
    ]
    write_atomic(path, csv_text(TRACE_SCHEMA, TRACE_HEADER, rows, metadata))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# Per trace column: its parser and, for the error, what its cells must be.
_INT, _TEXT, _FINITE = (int, "an int"), (str, "text"), (_finite_float, "a finite float")
_PROBE = (lambda text: _finite_float(text) if text else math.nan, "empty or a finite float")
_TRACE_FIELDS = (_INT, _TEXT, _TEXT, _INT, _FINITE, _PROBE, _FINITE, _INT)


def read_trace(path: Path) -> dict:
    """Parse a trace CSV back into arrays (missing probes become nan); a cell its
    column cannot hold, a row of another seed, mode or env than the first, and a
    step smaller than the one before are rejected, naming the file and the line."""
    meta: dict[str, str] = {}
    rows = []
    names = TRACE_HEADER.split(",")
    header_seen = False
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != TRACE_HEADER:
                raise ValueError(f"unexpected trace header in {path}: {line!r}")
            header_seen = True
            continue
        if line:
            cells = line.split(",")
            if len(cells) != len(names):
                raise ValueError(f"trace {path} line {number}: expected {len(names)} fields, got {len(cells)}")
            row = []
            for name, cell, (parse, kind) in zip(names, cells, _TRACE_FIELDS):
                try:
                    row.append(parse(cell))
                except ValueError:
                    raise ValueError(
                        f"trace {path} line {number}: {name} must be {kind}, got {cell!r}"
                    ) from None
            if rows and row[:3] != rows[0][:3]:
                raise ValueError(
                    f"trace {path} line {number}: seed, mode and env {tuple(row[:3])} "
                    f"differ from the first row's {tuple(rows[0][:3])}"
                )
            if rows and row[3] < rows[-1][3]:
                raise ValueError(
                    f"trace {path} line {number}: step {row[3]} is smaller than "
                    f"the previous row's {rows[-1][3]}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"trace {path} contains no rows")
    return {
        "meta": meta,
        "seed": rows[0][0],
        "mode": rows[0][1],
        "env": rows[0][2],
        "steps": np.array([r[3] for r in rows], dtype=np.int64),
        "returns": np.array([r[4] for r in rows]),
        "probes": np.array([r[5] for r in rows]),
        "entropies": np.array([r[6] for r in rows]),
        "reset_counts": np.array([r[7] for r in rows], dtype=np.int64),
    }


def write_regret(path: Path, seed: int, ledger: RegretLedger, metadata: Mapping[str, str] | None = None) -> None:
    static_series = ledger.regret_static_series
    dynamic_series = ledger.regret_dynamic_series
    rows = [
        (
            seed,
            t + 1,
            ledger.realized[t],
            ledger.static_opt_cum[t],
            ledger.dynamic_opt_cum[t],
            static_series[t],
            dynamic_series[t],
        )
        for t in range(ledger.steps)
    ]
    write_atomic(path, csv_text(REGRET_SCHEMA, REGRET_HEADER, rows, metadata))


def metrics_text(rows: Iterable[tuple[str, str, str, str, int, MetricsRow]]) -> str:
    """The ``metrics.v1`` file of ``(family, cell, env, mode, n_seeds, row)`` tuples."""
    flat = [
        (
            family,
            cell,
            env,
            mode,
            n_seeds,
            m.learning_speed,
            m.max_score,
            m.learning_stability,
            m.robustness,
            m.final_performance,
        )
        for family, cell, env, mode, n_seeds, m in rows
    ]
    return csv_text(METRICS_SCHEMA, METRICS_HEADER, flat)


def write_variance(path: Path, comparisons, metadata=None) -> None:
    rows = [
        (i, c.seed, c.loss_spread_orders, c.var_learned, c.var_uniform, c.improved)
        for i, c in enumerate(comparisons)
    ]
    write_atomic(path, csv_text(VARIANCE_SCHEMA, VARIANCE_HEADER, rows, metadata))


def write_bench(path: Path, rows) -> None:
    write_atomic(path, csv_text(BENCH_SCHEMA, BENCH_HEADER, rows))
