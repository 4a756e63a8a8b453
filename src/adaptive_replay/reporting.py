"""Deterministic CSV emission and parsing for traces, ledgers and summaries.

Every file starts with ``# schema=<name>.v<N>`` followed by optional comment
metadata lines, then an exact, versioned header row.  Floats are written with
shortest-roundtrip formatting so identical runs produce identical bytes.
"""

from __future__ import annotations

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
    """Canonical cell formatting: shortest-roundtrip floats, empty for missing."""
    if value is None:
        return ""
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


def write_csv(
    path: Path,
    schema: str,
    header: str,
    rows: Iterable[Sequence],
    metadata: Mapping[str, str] | None = None,
) -> None:
    path.write_text(csv_text(schema, header, rows, metadata))


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
    write_csv(path, TRACE_SCHEMA, TRACE_HEADER, rows, metadata)


def read_trace(path: Path) -> dict:
    """Parse a trace CSV back into arrays (missing probes become nan)."""
    meta: dict[str, str] = {}
    rows = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
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
            rows.append(line.split(","))
    if not rows:
        raise ValueError(f"trace {path} contains no rows")
    return {
        "meta": meta,
        "seed": int(rows[0][0]),
        "mode": rows[0][1],
        "env": rows[0][2],
        "steps": np.array([int(r[3]) for r in rows], dtype=np.int64),
        "returns": np.array([float(r[4]) for r in rows]),
        "probes": np.array([float(r[5]) if r[5] else np.nan for r in rows]),
        "entropies": np.array([float(r[6]) for r in rows]),
        "reset_counts": np.array([int(r[7]) for r in rows], dtype=np.int64),
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
    write_csv(path, REGRET_SCHEMA, REGRET_HEADER, rows, metadata)


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


def write_metrics(path: Path, rows: Iterable[tuple[str, str, str, str, int, MetricsRow]]) -> None:
    path.write_text(metrics_text(rows))


def write_variance(path: Path, comparisons, metadata=None) -> None:
    rows = [
        (i, c.seed, c.loss_spread_orders, c.var_learned, c.var_uniform, c.improved)
        for i, c in enumerate(comparisons)
    ]
    write_csv(path, VARIANCE_SCHEMA, VARIANCE_HEADER, rows, metadata)


def write_bench(path: Path, rows, metadata=None) -> None:
    write_csv(path, BENCH_SCHEMA, BENCH_HEADER, rows, metadata)
