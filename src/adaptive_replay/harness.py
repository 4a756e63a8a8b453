"""Experiment families, config parsing, deterministic seeding, and suite execution.

Four families share one runner:

``regret_synthetic``
    FTRL against generated loss sequences (stationary full-information,
    bandit-feedback rate studies, or drifting sequences contrasting the
    periodic-reset and per-collection-reset patterns).
``rl_comparison``
    Toy policy-gradient training across selection modes and environments,
    emitting one trace CSV per cell plus an aggregated metrics CSV.
``variance_study``
    Paired learned-vs-uniform gradient variance comparisons on synthetic
    heteroscedastic buffers.
``bench``
    Store index micro-benchmarks.

Every stochastic choice descends from ``(seed, cell_id)`` through a SHA-256
hash into a numpy PCG64 generator, recorded in the run manifest, so any cell
rerun with the same spec and seed reproduces its artifacts byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bench import run_bench
from .envs import ENVIRONMENTS
from .metrics import compute_metrics
from .regret import (
    drifting_sequence,
    run_regret_experiment,
    scaled_noise_sequence,
    stationary_sequence,
)
from .reporting import (
    read_trace,
    write_bench,
    write_metrics,
    write_regret,
    write_trace,
    write_variance,
)
from .sampler import SamplerConfig
from .studies import learned_vs_uniform_variance
from .training import MODES, TrainingConfig, run_training

OUTPUT_ROOT_ENV = "ADAPTIVE_REPLAY_OUT"
GENERATOR_ID = "numpy.random.PCG64"

FAMILIES = ("regret_synthetic", "rl_comparison", "variance_study", "bench")

_SAMPLER_DEFAULTS = {
    "kappa": 0.1,
    "nu": 1000.0,
    "reset_period": 100,
    "reset_mode": "soft",
    "rho": 0.9,
}

_FAMILY_DEFAULTS = {
    "regret_synthetic": {
        "scenario": "stationary",
        "capacity": 16,
        "horizons": (500, 1000),
        "batch": 8,
        "drift_replace": 2,
        "naive_reset": 2,
    },
    "rl_comparison": {
        "envs": ("two_state_bandit",),
        "modes": ("uniform", "adaptive"),
        "total_steps": 400,
        "batch_size": 4,
        "buffer_capacity": 16,
        "learning_rate": 0.2,
        "eval_every": 20,
        "eval_episodes": 20,
        "probe_every": 0,
        "probe_repeats": 400,
        "updates_per_episode": 1,
    },
    "variance_study": {
        "constructions": 50,
        "capacity": 32,
        "batch": 4,
        "repeats": 400,
        "orders": 3.5,
    },
    "bench": {
        "capacity": 1_000_000,
        "batch": 256,
        "rounds": 200,
    },
}


@dataclass
class ExperimentSpec:
    family: str = "regret_synthetic"
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "runs"
    sweep: tuple[tuple[str, dict], ...] = (("base", {}),)
    sampler: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"experiment.family must be one of {FAMILIES}, got {self.family!r}")
        if len(self.seeds) == 0:
            raise ValueError("experiment.seeds must not be empty")
        self.sampler = {**_SAMPLER_DEFAULTS, **self.sampler}
        self.options = {**_FAMILY_DEFAULTS[self.family], **self.options}
        if self.family == "rl_comparison":
            for _, overrides in self.sweep:
                _check_epoch_budget(_apply_sweep(self, overrides)[1])

    def echo(self) -> dict[str, str]:
        """Flat, sorted key=value view of the spec for manifests and comments."""
        flat = {
            "experiment.family": self.family,
            "experiment.seeds": ",".join(str(s) for s in self.seeds),
            "experiment.output_dir": self.output_dir,
        }
        for key, value in self.sampler.items():
            flat[f"sampler.{key}"] = _echo_value(value)
        section = _family_section(self.family)
        for key, value in self.options.items():
            flat[f"{section}.{key}"] = _echo_value(value)
        return dict(sorted(flat.items()))


def _echo_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _family_section(family: str) -> str:
    return {
        "regret_synthetic": "regret",
        "rl_comparison": "training",
        "variance_study": "variance",
        "bench": "bench",
    }[family]


# --- config file parsing --------------------------------------------------------

def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _in_range(low, high):
    def check(value, key):
        if not low <= value <= high:
            raise ValueError(f"{key}={value} out of range [{low}, {high}]")

    return check


def _positive(value, key):
    if value <= 0:
        raise ValueError(f"{key}={value} must be positive")


def _non_negative(value, key):
    if value < 0:
        raise ValueError(f"{key}={value} must be >= 0")


def _check_epoch_budget(options: dict) -> None:
    """Only the epoch mode may run zero updates per collected episode."""
    if options["updates_per_episode"] == 0 and set(options["modes"]) != {"adaptive_epoch"}:
        raise ValueError(
            "training.updates_per_episode=0 is allowed only when modes = adaptive_epoch"
        )


def _one_of(*allowed):
    def check(value, key):
        if value not in allowed:
            raise ValueError(f"{key}={value!r} must be one of {allowed}")

    return check


_SCHEMA = {
    "experiment": {
        "family": (_parse_str, _one_of(*FAMILIES)),
        "seeds": (_parse_int_list, None),
        "output_dir": (_parse_str, None),
    },
    "sampler": {
        "kappa": (_parse_float, _in_range(0.0, 1.0)),
        "nu": (_parse_float, _positive),
        "reset_period": (_parse_int, _positive),
        "reset_mode": (_parse_str, _one_of("hard", "soft", "annealed_soft")),
        "rho": (_parse_float, _in_range(0.0, 1.0)),
        "rho_start": (_parse_float, _in_range(0.0, 1.0)),
        "rho_end": (_parse_float, _in_range(0.0, 1.0)),
        "anneal_steps": (_parse_int, _positive),
    },
    "regret": {
        "scenario": (_parse_str, _one_of("stationary", "bandit_rate", "drifting")),
        "capacity": (_parse_int, _positive),
        "horizons": (_parse_int_list, None),
        "batch": (_parse_int, _positive),
        "drift_replace": (_parse_int, _positive),
        "naive_reset": (_parse_int, _positive),
    },
    "training": {
        "envs": (_parse_str_list, None),
        "modes": (_parse_str_list, None),
        "total_steps": (_parse_int, _positive),
        "batch_size": (_parse_int, _positive),
        "buffer_capacity": (_parse_int, _positive),
        "learning_rate": (_parse_float, _positive),
        "eval_every": (_parse_int, _positive),
        "eval_episodes": (_parse_int, _positive),
        "probe_every": (_parse_int, _non_negative),
        "probe_repeats": (_parse_int, _positive),
        "updates_per_episode": (_parse_int, _non_negative),
    },
    "variance": {
        "constructions": (_parse_int, _positive),
        "capacity": (_parse_int, _positive),
        "batch": (_parse_int, _positive),
        "repeats": (_parse_int, _positive),
        "orders": (_parse_float, _positive),
    },
    "bench": {
        "capacity": (_parse_int, _positive),
        "batch": (_parse_int, _positive),
        "rounds": (_parse_int, _positive),
    },
}


def parse_config(path) -> ExperimentSpec:
    """Parse an INI-style spec: flat sections, ``key = value``, comma lists.

    Unknown sections or keys and out-of-range values are rejected with the
    offending key named.  An empty file yields the full-default spec.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = Path(path).read_text()
    parser.read_string(text)

    family = "regret_synthetic"
    seeds: tuple[int, ...] = (0,)
    output_dir = "runs"
    sampler: dict = {}
    sections: dict[str, dict] = {}
    sweep: list[tuple[str, dict]] = []

    for section in parser.sections():
        if section.startswith("sweep:"):
            label = section.split(":", 1)[1]
            overrides = {}
            for key, raw in parser.items(section):
                overrides[key] = _parse_override(key, raw)
            sweep.append((label, overrides))
            continue
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        parsed = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key '{section}.{key}'")
            convert, check = _SCHEMA[section][key]
            try:
                value = convert(raw)
            except ValueError as exc:
                raise ValueError(f"invalid value for '{section}.{key}': {raw!r}") from exc
            if check is not None:
                check(value, f"{section}.{key}")
            parsed[key] = value
        sections[section] = parsed

    experiment = sections.get("experiment", {})
    family = experiment.get("family", family)
    seeds = experiment.get("seeds", seeds)
    output_dir = experiment.get("output_dir", output_dir)
    sampler = sections.get("sampler", {})
    options = sections.get(_family_section(family), {})
    for section in sections:
        if section not in ("experiment", "sampler", _family_section(family)):
            raise ValueError(
                f"section [{section}] does not belong to family '{family}'"
            )
    return ExperimentSpec(
        family=family,
        seeds=tuple(seeds),
        output_dir=output_dir,
        sweep=tuple(sweep) if sweep else (("base", {}),),
        sampler=sampler,
        options=options,
    )


def _parse_override(dotted: str, raw: str):
    if "." not in dotted:
        raise ValueError(f"sweep override '{dotted}' must be section.key")
    section, _, key = dotted.partition(".")
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        raise ValueError(f"unknown sweep override '{dotted}'")
    convert, check = _SCHEMA[section][key]
    value = convert(raw)
    if check is not None:
        check(value, dotted)
    return value


# --- seeding --------------------------------------------------------------------

def cell_seed(seed: int, cell_id: str) -> int:
    """Derive a 63-bit substream seed by hashing (seed, cell_id)."""
    digest = hashlib.sha256(f"{seed}:{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cell_rng(seed: int, cell_id: str) -> np.random.Generator:
    return np.random.default_rng(cell_seed(seed, cell_id))


# --- suite execution --------------------------------------------------------------

def resolve_output_dir(output_dir: str, override: str | None = None) -> Path:
    """Respect the --out flag first, then the output-root environment variable."""
    if override:
        return Path(override)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / output_dir
    return Path(output_dir)


def run_suite(spec: ExperimentSpec, out: str | None = None, workers: int = 1) -> int:
    """Execute every cell of the spec; returns a process exit status.

    Cells are independent and may run in parallel; aggregation runs after all
    cells complete.  A failed cell leaves a ``<cell>.FAILED`` marker with the
    traceback and flips the exit status to 1, but other cells still run.
    """
    outdir = resolve_output_dir(spec.output_dir, out)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = _build_cells(spec)
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_cell, [(spec, outdir, cell) for cell in cells]))
    else:
        results = [_execute_cell((spec, outdir, cell)) for cell in cells]

    status = 0 if all(r["status"] == "ok" for r in results) else 1
    if spec.family == "rl_comparison" and status == 0:
        _aggregate_rl_metrics(spec, outdir, results)
    manifest = {
        "package_version": __version__,
        "generator": GENERATOR_ID,
        "spec": spec.echo(),
        "sweep": [label for label, _ in spec.sweep],
        "cells": [
            {"id": r["id"], "status": r["status"], "artifacts": r["artifacts"]}
            for r in results
        ],
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return status


@dataclass
class _Cell:
    id: str
    kind: str
    params: dict


def _apply_sweep(spec: ExperimentSpec, overrides: dict) -> tuple[dict, dict]:
    sampler = dict(spec.sampler)
    options = dict(spec.options)
    section = _family_section(spec.family)
    for dotted, value in overrides.items():
        sec, _, key = dotted.partition(".")
        if sec == "sampler":
            sampler[key] = value
        elif sec == section:
            options[key] = value
        else:
            raise ValueError(f"sweep override '{dotted}' does not apply to family {spec.family}")
    return sampler, options


def _build_cells(spec: ExperimentSpec) -> list[_Cell]:
    cells = []
    for label, overrides in spec.sweep:
        sampler, options = _apply_sweep(spec, overrides)
        if spec.family == "rl_comparison":
            for env_name in options["envs"]:
                if env_name not in ENVIRONMENTS:
                    raise ValueError(f"unknown environment '{env_name}'")
                for mode in options["modes"]:
                    if mode not in MODES:
                        raise ValueError(f"unknown selection mode '{mode}'")
                    for seed in spec.seeds:
                        cells.append(
                            _Cell(
                                id=f"rl_{env_name}_{mode}_{label}_seed{seed}",
                                kind="rl",
                                params={
                                    "env": env_name,
                                    "mode": mode,
                                    "label": label,
                                    "seed": seed,
                                    "sampler": sampler,
                                    "options": options,
                                },
                            )
                        )
        elif spec.family == "regret_synthetic":
            for T in options["horizons"]:
                for seed in spec.seeds:
                    cells.append(
                        _Cell(
                            id=f"regret_{options['scenario']}_{label}_T{T}_seed{seed}",
                            kind="regret",
                            params={
                                "T": T,
                                "label": label,
                                "seed": seed,
                                "sampler": sampler,
                                "options": options,
                            },
                        )
                    )
        elif spec.family == "variance_study":
            for seed in spec.seeds:
                cells.append(
                    _Cell(
                        id=f"variance_{label}_seed{seed}",
                        kind="variance",
                        params={"label": label, "seed": seed, "options": options},
                    )
                )
        else:
            cells.append(_Cell(id=f"bench_{label}", kind="bench", params={"label": label, "options": options}))
    return cells


def _execute_cell(args) -> dict:
    spec, outdir, cell = args
    try:
        artifacts = _CELL_RUNNERS[cell.kind](spec, outdir, cell)
        return {"id": cell.id, "status": "ok", "artifacts": artifacts}
    except Exception:
        marker = outdir / f"{cell.id}.FAILED"
        marker.write_text(traceback.format_exc())
        return {"id": cell.id, "status": "failed", "artifacts": [marker.name]}


def _sampler_config(sampler_opts: dict, capacity: int) -> SamplerConfig:
    return SamplerConfig(capacity=capacity, **sampler_opts)


def _run_rl_cell(spec: ExperimentSpec, outdir: Path, cell: _Cell) -> list[str]:
    params = cell.params
    options = params["options"]
    env = ENVIRONMENTS[params["env"]]()
    mode = params["mode"]
    config = TrainingConfig(
        total_steps=options["total_steps"],
        batch_size=options["batch_size"],
        buffer_capacity=options["buffer_capacity"],
        learning_rate=options["learning_rate"],
        selection_mode=mode,
        seed=cell_seed(params["seed"], f"rl_{params['env']}_{mode}_{params['label']}"),
        updates_per_episode=options["updates_per_episode"],
        sampler=_sampler_config(params["sampler"], options["buffer_capacity"]),
        eval_every=options["eval_every"],
        eval_episodes=options["eval_episodes"],
        probe_every=options["probe_every"],
        probe_repeats=options["probe_repeats"],
    )
    trace = run_training(env, config)
    trace.seed = params["seed"]  # report the spec-level seed, not the derived stream
    path = outdir / f"{cell.id}.csv"
    write_trace(path, trace, config_echo=spec.echo())
    return [path.name]


def _run_regret_cell(spec: ExperimentSpec, outdir: Path, cell: _Cell) -> list[str]:
    params = cell.params
    options = params["options"]
    T = params["T"]
    seed = params["seed"]
    capacity = options["capacity"]
    scenario = options["scenario"]
    sampler_opts = dict(params["sampler"])
    artifacts = []

    if scenario == "stationary":
        config = _sampler_config({**sampler_opts, "kappa": 0.0}, capacity)
        generator = stationary_sequence()
        ledger = run_regret_experiment(generator, config, T, [seed], feedback="full")[0]
        path = outdir / f"{cell.id}.csv"
        write_regret(path, seed, ledger, metadata={"scenario": scenario, "feedback": "full"})
        artifacts.append(path.name)
    elif scenario == "bandit_rate":
        kappa = min(1.0, (capacity / T) ** (1.0 / 3.0))
        config = _sampler_config({**sampler_opts, "kappa": kappa}, capacity)
        generator = scaled_noise_sequence(orders=2.0)
        ledger = run_regret_experiment(
            generator, config, T, [seed], feedback="bandit", batch=options["batch"]
        )[0]
        path = outdir / f"{cell.id}.csv"
        write_regret(path, seed, ledger, metadata={"scenario": scenario, "feedback": "bandit"})
        artifacts.append(path.name)
    else:  # drifting: periodic-reset pattern vs per-collection reinitialization
        adaptive_period = max(2, min(int(np.sqrt(T) / 3.0), int(np.sqrt(capacity - 1))))
        naive_period = options["naive_reset"]
        generator = drifting_sequence(interval=adaptive_period, n_replace=options["drift_replace"])
        for pattern, period in (("adaptive", adaptive_period), ("naive", naive_period)):
            config = _sampler_config(
                {**sampler_opts, "reset_period": period, "reset_mode": "hard"}, capacity
            )
            ledger = run_regret_experiment(
                generator, config, T, [seed], feedback="bandit", batch=options["batch"]
            )[0]
            path = outdir / f"{cell.id}_{pattern}.csv"
            write_regret(
                path, seed, ledger,
                metadata={"scenario": scenario, "pattern": pattern, "reset_period": str(period)},
            )
            artifacts.append(path.name)
    return artifacts


def _run_variance_cell(spec: ExperimentSpec, outdir: Path, cell: _Cell) -> list[str]:
    options = cell.params["options"]
    seed = cell.params["seed"]
    comparisons = []
    for i in range(options["constructions"]):
        comparisons.append(
            learned_vs_uniform_variance(
                seed=cell_seed(seed, f"variance_{cell.params['label']}_{i}"),
                capacity=options["capacity"],
                batch=options["batch"],
                repeats=options["repeats"],
                orders=options["orders"],
            )
        )
    path = outdir / f"{cell.id}.csv"
    write_variance(path, comparisons, metadata={"base_seed": str(seed)})
    return [path.name]


def _run_bench_cell(spec: ExperimentSpec, outdir: Path, cell: _Cell) -> list[str]:
    options = cell.params["options"]
    rows = run_bench(
        capacity=options["capacity"], batch=options["batch"], rounds=options["rounds"]
    )
    path = outdir / f"{cell.id}.csv"
    write_bench(path, rows)
    return [path.name]


_CELL_RUNNERS = {
    "rl": _run_rl_cell,
    "regret": _run_regret_cell,
    "variance": _run_variance_cell,
    "bench": _run_bench_cell,
}


def _aggregate_rl_metrics(spec: ExperimentSpec, outdir: Path, results) -> None:
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for result in results:
        for name in result["artifacts"]:
            if not name.startswith("rl_"):
                continue
            data = read_trace(outdir / name)
            label = result["id"].rsplit("_seed", 1)[0]
            groups.setdefault((label, data["env"], data["mode"]), []).append(data)
    rows = []
    for (label, env, mode), traces in sorted(groups.items()):
        metric = compute_metrics(
            [t["steps"] for t in traces], [t["returns"] for t in traces]
        )
        rows.append((spec.family, label, env, mode, len(traces), metric))
    write_metrics(outdir / "metrics.csv", rows)


def metrics_from_traces(paths, window: int = 10):
    """Compute one MetricsRow from trace CSVs forming a seed group."""
    traces = [read_trace(Path(p)) for p in paths]
    return compute_metrics(
        [t["steps"] for t in traces], [t["returns"] for t in traces], window=window
    )
