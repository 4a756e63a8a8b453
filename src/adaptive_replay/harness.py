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
import glob
import hashlib
import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
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
    write_atomic,
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
    """A parsed experiment: family, seeds, sweeps, sampler values and family options.

    Construction builds, for every cell, the sampler and training configs that
    the cell will run with, so a value those configs reject is rejected here,
    named by its ``section.key``.
    """

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
        for _, overrides in self.sweep:
            # Scenarios may override some sampler values, so check the section
            # as written too; no sampler rule depends on the capacity.
            _build("sampler", SamplerConfig, **_apply_sweep(self, overrides)[0], capacity=1)
        for cell in _build_cells(self):
            if cell.kind in _CELL_CONFIGS:
                _CELL_CONFIGS[cell.kind](cell.params)

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

def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _positive(value, key):
    if value <= 0:
        raise ValueError(f"{key}={value} must be positive")


def _one_of(*allowed):
    def check(value, key):
        if value not in allowed:
            raise ValueError(f"{key}={value!r} must be one of {allowed}")

    return check


# Each key's converter.  Sampler and training values are checked by the config
# objects the cells build (see ``ExperimentSpec``), the other keys by ``_CHECKS``.
_SCHEMA = {
    "experiment": {"family": str.strip, "seeds": _parse_int_list, "output_dir": str.strip},
    "sampler": {
        "kappa": float, "nu": float, "reset_period": int, "reset_mode": str.strip,
        "rho": float, "rho_start": float, "rho_end": float, "anneal_steps": int,
    },
    "regret": {
        "scenario": str.strip, "capacity": int, "horizons": _parse_int_list,
        "batch": int, "drift_replace": int, "naive_reset": int,
    },
    "training": {
        "envs": _parse_str_list, "modes": _parse_str_list, "total_steps": int,
        "batch_size": int, "buffer_capacity": int, "learning_rate": float, "eval_every": int,
        "eval_episodes": int, "probe_every": int, "probe_repeats": int, "updates_per_episode": int,
    },
    "variance": {"constructions": int, "capacity": int, "batch": int, "repeats": int, "orders": float},
    "bench": {"capacity": int, "batch": int, "rounds": int},
}

# Every number of the regret, variance and bench sections is positive.
_CHECKS = {
    "experiment.family": _one_of(*FAMILIES),
    "regret.scenario": _one_of("stationary", "bandit_rate", "drifting"),
    **{
        f"{section}.{key}": _positive
        for section in ("regret", "variance", "bench")
        for key, convert in _SCHEMA[section].items()
        if convert in (int, float)
    },
}


def parse_config(path) -> ExperimentSpec:
    """Parse an INI-style spec: flat sections, ``key = value``, comma lists.

    Unknown sections or keys and out-of-range values are rejected with the
    offending key named.  An empty file yields the full-default spec.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(Path(path).read_text())

    sections: dict[str, dict] = {}
    sweep: list[tuple[str, dict]] = []
    for section in parser.sections():
        if section.startswith("sweep:"):
            overrides = {}
            for dotted, raw in parser.items(section):
                sec, _, key = dotted.partition(".")
                if key not in _SCHEMA.get(sec, {}):
                    raise ValueError(f"unknown sweep override '{dotted}'")
                overrides[dotted] = _parse_value(sec, key, raw)
            sweep.append((section.split(":", 1)[1], overrides))
            continue
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        sections[section] = {key: _parse_value(section, key, raw) for key, raw in parser.items(section)}

    experiment = sections.get("experiment", {})
    family = experiment.get("family", "regret_synthetic")
    for section in sections:
        if section not in ("experiment", "sampler", _family_section(family)):
            raise ValueError(f"section [{section}] does not belong to family '{family}'")
    return ExperimentSpec(
        family=family,
        seeds=tuple(experiment.get("seeds", (0,))),
        output_dir=experiment.get("output_dir", "runs"),
        sweep=tuple(sweep) if sweep else (("base", {}),),
        sampler=sections.get("sampler", {}),
        options=sections.get(_family_section(family), {}),
    )


def _parse_value(section: str, key: str, raw: str):
    """Convert one raw value of ``section.key``; errors name the key."""
    if key not in _SCHEMA[section]:
        raise ValueError(f"unknown key '{section}.{key}'")
    try:
        value = _SCHEMA[section][key](raw)
    except ValueError as exc:
        raise ValueError(f"invalid value for '{section}.{key}': {raw!r}") from exc
    check = _CHECKS.get(f"{section}.{key}")
    if check is not None:
        check(value, f"{section}.{key}")
    return value


def _build(section: str, config_type, **values):
    """Construct a config; a rule it breaks is re-raised as ``section.<message>``.

    The config messages a spec can trigger start with the offending field, so
    the re-raised error names the spec key.
    """
    try:
        return config_type(**values)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from exc


# --- seeding --------------------------------------------------------------------

def cell_seed(seed: int, cell_id: str) -> int:
    """Derive a 63-bit substream seed by hashing (seed, cell_id)."""
    digest = hashlib.sha256(f"{seed}:{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


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
    traceback and flips the exit status to 1, but other cells still run; a
    failed rl aggregation leaves ``metrics.FAILED`` the same way.  A rerun
    into the same directory removes the markers its successes supersede.
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
    artifacts = [name for r in results for name in r["artifacts"]]
    if spec.family == "rl_comparison":
        # Whichever metrics file an earlier run left describes other traces.
        for stale in ("metrics.csv", "metrics.FAILED"):
            (outdir / stale).unlink(missing_ok=True)
        if status == 0:
            metrics = _run_or_mark(
                outdir, "metrics", lambda: _aggregate_rl_metrics(spec, outdir, cells)
            )
            status = 0 if metrics["status"] == "ok" else 1
            artifacts += metrics["artifacts"]
    manifest = {
        "package_version": __version__,
        "generator": GENERATOR_ID,
        "spec": spec.echo(),
        "sweep": [label for label, _ in spec.sweep],
        "cells": [
            {"id": r["id"], "status": r["status"], "artifacts": r["artifacts"]}
            for r in results
        ],
        "sha256": {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in artifacts},
    }
    write_atomic(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return status


def _run_or_mark(outdir: Path, name: str, run) -> dict:
    """Call ``run()`` for its artifact names; if it raises, write ``<name>.FAILED``.

    The marker holds the traceback.  A success removes the marker an earlier
    run into ``outdir`` left under the same name; a failure removes the
    artifacts an earlier success left, ``<name>.csv`` and the per-pattern
    ``<name>_<pattern>.csv``, so the directory agrees with the manifest.
    """
    marker = outdir / f"{name}.FAILED"
    try:
        artifacts = run()
    except Exception:
        for stale in [outdir / f"{name}.csv", *outdir.glob(f"{glob.escape(name)}_*.csv")]:
            stale.unlink(missing_ok=True)
        write_atomic(marker, traceback.format_exc())
        return {"id": name, "status": "failed", "artifacts": [marker.name]}
    marker.unlink(missing_ok=True)
    return {"id": name, "status": "ok", "artifacts": artifacts}


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
    return _run_or_mark(outdir, cell.id, lambda: _CELL_RUNNERS[cell.kind](spec, outdir, cell))


# --- cell configs and runners -----------------------------------------------------

def _rl_config(params: dict) -> TrainingConfig:
    """The TrainingConfig, with its SamplerConfig, that an rl cell trains with."""
    options = params["options"]
    config = _build(
        "training",
        TrainingConfig,
        total_steps=options["total_steps"],
        batch_size=options["batch_size"],
        buffer_capacity=options["buffer_capacity"],
        learning_rate=options["learning_rate"],
        selection_mode=params["mode"],
        seed=cell_seed(params["seed"], f"rl_{params['env']}_{params['mode']}_{params['label']}"),
        updates_per_episode=options["updates_per_episode"],
        eval_every=options["eval_every"],
        eval_episodes=options["eval_episodes"],
        probe_every=options["probe_every"],
        probe_repeats=options["probe_repeats"],
    )
    sampler = _build("sampler", SamplerConfig, **params["sampler"], capacity=config.buffer_capacity)
    return replace(config, sampler=sampler)


def _regret_configs(params: dict) -> dict[str | None, SamplerConfig]:
    """The SamplerConfig of each ledger a regret cell writes, keyed by its pattern.

    The drifting scenario contrasts two reset patterns; the others write one
    ledger, keyed ``None``.
    """
    options, T = params["options"], params["T"]
    capacity = options["capacity"]
    if T < 1:
        raise ValueError(f"regret.horizons must be positive, got {T}")
    if options["scenario"] == "stationary":
        overrides = {None: {"kappa": 0.0}}
    elif options["scenario"] == "bandit_rate":
        overrides = {None: {"kappa": min(1.0, (capacity / T) ** (1.0 / 3.0))}}
    else:  # drifting: periodic-reset pattern vs per-collection reinitialization
        if options["drift_replace"] > capacity:
            raise ValueError(
                f"regret.drift_replace must be <= regret.capacity ({capacity}), "
                f"got {options['drift_replace']}"
            )
        adaptive_period = max(2, min(int(np.sqrt(T) / 3.0), int(np.sqrt(capacity - 1))))
        overrides = {
            "adaptive": {"reset_period": adaptive_period, "reset_mode": "hard"},
            "naive": {"reset_period": options["naive_reset"], "reset_mode": "hard"},
        }
    return {
        pattern: _build("sampler", SamplerConfig, **{**params["sampler"], **changed}, capacity=capacity)
        for pattern, changed in overrides.items()
    }


_CELL_CONFIGS = {"rl": _rl_config, "regret": _regret_configs}


def _run_rl_cell(spec: ExperimentSpec, outdir: Path, cell: _Cell) -> list[str]:
    config = _rl_config(cell.params)
    trace = run_training(ENVIRONMENTS[cell.params["env"]](), config)
    trace.seed = cell.params["seed"]  # report the spec-level seed, not the derived stream
    path = outdir / f"{cell.id}.csv"
    write_trace(path, trace, config_echo=spec.echo())
    return [path.name]


def _run_regret_cell(spec: ExperimentSpec, outdir: Path, cell: _Cell) -> list[str]:
    params = cell.params
    options, T, seed = params["options"], params["T"], params["seed"]
    scenario = options["scenario"]
    configs = _regret_configs(params)
    if scenario == "stationary":
        generator, feedback = stationary_sequence(), "full"
    elif scenario == "bandit_rate":
        generator, feedback = scaled_noise_sequence(orders=2.0), "bandit"
    else:
        interval = configs["adaptive"].reset_period
        generator = drifting_sequence(interval=interval, n_replace=options["drift_replace"])
        feedback = "bandit"
    artifacts = []
    for pattern, config in configs.items():
        ledger = run_regret_experiment(
            generator, config, T, [seed], feedback=feedback, batch=options["batch"]
        )[0]
        if pattern is None:
            path = outdir / f"{cell.id}.csv"
            metadata = {"scenario": scenario, "feedback": feedback}
        else:
            path = outdir / f"{cell.id}_{pattern}.csv"
            metadata = {"scenario": scenario, "pattern": pattern, "reset_period": str(config.reset_period)}
        write_regret(path, seed, ledger, metadata=metadata)
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


def _aggregate_rl_metrics(spec: ExperimentSpec, outdir: Path, cells: list[_Cell]) -> list[str]:
    """Write ``metrics.csv``: one row per seed group of the cells' trace CSVs."""
    groups: dict[tuple[str, str, str], list[Path]] = {}
    for cell in cells:
        group = (cell.id.rsplit("_seed", 1)[0], cell.params["env"], cell.params["mode"])
        groups.setdefault(group, []).append(outdir / f"{cell.id}.csv")
    rows = [
        (spec.family, label, env, mode, len(paths), metrics_from_traces(paths))
        for (label, env, mode), paths in sorted(groups.items())
    ]
    write_metrics(outdir / "metrics.csv", rows)
    return ["metrics.csv"]


def metrics_from_traces(paths, window: int = 10):
    """Compute one MetricsRow from trace CSVs forming a seed group."""
    traces = [read_trace(Path(p)) for p in paths]
    return compute_metrics(
        [t["steps"] for t in traces], [t["returns"] for t in traces], window=window
    )
