"""Experiment families, config parsing, deterministic seeding, and suite execution.

Three families share one runner:

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

In rl and variance cells every stochastic choice descends from the seed and
the cell's id through a SHA-256 hash into a numpy PCG64 generator, recorded
in the run manifest.  A regret cell seeds ``SeedSequence(seed)`` directly,
without its id, so every learner config on one seed faces the same loss
sequence.  Either way any cell rerun with the same spec and seed reproduces
its artifacts byte for byte.
"""

from __future__ import annotations

import configparser
import glob
import hashlib
import json
import os
import traceback
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .envs import ENVIRONMENTS
from .metrics import DEFAULT_WINDOW, compute_metrics
from .regret import (
    drifting_sequence,
    run_regret_experiment,
    scaled_noise_sequence,
    stationary_sequence,
)
from .reporting import (
    metrics_text,
    read_trace,
    write_atomic,
    write_regret,
    write_trace,
    write_variance,
)
from .sampler import SamplerConfig
from .studies import check_study, learned_vs_uniform_variance
from .training import MODES, TrainingConfig, run_training

OUTPUT_ROOT_ENV = "ADAPTIVE_REPLAY_OUT"
GENERATOR_ID = "numpy.random.PCG64"


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# The [sampler] keys as (converter, default).  The family sections' keys are
# in ``_FAMILIES``; the [experiment] keys, in ``_SECTIONS``, default to
# ExperimentSpec's values.
_SAMPLER = {
    "kappa": (float, 0.1), "nu": (float, 1000.0), "reset_period": (int, 100),
    "reset_mode": (str.strip, "soft"), "rho": (float, 0.9),
}
# Every number of these sections is positive and finite.  Sampler and training
# values are checked by the config objects the cells build.
_POSITIVE_SECTIONS = ("regret", "variance")

_SCENARIOS = ("stationary", "bandit_rate", "drifting")


@dataclass
class ExperimentSpec:
    """An experiment: family, seeds, sweeps, sampler values and family options.

    Construction holds a spec to every rule, whether it was built here or by
    ``parse_config``, and names the offending ``section.key``: unknown keys,
    values that no spec text parses to, family and scenario names, positive
    numbers, non-empty lists of distinct entries, distinct non-negative seeds,
    distinct sweep labels and cell ids, and, for every cell of every sweep,
    the sampler and training configs the cell will run with.
    """

    family: str = "regret_synthetic"
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "runs"
    sweep: tuple[tuple[str, dict], ...] = (("base", {}),)
    sampler: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"experiment.family must be one of {tuple(_FAMILIES)}, got {self.family!r}")
        family = _FAMILIES[self.family]
        if self.sampler and not family.uses_sampler:
            raise ValueError(f"section [sampler] does not belong to family '{self.family}'")
        experiment = {"seeds": self.seeds, "output_dir": self.output_dir}
        for section, values in (
            ("experiment", experiment), ("sampler", self.sampler), (family.section, self.options)
        ):
            for key, value in values.items():
                _check_value(section, key, value)
        for _, overrides in self.sweep:
            for dotted, value in overrides.items():
                _check_value(*dotted.partition(".")[::2], value, kind="sweep override")
        if len(self.seeds) == 0:
            raise ValueError("experiment.seeds must not be empty")
        if min(self.seeds) < 0:
            raise ValueError(f"experiment.seeds must be non-negative, got {min(self.seeds)}")
        _check_distinct("experiment.seeds", self.seeds)
        _check_distinct("sweep label", [label for label, _ in self.sweep])
        self.sampler = {**_defaults(_SAMPLER), **self.sampler} if family.uses_sampler else {}
        self.options = {**_defaults(family.keys), **self.options}
        cell_ids = set()
        for label, overrides in self.sweep:
            sampler, options = _apply_sweep(self, overrides)
            for key, value in options.items():
                convert = family.keys[key][0]
                number = convert in (int, float) and family.section in _POSITIVE_SECTIONS
                if number and not 0 < value < np.inf:
                    raise ValueError(f"{family.section}.{key}={value} must be positive and finite")
                if convert in (_parse_int_list, _parse_str_list):
                    if len(value) == 0:
                        raise ValueError(f"{family.section}.{key} must not be empty")
                    _check_distinct(f"{family.section}.{key}", value)
            # Scenarios may override some sampler values, so check the section
            # as written too; no sampler rule depends on the capacity.
            _build("sampler", SamplerConfig, **sampler, capacity=1)
            for cell_id, params in family.cells(self, label, sampler, options):
                # Distinct entries can still spell one id through the labels'
                # underscores: mode adaptive with label epoch_x, and adaptive_epoch with x.
                if cell_id in cell_ids:
                    raise ValueError(f"sweep:{label} repeats the cell id {cell_id!r}")
                cell_ids.add(cell_id)
                if family.configs is not None:
                    family.configs(params)

    def echo(self) -> dict[str, str]:
        """Flat, sorted key=value view of the spec for manifests and comments."""
        flat = {
            "experiment.family": self.family,
            "experiment.seeds": ",".join(str(s) for s in self.seeds),
            "experiment.output_dir": self.output_dir,
        }
        for key, value in self.sampler.items():
            flat[f"sampler.{key}"] = _echo_value(value)
        section = _FAMILIES[self.family].section
        for key, value in self.options.items():
            flat[f"{section}.{key}"] = _echo_value(value)
        return dict(sorted(flat.items()))


def _echo_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _defaults(keys: dict) -> dict:
    return {key: default for key, (_, default) in keys.items()}


def _check_distinct(name: str, values) -> None:
    """Reject a repeated entry of ``values`` by ``name``: two equal entries
    would give two cells one id, and so one file."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} {value!r} repeats; entries must be distinct")


def _check_value(section: str, key: str, value, kind: str = "key") -> None:
    """Reject ``value`` by name unless the key's converter reads it back from its
    spec text unchanged, so a spec built in Python holds the values a parsed
    one would (a list stands for the tuple a list key parses to)."""
    expected = tuple(value) if isinstance(value, list) else value
    if _convert(section, key, _echo_value(value), kind) != expected:
        raise ValueError(f"invalid value for '{section}.{key}': {value!r}")


# --- config file parsing --------------------------------------------------------

def parse_config(path) -> ExperimentSpec:
    """Parse an INI-style spec: flat sections, ``key = value``, comma lists.

    Parsing converts text, naming the key whose value does not convert or
    whose section does not belong to the family; ``ExperimentSpec`` checks
    the values.  An empty file yields the full-default spec.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(Path(path).read_text(), source=str(path))

    sections: dict[str, dict] = {}
    sweep: list[tuple[str, dict]] = []
    for name in parser.sections():
        if name.startswith("sweep:"):
            overrides = {
                dotted: _convert(*dotted.partition(".")[::2], raw, kind="sweep override")
                for dotted, raw in parser.items(name)
            }
            sweep.append((name.split(":", 1)[1], overrides))
        elif name in _SECTIONS:
            sections[name] = {key: _convert(name, key, raw) for key, raw in parser.items(name)}
        else:
            raise ValueError(f"unknown config section [{name}]")

    experiment = sections.pop("experiment", {})
    family = experiment.get("family", ExperimentSpec.family)
    section = getattr(_FAMILIES.get(family), "section", None)
    for name in sections:
        if name not in getattr(_FAMILIES.get(family), "sections", ("sampler",)):
            raise ValueError(f"section [{name}] does not belong to family '{family}'")
    return ExperimentSpec(
        **experiment,
        **({"sweep": tuple(sweep)} if sweep else {}),
        sampler=sections.get("sampler", {}),
        options=sections.get(section, {}),
    )


def _convert(section: str, key: str, raw: str, kind: str = "key"):
    """Convert one raw value of ``section.key``; an unknown key or a value that
    does not convert is rejected by name."""
    keys = _SECTIONS.get(section, {})
    if key not in keys:
        raise ValueError(f"unknown {kind} '{section}.{key}'")
    try:
        return keys[key][0](raw)
    except ValueError as exc:
        raise ValueError(f"invalid value for '{section}.{key}': {raw!r}") from exc


def _build(section: str, config_type, **values):
    """Build a config or run a check; a broken rule is re-raised as ``section.<message>``.

    The messages a spec can trigger start with the offending field, so the
    re-raised error names the spec key.
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
    into the same directory removes the markers its successes supersede, and
    the earlier manifest before its first cell.
    """
    outdir = resolve_output_dir(spec.output_dir, out)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = _build_cells(spec)
    # Written last, so a run killed partway leaves none describing other files.
    (outdir / "manifest.json").unlink(missing_ok=True)
    # A fork pool starts all its workers at the first submit: no more than there are cells.
    workers = min(workers, len(cells))
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


def _apply_sweep(spec: ExperimentSpec, overrides: dict) -> tuple[dict, dict]:
    """The sampler values and family options of one sweep label."""
    family = _FAMILIES[spec.family]
    sampler, options = dict(spec.sampler), dict(spec.options)
    targets = {"sampler": sampler, family.section: options}
    for dotted, value in overrides.items():
        sec, _, key = dotted.partition(".")
        if sec not in family.sections:
            raise ValueError(f"sweep override '{dotted}' does not apply to family {spec.family}")
        targets[sec][key] = value
    return sampler, options


def _build_cells(spec: ExperimentSpec) -> list[tuple[str, dict]]:
    """Every cell of the spec as ``(cell id, params)``, sweep by sweep."""
    family = _FAMILIES[spec.family]
    return [
        cell
        for label, overrides in spec.sweep
        for cell in family.cells(spec, label, *_apply_sweep(spec, overrides))
    ]


def _execute_cell(args) -> dict:
    spec, outdir, (cell_id, params) = args
    run = _FAMILIES[spec.family].run
    return _run_or_mark(outdir, cell_id, lambda: run(spec, outdir, cell_id, params))


# --- families: cells, configs and runners -------------------------------------------

def _rl_cells(spec: ExperimentSpec, label: str, sampler: dict, options: dict):
    for env in options["envs"]:
        if env not in ENVIRONMENTS:
            raise ValueError(f"training.envs: unknown environment '{env}'")
        for mode in options["modes"]:
            if mode not in MODES:
                raise ValueError(f"training.modes: unknown selection mode '{mode}'")
            for seed in spec.seeds:
                params = {
                    "env": env, "mode": mode, "label": label, "seed": seed,
                    "sampler": sampler, "options": options,
                }
                yield f"rl_{env}_{mode}_{label}_seed{seed}", params


def _rl_config(params: dict) -> TrainingConfig:
    """The TrainingConfig, with its SamplerConfig, that an rl cell trains with."""
    # Every [training] key but envs and modes is a TrainingConfig field.
    fields = {k: v for k, v in params["options"].items() if k not in ("envs", "modes")}
    seed = cell_seed(params["seed"], f"rl_{params['env']}_{params['mode']}_{params['label']}")
    config = _build("training", TrainingConfig, **fields, selection_mode=params["mode"], seed=seed)
    sampler = _build("sampler", SamplerConfig, **params["sampler"], capacity=config.buffer_capacity)
    return replace(config, sampler=sampler)


def _run_rl_cell(spec: ExperimentSpec, outdir: Path, cell_id: str, params: dict) -> list[str]:
    config = _rl_config(params)
    trace = run_training(ENVIRONMENTS[params["env"]](), config)
    trace.seed = params["seed"]  # report the spec-level seed, not the derived stream
    path = outdir / f"{cell_id}.csv"
    write_trace(path, trace, config_echo=spec.echo())
    return [path.name]


def _regret_cells(spec: ExperimentSpec, label: str, sampler: dict, options: dict):
    scenario = options["scenario"]
    if scenario not in _SCENARIOS:
        raise ValueError(f"regret.scenario={scenario!r} must be one of {_SCENARIOS}")
    for T in options["horizons"]:
        for seed in spec.seeds:
            params = {"T": T, "label": label, "seed": seed, "sampler": sampler, "options": options}
            yield f"regret_{scenario}_{label}_T{T}_seed{seed}", params


def _regret_ledgers(params: dict) -> list[tuple]:
    """``(pattern, SamplerConfig, sequence generator, feedback)`` of each ledger of a regret cell.

    The drifting scenario contrasts the periodic-reset pattern with
    per-collection reinitialization; the others write one ledger, pattern ``None``.
    """
    options, T = params["options"], params["T"]
    capacity = options["capacity"]
    if T < 1:
        raise ValueError(f"regret.horizons must be positive, got {T}")

    def config(**changed) -> SamplerConfig:
        return _build("sampler", SamplerConfig, **{**params["sampler"], **changed}, capacity=capacity)

    if options["scenario"] == "stationary":
        return [(None, config(kappa=0.0), stationary_sequence(), "full")]
    if options["scenario"] == "bandit_rate":
        kappa = min(1.0, (capacity / T) ** (1.0 / 3.0))
        return [(None, config(kappa=kappa), scaled_noise_sequence(orders=2.0), "bandit")]
    if options["drift_replace"] > capacity:
        raise ValueError(
            f"regret.drift_replace must be <= regret.capacity ({capacity}), "
            f"got {options['drift_replace']}"
        )
    period = max(2, min(int(np.sqrt(T) / 3.0), int(np.sqrt(capacity - 1))))
    generator = drifting_sequence(interval=period, n_replace=options["drift_replace"])
    return [
        ("adaptive", config(reset_period=period, reset_mode="hard"), generator, "bandit"),
        ("naive", config(reset_period=options["naive_reset"], reset_mode="hard"), generator, "bandit"),
    ]


def _run_regret_cell(spec: ExperimentSpec, outdir: Path, cell_id: str, params: dict) -> list[str]:
    options, seed = params["options"], params["seed"]
    artifacts = []
    for pattern, config, generator, feedback in _regret_ledgers(params):
        ledger = run_regret_experiment(
            generator, config, params["T"], [seed], feedback=feedback, batch=options["batch"]
        )[0]
        metadata = {"scenario": options["scenario"]}
        if pattern is None:
            name = f"{cell_id}.csv"
            metadata["feedback"] = feedback
        else:
            name = f"{cell_id}_{pattern}.csv"
            metadata.update(pattern=pattern, reset_period=str(config.reset_period))
        write_regret(outdir / name, seed, ledger, metadata=metadata)
        artifacts.append(name)
    return artifacts


def _variance_cells(spec: ExperimentSpec, label: str, sampler: dict, options: dict):
    _build("variance", check_study, **{k: options[k] for k in ("capacity", "repeats", "orders")})
    for seed in spec.seeds:
        yield f"variance_{label}_seed{seed}", {"label": label, "seed": seed, "options": options}


def _run_variance_cell(spec: ExperimentSpec, outdir: Path, cell_id: str, params: dict) -> list[str]:
    options, seed = params["options"], params["seed"]
    comparisons = [
        learned_vs_uniform_variance(
            seed=cell_seed(seed, f"variance_{params['label']}_{i}"),
            capacity=options["capacity"],
            batch=options["batch"],
            repeats=options["repeats"],
            orders=options["orders"],
        )
        for i in range(options["constructions"])
    ]
    path = outdir / f"{cell_id}.csv"
    write_variance(path, comparisons, metadata={"base_seed": str(seed)})
    return [path.name]


class _Family(NamedTuple):
    """One experiment family: its spec section, its keys, and its cells."""

    section: str
    keys: dict  # key -> (converter, default)
    cells: Callable  # (spec, label, sampler, options) -> (cell id, params) pairs
    run: Callable  # (spec, outdir, cell id, params) -> artifact names
    configs: Callable | None = None  # params -> the cell's configs, built when a spec is checked
    uses_sampler: bool = True  # whether the cells read the [sampler] values

    @property
    def sections(self) -> tuple[str, ...]:
        """The spec sections, besides [experiment], that the cells read."""
        return (self.section, "sampler") if self.uses_sampler else (self.section,)


_FAMILIES = {
    "regret_synthetic": _Family(
        "regret",
        {
            "scenario": (str.strip, "stationary"), "capacity": (int, 16),
            "horizons": (_parse_int_list, (500, 1000)), "batch": (int, 8),
            "drift_replace": (int, 2), "naive_reset": (int, 2),
        },
        _regret_cells, _run_regret_cell, _regret_ledgers,
    ),
    "rl_comparison": _Family(
        "training",
        {
            "envs": (_parse_str_list, ("two_state_bandit",)),
            "modes": (_parse_str_list, ("uniform", "adaptive")),
            "total_steps": (int, 400), "batch_size": (int, 4), "buffer_capacity": (int, 16),
            "learning_rate": (float, 0.2), "eval_every": (int, 20), "eval_episodes": (int, 20),
            "probe_every": (int, 0), "probe_repeats": (int, 400), "updates_per_episode": (int, 1),
        },
        _rl_cells, _run_rl_cell, _rl_config,
    ),
    "variance_study": _Family(
        "variance",
        {
            "constructions": (int, 50), "capacity": (int, 32), "batch": (int, 4),
            "repeats": (int, 400), "orders": (float, 3.5),
        },
        _variance_cells, _run_variance_cell, uses_sampler=False,
    ),
}
_SECTIONS = {
    "experiment": {
        "family": (str.strip, None), "seeds": (_parse_int_list, None), "output_dir": (str.strip, None),
    },
    "sampler": _SAMPLER,
    **{family.section: family.keys for family in _FAMILIES.values()},
}


def _aggregate_rl_metrics(spec: ExperimentSpec, outdir: Path, cells: list[tuple[str, dict]]) -> list[str]:
    """Write ``metrics.csv``: one row per seed group of the cells' trace CSVs."""
    groups: dict[tuple[str, str, str], list[Path]] = {}
    for cell_id, params in cells:
        group = (cell_id.rsplit("_seed", 1)[0], params["env"], params["mode"])
        groups.setdefault(group, []).append(outdir / f"{cell_id}.csv")
    rows = [
        (spec.family, label, env, mode, len(paths), metrics_from_traces(paths))
        for (label, env, mode), paths in sorted(groups.items())
    ]
    write_atomic(outdir / "metrics.csv", metrics_text(rows))
    return ["metrics.csv"]


def metrics_from_traces(paths, window: int = DEFAULT_WINDOW):
    """Compute one MetricsRow from trace CSVs forming a seed group: one env, one
    mode, distinct seeds and one evaluation schedule; other traces are rejected,
    naming each file."""
    traces = [read_trace(Path(p)) for p in paths]
    seeds = [t["seed"] for t in traces]
    if len({(t["env"], t["mode"]) for t in traces}) > 1 or len(set(seeds)) < len(seeds):
        files = "; ".join(f"{p}: {t['env']}/{t['mode']} seed {t['seed']}" for p, t in zip(paths, traces))
        raise ValueError(f"traces are not one seed group (one env and mode, distinct seeds): {files}")
    if len({len(t["steps"]) for t in traces}) > 1:
        files = "; ".join(f"{p}: {len(t['steps'])} points" for p, t in zip(paths, traces))
        raise ValueError(f"traces must share the evaluation schedule: {files}")
    return compute_metrics(
        [t["steps"] for t in traces], [t["returns"] for t in traces], window=window
    )
