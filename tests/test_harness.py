"""Config parsing, suite execution, CSV schemas, determinism, and the CLI."""

import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from adaptive_replay import cli, harness, studies
from adaptive_replay.bench import run_bench
from adaptive_replay.envs import chain_env
from adaptive_replay.cli import main as cli_main
from adaptive_replay.harness import (
    _FAMILIES,
    ExperimentSpec,
    cell_seed,
    metrics_from_traces,
    parse_config,
    resolve_output_dir,
    run_suite,
)
from adaptive_replay.reporting import (
    BENCH_HEADER,
    METRICS_HEADER,
    REGRET_HEADER,
    TRACE_HEADER,
    TRACE_SCHEMA,
    csv_text,
    metrics_text,
    read_trace,
    write_atomic,
    write_trace,
)
from adaptive_replay.sampler import SamplerConfig
from adaptive_replay.studies import heteroscedastic_buffer, learned_vs_uniform_variance, max_orders
from adaptive_replay.training import TrainingConfig, run_training


def write_spec(tmp_path, text):
    path = tmp_path / "spec.ini"
    path.write_text(text)
    return path


class TestParseConfig:
    def test_empty_file_yields_all_defaults(self, tmp_path):
        spec = parse_config(write_spec(tmp_path, ""))
        assert spec.family == "regret_synthetic"
        assert spec.seeds == (0,)
        assert spec.sampler["kappa"] == 0.1
        assert spec.sampler["nu"] == 1000.0
        assert spec.sampler["rho"] == 0.9

    def test_tuned_sampler_values_accepted(self, tmp_path):
        spec = parse_config(
            write_spec(
                tmp_path,
                """
                [sampler]
                kappa = 0.2
                nu = 10000
                reset_mode = hard
                rho = 0.7
                """,
            )
        )
        assert spec.sampler["kappa"] == 0.2
        assert spec.sampler["nu"] == 10000.0
        assert spec.sampler["reset_mode"] == "hard"
        assert spec.sampler["rho"] == 0.7

    def test_out_of_range_value_names_key(self, tmp_path):
        with pytest.raises(ValueError, match="sampler.kappa"):
            parse_config(write_spec(tmp_path, "[sampler]\nkappa = 1.5\n"))

    def test_negative_probe_every_names_key(self, tmp_path):
        text = "[experiment]\nfamily = rl_comparison\n[training]\nprobe_every = -50\n"
        with pytest.raises(ValueError, match="training.probe_every"):
            parse_config(write_spec(tmp_path, text))

    def test_zero_updates_per_episode_rejected_in_every_mode(self, tmp_path):
        base = "[experiment]\nfamily = rl_comparison\n[training]\nupdates_per_episode = 0\n"
        for text in (
            base,
            base + "modes = adaptive_epoch\n",
            base + "[sweep:mixed]\ntraining.modes = uniform,adaptive_epoch\n",
        ):
            with pytest.raises(ValueError, match="training.updates_per_episode must be >= 1"):
                parse_config(write_spec(tmp_path, text))

    def test_unknown_key_names_key(self, tmp_path):
        with pytest.raises(ValueError, match="sampler.foo"):
            parse_config(write_spec(tmp_path, "[sampler]\nfoo = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mystery"):
            parse_config(write_spec(tmp_path, "[mystery]\nx = 1\n"))

    def test_section_family_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not belong"):
            parse_config(
                write_spec(
                    tmp_path,
                    "[experiment]\nfamily = variance_study\n\n[training]\ntotal_steps = 10\n",
                )
            )

    @pytest.mark.parametrize(
        "text, built, message",
        [
            ("[sampler]\nkappa = 0.9\n", {"sampler": {"kappa": 0.9}},
             "section [sampler] does not belong to family 'variance_study'"),
            ("[sweep:x]\nsampler.kappa = 0.9\n", {"sweep": (("x", {"sampler.kappa": 0.9}),)},
             "sweep override 'sampler.kappa' does not apply to family variance_study"),
        ],
        ids=["section", "sweep"],
    )
    def test_variance_family_rejects_sampler_values(self, tmp_path, text, built, message):
        # The study learns with its own fixed sampler; no cell reads [sampler].
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(write_spec(tmp_path, f"[experiment]\nfamily = variance_study\n{text}"))
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(family="variance_study", **built)
        assert not any(key.startswith("sampler.") for key in ExperimentSpec(family="variance_study").echo())

    def test_seed_list_and_family(self, tmp_path):
        spec = parse_config(
            write_spec(
                tmp_path,
                """
                [experiment]
                family = rl_comparison
                seeds = 2,20,200
                output_dir = out

                [training]
                envs = two_state_bandit
                modes = uniform,adaptive
                total_steps = 60
                """,
            )
        )
        assert spec.family == "rl_comparison"
        assert spec.seeds == (2, 20, 200)
        assert spec.options["total_steps"] == 60
        assert spec.options["modes"] == ("uniform", "adaptive")

    def test_sweep_sections(self, tmp_path):
        spec = parse_config(
            write_spec(
                tmp_path,
                """
                [sweep:lowmix]
                sampler.kappa = 0.05

                [sweep:highmix]
                sampler.kappa = 0.5
                """,
            )
        )
        assert [label for label, _ in spec.sweep] == ["lowmix", "highmix"]
        assert spec.sweep[0][1] == {"sampler.kappa": 0.05}

    def test_unknown_sweep_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sweep override"):
            parse_config(write_spec(tmp_path, "[sweep:a]\nsampler.bogus = 1\n"))

    def test_invalid_family_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="family"):
            parse_config(write_spec(tmp_path, "[experiment]\nfamily = nope\n"))

    def test_bench_is_not_a_family(self, tmp_path):
        # The index micro-bench is the ``bench`` subcommand; it times, so it
        # has no place among the byte-deterministic spec families.
        with pytest.raises(ValueError, match="experiment.family must be one of"):
            parse_config(write_spec(tmp_path, "[experiment]\nfamily = bench\n"))
        with pytest.raises(ValueError, match=re.escape("unknown config section [bench]")):
            parse_config(write_spec(tmp_path, "[bench]\ncapacity = 64\n"))


RL = "[experiment]\nfamily = rl_comparison\n"
_HEADS = {"training": RL, "variance": "[experiment]\nfamily = variance_study\n"}


def set_both_ways(section, key, value):
    """A value set in its own section and the same value as a sweep override."""
    head = _HEADS.get(section, "")
    return [
        pytest.param(f"{head}[{section}]\n{key} = {value}\n", f"{section}.{key}", id=f"{key}={value}"),
        pytest.param(
            f"{head}[sweep:x]\n{section}.{key} = {value}\n", f"{section}.{key}",
            id=f"sweep-{key}={value}",
        ),
    ]


# Values an earlier, separate copy of the range rules in the parser rejected.
_REJECTED = [
    ("sampler", "kappa", 1.5), ("sampler", "kappa", -0.1), ("sampler", "rho", 1.5),
    ("sampler", "rho", -0.1), ("sampler", "rho", float("nan")),
    ("sampler", "nu", 0), ("sampler", "nu", -1), ("sampler", "reset_period", 0),
    ("training", "probe_every", -50), ("training", "total_steps", 0),
    ("training", "batch_size", 0), ("training", "buffer_capacity", 0),
    ("training", "learning_rate", 0), ("training", "learning_rate", -0.5),
    ("training", "eval_every", 0), ("training", "eval_episodes", 0),
    ("training", "probe_repeats", 0), ("training", "updates_per_episode", -1),
    ("variance", "capacity", 1),
    # Non-finite numbers, which the positivity rules once let through.
    ("training", "learning_rate", float("inf")), ("variance", "orders", float("inf")),
    # Finite, but past what the study's floats hold at capacity 32 and 400 repeats.
    ("variance", "orders", 310),
]

# List keys that, left empty, gave a spec of zero cells that ran as a success.
_EMPTY_LISTS = [("regret", "horizons"), ("training", "envs"), ("training", "modes")]

# Names outside an rl spec's environment and mode tables, rejected without their key.
_UNKNOWN_NAMES = [("training", "envs", "nope"), ("training", "modes", "nope")]

# Specs that copy accepted and then failed in every cell, or failed unnamed.
_CELL_FAILURES = [
    pytest.param(RL + "[training]\nbatch_size = 40\nbuffer_capacity = 8\n", "training.batch_size",
                 id="batch-over-capacity"),
    pytest.param("[sampler]\nreset_mode = annealed_soft\n", "sampler.reset_mode",
                 id="annealed-reset-mode"),
    pytest.param(RL + "[sweep:x]\ntraining.batch_size = abc\n", "training.batch_size",
                 id="sweep-not-an-int"),
    pytest.param(RL + "[training]\nprobe_every = 40\nprobe_repeats = 1\n", "training.probe_repeats",
                 id="one-probe-repeat"),
    pytest.param(RL + "[training]\nmodes = adaptive_epoch\nupdates_per_episode = 4\n",
                 "training.updates_per_episode", id="epoch-budget"),
    pytest.param("[regret]\nscenario = bandit_rate\n[sampler]\nkappa = 1.5\n", "sampler.kappa",
                 id="scenario-overridden-kappa"),
    pytest.param("[regret]\nscenario = drifting\ncapacity = 4\ndrift_replace = 6\n",
                 "regret.drift_replace", id="drift-replace-over-capacity"),
]


# List entries that, repeated, gave two cells one id and so one file.
_REPEATED_ENTRIES = [
    ("regret", "horizons", (50, 50)), ("training", "envs", ("chain5", "chain5")),
    ("training", "modes", ("adaptive", "adaptive")),
]

# Seeds that collided the same way, or failed in every cell at run time.
_BAD_SEEDS = [
    pytest.param(RL + "seeds = 1,1\n[training]\nmodes = adaptive,adaptive\n",
                 "experiment.seeds 1 repeats", id="repeated-seed-and-mode"),
    pytest.param("[experiment]\nseeds = 0,-1\n", "experiment.seeds must be non-negative, got -1",
                 id="negative-seed"),
]


@pytest.mark.parametrize(
    "text, key",
    [case for args in _REJECTED for case in set_both_ways(*args)]
    + [case for args in _EMPTY_LISTS for case in set_both_ways(*args, "")]
    + [case for args in _UNKNOWN_NAMES for case in set_both_ways(*args)]
    + _CELL_FAILURES
    + [case for s, k, v in _REPEATED_ENTRIES for case in set_both_ways(s, k, ",".join(map(str, v)))]
    + _BAD_SEEDS,
)
def test_rejected_values_name_their_key(tmp_path, text, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        parse_config(write_spec(tmp_path, text))


# Values a spec built in Python was accepted with before it was held to the
# rules a parsed spec is: unknown option and sampler keys, values that only
# the parser checked, and values of a type the key's text never parses to.
_DIRECT_ONLY = [
    ("regret", "bogus", 1), ("sampler", "kapa", 0.1), ("variance", "capacity", 0),
    ("regret", "scenario", "nope"), ("sampler", "kappa", "0.2"), ("regret", "capacity", "8"),
    ("training", "total_steps", 10.5), ("regret", "horizons", 50),
]

_FAMILY_OF = {
    "sampler": "regret_synthetic", "regret": "regret_synthetic", "training": "rl_comparison",
    "variance": "variance_study",
}


@pytest.mark.parametrize("as_sweep", [False, True], ids=["own", "sweep"])
@pytest.mark.parametrize(
    "section, key, value",
    _REJECTED + _DIRECT_ONLY
    + [pytest.param(*args, (), id=f"{args[0]}-{args[1]}-empty") for args in _EMPTY_LISTS]
    + [pytest.param(*args, id=f"{args[0]}-{args[1]}-repeated") for args in _REPEATED_ENTRIES]
    + [pytest.param(s, k, (name,), id=f"{s}-{k}-{name}") for s, k, name in _UNKNOWN_NAMES],
)
def test_directly_built_spec_rejected_by_key(section, key, value, as_sweep):
    if as_sweep:
        values = {"sweep": (("x", {f"{section}.{key}": value}),)}
    else:
        values = {"sampler" if section == "sampler" else "options": {key: value}}
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key}")):
        ExperimentSpec(family=_FAMILY_OF[section], **values)


@pytest.mark.parametrize("as_sweep", [False, True], ids=["own", "sweep"])
@pytest.mark.parametrize("key", ["rho_start", "rho_end", "anneal_steps"])
def test_annealing_keys_rejected_as_unknown(tmp_path, capsys, key, as_sweep):
    if as_sweep:
        text, built = f"[sweep:x]\nsampler.{key} = 1\n", {"sweep": (("x", {f"sampler.{key}": 1}),)}
        message = f"unknown sweep override 'sampler.{key}'"
    else:
        text, built = f"[sampler]\n{key} = 1\n", {"sampler": {key: 1}}
        message = f"unknown key 'sampler.{key}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(write_spec(tmp_path, text))
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentSpec(**built)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", str(write_spec(tmp_path, text)), "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("seeds", 5), ("seeds", ("1",)), ("seeds", (1.5,)), ("output_dir", 5), ("seeds", (-1,)),
     ("seeds", (1, 1))],
)
def test_directly_built_experiment_values_rejected_by_key(key, value):
    with pytest.raises(ValueError, match=re.escape(f"experiment.{key}")):
        ExperimentSpec(family="rl_comparison", **{key: value})


def test_directly_built_repeated_sweep_label_rejected():
    # Both sweeps would write the same four files; the last cell to finish won.
    sweep = (("x", {}), ("x", {"sampler.kappa": 0.5}))
    with pytest.raises(ValueError, match="sweep label 'x' repeats"):
        ExperimentSpec(family="rl_comparison", sweep=sweep)


def test_cell_ids_spelled_alike_by_a_label_rejected():
    # Mode adaptive under label epoch_x and mode adaptive_epoch under x spell one id.
    options = {"modes": ("adaptive", "adaptive_epoch")}
    with pytest.raises(ValueError, match="sweep:epoch_x repeats the cell id "
                       "'rl_two_state_bandit_adaptive_epoch_x_seed0'"):
        ExperimentSpec(family="rl_comparison", sweep=(("x", {}), ("epoch_x", {})), options=options)


def test_directly_built_lists_and_numbers_accepted():
    # A list stands for the tuple its key parses to, an int for a float.
    spec = ExperimentSpec(
        family="regret_synthetic", seeds=[0, 1], sampler={"kappa": 0, "nu": 10},
        options={"horizons": [50, 100]},
    )
    assert spec.options["horizons"] == [50, 100]


def test_readme_family_sections_match_the_family_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    line = re.search(r"Family sections:(.*?)\n\n", readme, re.DOTALL).group(1)
    named = {
        section: set(re.findall(r"`(\w+)`", keys))
        for section, keys in re.findall(r"`\[(\w+)\]`\s+\(([^)]*)\)", line)
    }
    assert named == {family.section: set(family.keys) for family in _FAMILIES.values()}


def test_every_training_config_field_has_a_setter():
    # Each field is a [training] key or set by _rl_config, save warmup_episodes,
    # which stays only because perfbench/worker.py reads it (ROADMAP item 9).
    keys = set(_FAMILIES["rl_comparison"].keys) - {"envs", "modes"}
    setters = keys | {"selection_mode", "seed", "sampler"} | {"warmup_episodes"}
    assert {f.name for f in fields(TrainingConfig)} == setters


def test_sampler_keys_are_the_sampler_config_fields():
    # Each [sampler] key sets the SamplerConfig field of its name; a cell sets the capacity.
    assert {f.name for f in fields(SamplerConfig)} - {"capacity"} == set(harness._SAMPLER)


def test_readme_spec_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    spec = parse_config(write_spec(tmp_path, block))
    assert spec.family == "rl_comparison"
    assert spec.sweep == (("highmix", {"sampler.kappa": 0.5}),)


def test_readme_quickstart_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    quickstart = readme.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README quickstart", "exec"), namespace)
    assert np.isfinite(namespace["grad"]).all()


class TestSeeding:
    def test_cell_seed_is_stable(self):
        assert cell_seed(7, "cell-a") == cell_seed(7, "cell-a")
        assert cell_seed(7, "cell-a") != cell_seed(7, "cell-b")
        assert cell_seed(7, "cell-a") != cell_seed(8, "cell-a")

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADAPTIVE_REPLAY_OUT", str(tmp_path / "root"))
        assert resolve_output_dir("runs") == tmp_path / "root" / "runs"
        assert resolve_output_dir("runs", override=str(tmp_path / "x")) == tmp_path / "x"
        monkeypatch.delenv("ADAPTIVE_REPLAY_OUT")
        assert resolve_output_dir("runs") == Path("runs")


def rl_spec(seeds=(1, 2), modes=("uniform", "adaptive"), **options):
    base = {
        "envs": ("two_state_bandit",),
        "modes": modes,
        "total_steps": 60,
        "batch_size": 4,
        "buffer_capacity": 8,
        "learning_rate": 0.2,
        "eval_every": 5,
        "eval_episodes": 5,
    }
    base.update(options)
    return ExperimentSpec(family="rl_comparison", seeds=tuple(seeds), options=base)


class TestRunSuite:
    def test_rl_comparison_artifact_counts(self, tmp_path):
        # 4 modes x 5 seeds: 20 trace files plus one aggregate metrics file.
        spec = rl_spec(
            seeds=(1, 2, 3, 4, 5),
            modes=("uniform", "td_priority", "adaptive", "adaptive_epoch"),
            updates_per_episode=1,
        )
        status = run_suite(spec, out=str(tmp_path))
        assert status == 0
        traces = sorted(tmp_path.glob("rl_*.csv"))
        assert len(traces) == 20
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_trace_schema_and_echo(self, tmp_path):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        run_suite(spec, out=str(tmp_path))
        path = next(tmp_path.glob("rl_*.csv"))
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=trace.v1"
        header_index = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_index] == TRACE_HEADER
        meta = dict(
            l[1:].strip().split("=", 1) for l in lines[:header_index] if "=" in l
        )
        assert "config_hash" in meta
        assert meta["experiment.family"] == "rl_comparison"

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = rl_spec(seeds=(7,), modes=("adaptive",))
        run_suite(spec, out=str(tmp_path / "a"))
        run_suite(spec, out=str(tmp_path / "b"))
        for name in [p.name for p in (tmp_path / "a").iterdir()]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_every_family_reruns_byte_for_byte(self, tmp_path, family):
        if family == "rl_comparison":
            spec = rl_spec(seeds=(1,), probe_every=10, probe_repeats=5)
        else:
            options = {
                "regret_synthetic": {"scenario": "drifting", "capacity": 8, "horizons": (40,)},
                "variance_study": {"constructions": 2, "capacity": 8, "batch": 2, "repeats": 20},
            }[family]
            spec = ExperimentSpec(family=family, seeds=(1, 2), options=options)
        assert run_suite(spec, out=str(tmp_path / "a")) == 0
        assert run_suite(spec, out=str(tmp_path / "b")) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "manifest.json" in names
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_regret_family_emits_ledgers(self, tmp_path):
        spec = ExperimentSpec(
            family="regret_synthetic",
            seeds=(0, 1),
            options={"scenario": "stationary", "capacity": 8, "horizons": (50, 100)},
        )
        assert run_suite(spec, out=str(tmp_path)) == 0
        ledgers = sorted(tmp_path.glob("regret_*.csv"))
        assert len(ledgers) == 4
        lines = ledgers[0].read_text().splitlines()
        assert lines[0] == "# schema=regret.v1"
        header = next(l for l in lines if not l.startswith("#"))
        assert header == REGRET_HEADER

    def test_drifting_scenario_emits_both_patterns(self, tmp_path):
        spec = ExperimentSpec(
            family="regret_synthetic",
            seeds=(0,),
            options={
                "scenario": "drifting",
                "capacity": 16,
                "horizons": (80,),
                "batch": 4,
                "drift_replace": 2,
                "naive_reset": 2,
            },
        )
        assert run_suite(spec, out=str(tmp_path)) == 0
        names = {p.name for p in tmp_path.glob("regret_*.csv")}
        assert any("adaptive" in n for n in names)
        assert any("naive" in n for n in names)

    def test_variance_family(self, tmp_path):
        spec = ExperimentSpec(
            family="variance_study",
            seeds=(0,),
            options={"constructions": 3, "capacity": 8, "batch": 2, "repeats": 50},
        )
        assert run_suite(spec, out=str(tmp_path)) == 0
        path = next(tmp_path.glob("variance_*.csv"))
        lines = path.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "construction,seed,loss_spread_orders,var_learned,var_uniform,improved"

    def test_failed_cell_marks_and_continues(self, tmp_path):
        spec = rl_spec(seeds=(1,), modes=("uniform", "adaptive"))
        spec.options["envs"] = ("two_state_bandit",)
        spec.options["buffer_capacity"] = 8
        spec.options["batch_size"] = 40  # invalid: batch > capacity
        status = run_suite(spec, out=str(tmp_path))
        assert status == 1
        assert list(tmp_path.glob("*.FAILED"))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert all(cell["status"] == "failed" for cell in manifest["cells"])

    def test_manifest_records_generator_and_version(self, tmp_path):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        run_suite(spec, out=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["generator"] == "numpy.random.PCG64"
        assert manifest["package_version"]
        assert all(cell["status"] == "ok" for cell in manifest["cells"])

    def test_manifest_records_sha256_of_every_artifact(self, tmp_path):
        spec = rl_spec(seeds=(1,), modes=("uniform", "adaptive"))
        assert run_suite(spec, out=str(tmp_path)) == 0
        digests = json.loads((tmp_path / "manifest.json").read_text())["sha256"]
        written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert set(digests) == written
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_failed_cell_marker_has_digest_and_no_temp_files(self, tmp_path):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        spec.options["batch_size"] = 40  # invalid: batch > capacity
        assert run_suite(spec, out=str(tmp_path)) == 1
        digests = json.loads((tmp_path / "manifest.json").read_text())["sha256"]
        assert set(digests) == {p.name for p in tmp_path.glob("*.FAILED")}
        assert not list(tmp_path.glob(".*"))

    def test_short_trace_marks_metrics_and_still_writes_manifest(self, tmp_path):
        # 4 evaluation points are fewer than the metric windows.
        spec = rl_spec(seeds=(1,), modes=("uniform",), total_steps=20, eval_every=5)
        assert run_suite(spec, out=str(tmp_path)) == 1
        assert "shorter than the metric windows" in (tmp_path / "metrics.FAILED").read_text()
        assert not (tmp_path / "metrics.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert all(cell["status"] == "ok" for cell in manifest["cells"])
        assert set(manifest["sha256"]) == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}

    def test_rerun_removes_stale_cell_markers(self, tmp_path):
        failing = rl_spec(seeds=(1,), modes=("uniform", "adaptive"))
        failing.options["batch_size"] = 40  # invalid: batch > capacity
        assert run_suite(failing, out=str(tmp_path)) == 1
        assert len(list(tmp_path.glob("*.FAILED"))) == 2
        assert run_suite(rl_spec(seeds=(1,), modes=("uniform", "adaptive")), out=str(tmp_path)) == 0
        assert not list(tmp_path.glob("*.FAILED"))
        digests = json.loads((tmp_path / "manifest.json").read_text())["sha256"]
        assert set(digests) == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}

    def test_failed_rerun_removes_the_earlier_success(self, tmp_path):
        assert run_suite(rl_spec(seeds=(1,), modes=("uniform",)), out=str(tmp_path)) == 0
        failing = rl_spec(seeds=(1,), modes=("uniform",))
        failing.options["batch_size"] = 40  # invalid: batch > capacity
        assert run_suite(failing, out=str(tmp_path)) == 1
        assert {p.name for p in tmp_path.glob("rl_*")} == {
            "rl_two_state_bandit_uniform_base_seed1.FAILED"
        }
        digests = json.loads((tmp_path / "manifest.json").read_text())["sha256"]
        assert set(digests) == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}

    def test_failed_rerun_removes_the_earlier_pattern_ledgers(self, tmp_path):
        spec = ExperimentSpec(
            family="regret_synthetic",
            seeds=(0,),
            options={"scenario": "drifting", "capacity": 16, "horizons": (80,), "batch": 4},
        )
        assert run_suite(spec, out=str(tmp_path)) == 0
        assert len(list(tmp_path.glob("regret_*.csv"))) == 2
        spec.options["drift_replace"] = 20  # invalid: more than the capacity
        assert run_suite(spec, out=str(tmp_path)) == 1
        assert [p.name for p in tmp_path.glob("regret_*")] == ["regret_drifting_base_T80_seed0.FAILED"]
        digests = json.loads((tmp_path / "manifest.json").read_text())["sha256"]
        assert set(digests) == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}

    def test_killed_rerun_leaves_no_stale_manifest(self, tmp_path, monkeypatch):
        # A rerun at capacity 8 killed after its first cell: the capacity-16
        # manifest would no longer match the cell file the rerun replaced.
        def spec(capacity):
            options = {"scenario": "stationary", "capacity": capacity, "horizons": (50, 100)}
            return ExperimentSpec(family="regret_synthetic", seeds=(0, 1), options=options)

        assert run_suite(spec(16), out=str(tmp_path)) == 0
        first = tmp_path / "regret_stationary_base_T50_seed0.csv"
        before = first.read_bytes()
        execute, calls = harness._execute_cell, []

        def killed_at_the_second_cell(args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return execute(args)

        monkeypatch.setattr(harness, "_execute_cell", killed_at_the_second_cell)
        with pytest.raises(KeyboardInterrupt):
            run_suite(spec(8), out=str(tmp_path))
        assert first.read_bytes() != before
        assert not (tmp_path / "manifest.json").exists()

    def test_rerun_replaces_the_other_metrics_outcome(self, tmp_path):
        good = rl_spec(seeds=(1,), modes=("uniform",))
        short = rl_spec(seeds=(1,), modes=("uniform",), total_steps=20, eval_every=5)
        assert run_suite(good, out=str(tmp_path)) == 0
        assert run_suite(short, out=str(tmp_path)) == 1
        assert (tmp_path / "metrics.FAILED").exists() and not (tmp_path / "metrics.csv").exists()
        assert run_suite(good, out=str(tmp_path)) == 0
        assert (tmp_path / "metrics.csv").exists() and not (tmp_path / "metrics.FAILED").exists()

    def test_parallel_workers_match_serial(self, tmp_path):
        spec = rl_spec(seeds=(1, 2), modes=("uniform", "adaptive"))
        run_suite(spec, out=str(tmp_path / "serial"), workers=1)
        run_suite(spec, out=str(tmp_path / "parallel"), workers=2)
        for name in sorted(p.name for p in (tmp_path / "serial").iterdir()):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_pool_never_exceeds_the_cell_count(self, tmp_path, monkeypatch):
        # A fork pool starts all ``max_workers`` processes at its first submit;
        # a fake in-process pool records the size asked for and starts none.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        options = {"scenario": "stationary", "capacity": 8, "horizons": (50, 100)}
        spec = ExperimentSpec(family="regret_synthetic", seeds=(0, 1), options=options)
        n_cells = len(harness._build_cells(spec))
        assert n_cells == 4
        for workers in (5000, n_cells + 1, 2):
            assert run_suite(spec, out=str(tmp_path / str(workers)), workers=workers) == 0
        one_cell = ExperimentSpec(
            family="regret_synthetic", seeds=(0,), options={**options, "horizons": (50,)}
        )
        assert run_suite(one_cell, out=str(tmp_path / "one"), workers=5000) == 0
        assert sizes == [n_cells, n_cells, 2]


class TestAtomicWrites:
    """A writer that fails midway leaves no partial target and no temp file."""

    @staticmethod
    def rows_failing_after(n):
        for i in range(n):
            yield (i, float(i))
        raise RuntimeError("writer failed midway")

    def test_failing_rows_leave_nothing(self, tmp_path):
        target = tmp_path / "trace.csv"
        with pytest.raises(RuntimeError, match="midway"):
            write_atomic(target, csv_text(TRACE_SCHEMA, "a,b", self.rows_failing_after(3)))
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_leaves_no_target_and_no_temp(self, tmp_path, monkeypatch):
        def half_write(path, data):
            with open(path, "wb") as f:
                f.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", half_write)
        target = tmp_path / "trace.csv"
        with pytest.raises(OSError, match="disk full"):
            write_atomic(target, csv_text(TRACE_SCHEMA, "a,b", [(1, 2.0), (3, 4.0)]))
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "manifest.json"
        write_atomic(target, "old\n")

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("adaptive_replay.reporting.os.replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            write_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


ROW_1 = "1,uniform,chain5,10,0.5,,1.0,0"  # a trace row of seed 1, uniform, chain5, step 10


class TestTraceRoundtrip:
    def test_read_trace_recovers_arrays(self, tmp_path):
        spec = rl_spec(seeds=(3,), modes=("adaptive",), probe_every=10, probe_repeats=20)
        run_suite(spec, out=str(tmp_path))
        data = read_trace(next(tmp_path.glob("rl_*.csv")))
        assert data["seed"] == 3
        assert data["mode"] == "adaptive"
        assert data["env"] == "two_state_bandit"
        assert len(data["steps"]) == 12
        assert np.isnan(data["probes"]).sum() > 0  # non-probe rows left empty
        assert np.isfinite(data["probes"]).sum() > 0

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(f"# schema={TRACE_SCHEMA}\nseed,mode\n1,adaptive\n",
                         "unexpected trace header", id="wrong-header"),
            pytest.param(f"# schema={TRACE_SCHEMA}\n{TRACE_HEADER}\n", "contains no rows",
                         id="no-rows"),
            pytest.param(f"# schema={TRACE_SCHEMA}\n{TRACE_HEADER}\n1,uniform,chain5,12\n",
                         "line 3: expected 8 fields, got 4", id="truncated-row"),
            pytest.param(f"{TRACE_HEADER}\n{ROW_1}\n2,adaptive,gridworld4x4,5,0.5,,1.0,0\n",
                         re.escape("line 3: seed, mode and env (2, 'adaptive', 'gridworld4x4') "
                                   "differ from the first row's (1, 'uniform', 'chain5')"),
                         id="two-runs"),
            pytest.param(f"{TRACE_HEADER}\n{ROW_1}\n2,uniform,chain5,20,0.5,,1.0,0\n",
                         re.escape("line 3: seed, mode and env (2, 'uniform', 'chain5') "
                                   "differ from the first row's (1, 'uniform', 'chain5')"),
                         id="other-seed"),
            pytest.param(f"{TRACE_HEADER}\n{ROW_1}\n1,uniform,chain5,5,0.5,,1.0,0\n",
                         "line 3: step 5 is smaller than the previous row's 10", id="step-back"),
        ],
    )
    def test_malformed_trace_rejected_by_message(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trace(path)

    @pytest.mark.parametrize(
        "column, cell, kind",
        [
            ("seed", "1.5", "an int"),
            ("step", "26.5", "an int"),
            ("reset_count", "x", "an int"),
            ("episodic_test_return", "nan", "a finite float"),
            ("episodic_test_return", "inf", "a finite float"),
            ("p_entropy", "-inf", "a finite float"),
            ("p_entropy", "", "a finite float"),
            ("variance_probe", "abc", "empty or a finite float"),
            ("variance_probe", "inf", "empty or a finite float"),
            ("variance_probe", "-inf", "empty or a finite float"),
            ("variance_probe", "nan", "empty or a finite float"),
            ("variance_probe", "1e400", "empty or a finite float"),
        ],
    )
    def test_bad_cell_rejected_by_file_line_and_column(self, tmp_path, column, cell, kind):
        cells = dict(zip(TRACE_HEADER.split(","), "1,uniform,chain5,12,0.5,,1.2,0".split(",")))
        good = ",".join(cells.values())
        cells[column] = cell
        path = tmp_path / "trace.csv"
        path.write_text(f"# schema={TRACE_SCHEMA}\n{TRACE_HEADER}\n{good}\n{','.join(cells.values())}\n")
        with pytest.raises(ValueError) as error:
            read_trace(path)
        assert str(error.value) == f"trace {path} line 4: {column} must be {kind}, got {cell!r}"

    def test_repeated_steps_round_trip(self, tmp_path):
        # Several updates per collected episode leave the env-step count
        # unchanged between evaluations, so equal steps are one run's rows.
        config = TrainingConfig(
            total_steps=12, batch_size=4, buffer_capacity=16, updates_per_episode=3, eval_every=1
        )
        trace = run_training(chain_env(5), config)
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        steps = read_trace(path)["steps"]
        assert (np.diff(steps) == 0).any() and (np.diff(steps) >= 0).all()
        np.testing.assert_array_equal(steps, trace.steps)

    def test_schedule_mismatch_names_each_file_with_its_points(self, tmp_path):
        paths = []
        for seed, points in ((1, 6), (2, 5)):
            rows = "".join(f"{seed},uniform,chain5,{10 * i},0.5,,1.0,0\n" for i in range(1, points + 1))
            paths.append(tmp_path / f"seed{seed}.csv")
            paths[-1].write_text(f"{TRACE_HEADER}\n{rows}")
        with pytest.raises(ValueError) as error:
            metrics_from_traces(paths, window=3)
        assert str(error.value) == (
            f"traces must share the evaluation schedule: {paths[0]}: 6 points; {paths[1]}: 5 points"
        )

    def test_metrics_from_traces(self, tmp_path):
        spec = rl_spec(seeds=(1, 2), modes=("uniform",))
        run_suite(spec, out=str(tmp_path))
        paths = sorted(tmp_path.glob("rl_*uniform*.csv"))
        row = metrics_from_traces(paths, window=3)
        assert row.final_performance > 0.0
        assert 0.0 <= row.learning_stability <= 1.0 + 1e-12


class TestCli:
    def test_run_subcommand(self, tmp_path):
        spec_path = tmp_path / "spec.ini"
        spec_path.write_text(
            """
            [experiment]
            family = variance_study
            output_dir = ignored

            [variance]
            constructions = 2
            capacity = 8
            batch = 2
            repeats = 20
            """
        )
        status = cli_main(["run", str(spec_path), "--out", str(tmp_path / "out")])
        assert status == 0
        assert (tmp_path / "out" / "variance_base_seed0.csv").exists()

    def test_run_seed_list_override(self, tmp_path):
        spec_path = tmp_path / "spec.ini"
        spec_path.write_text(
            """
            [experiment]
            family = regret_synthetic

            [regret]
            scenario = stationary
            capacity = 4
            horizons = 20
            """
        )
        status = cli_main(
            ["run", str(spec_path), "--out", str(tmp_path / "out"), "--seed-list", "5,6"]
        )
        assert status == 0
        assert len(list((tmp_path / "out").glob("regret_*seed5*.csv"))) == 1
        assert len(list((tmp_path / "out").glob("regret_*seed6*.csv"))) == 1

    def test_run_empty_seed_list_rejected(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, "[regret]\nscenario = stationary\ncapacity = 4\nhorizons = 20\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(spec_path), "--out", str(out), "--seed-list", ","])
        assert exit_info.value.code == 2
        assert "argument --seed-list: must name at least one seed, got ','" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["x", "1,x", "1.5"])
    def test_run_rejects_non_int_seed_list(self, tmp_path, value, capsys):
        spec_path = write_spec(tmp_path, "[regret]\nscenario = stationary\ncapacity = 4\nhorizons = 20\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(spec_path), "--out", str(out), "--seed-list", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed-list: invalid comma-separated int list: {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, message",
        [("1,1", "experiment.seeds 1 repeats"), ("-1", "experiment.seeds must be non-negative, got -1")],
        ids=["repeated", "negative"],
    )
    def test_run_rejects_bad_seed_list(self, tmp_path, value, message, capsys):
        spec_path = write_spec(tmp_path, "[regret]\nscenario = stationary\ncapacity = 4\nhorizons = 20\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(spec_path), "--out", str(out), f"--seed-list={value}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptive-replay run: error: ")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[experiment]\nfamily = variance_study\n[variance]\norders = 305\n",
                "variance.orders must be at most 296.647",
            ),
            (
                "[experiment]\nfamily = rl_comparison\n[training]\nbatch_size = 40\n",
                "training.batch_size must lie in [1, buffer_capacity]",
            ),
            ("capacity = 4\n", "File contains no section headers"),
            (
                "[regret]\ncapacity = 4\ncapacity = 5\n",
                "option 'capacity' in section 'regret' already exists",
            ),
        ],
        ids=["failed-check", "batch-above-capacity", "no-section-header", "repeated-key"],
    )
    def test_run_rejects_bad_spec(self, tmp_path, text, message, capsys):
        spec_path = write_spec(tmp_path, text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(spec_path), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptive-replay run: error: ")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_run_rejects_missing_spec(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(tmp_path / "nope.ini"), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptive-replay run: error: [Errno 2] No such file or directory")
        assert not out.exists()

    def test_run_cell_failing_at_run_time_still_exits_1(self, tmp_path, monkeypatch):
        # Only loading the spec reports exit 2; a cell's own error is its marker.
        def broken(*args, **kwargs):
            raise ValueError("cell broke")

        monkeypatch.setattr(harness, "run_regret_experiment", broken)
        spec_path = write_spec(tmp_path, "[regret]\nscenario = stationary\ncapacity = 4\nhorizons = 20\n")
        out = tmp_path / "out"
        assert cli_main(["run", str(spec_path), "--out", str(out), "--seed-list", "3"]) == 1
        marker = out / "regret_stationary_base_T20_seed3.FAILED"
        assert "ValueError: cell broke" in marker.read_text()

    def test_metrics_rejects_missing_trace(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(tmp_path / "nope.csv")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptive-replay metrics: error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("case", ["mixed-env-and-mode", "repeated-file"])
    def test_metrics_rejects_traces_that_are_not_one_seed_group(self, tmp_path, capsys, case):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        spec.options["envs"] = ("two_state_bandit",)
        run_suite(spec, out=str(tmp_path / "a"))
        first = next((tmp_path / "a").glob("rl_*.csv"))
        if case == "repeated-file":
            traces = [first, first]
        else:
            spec = rl_spec(seeds=(2,), modes=("adaptive",), envs=("chain5",))
            run_suite(spec, out=str(tmp_path / "b"))
            traces = [first, next((tmp_path / "b").glob("rl_*.csv"))]
        with pytest.raises(ValueError, match="not one seed group"):
            metrics_from_traces(traces, window=3)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", *map(str, traces), "--window", "3"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("adaptive-replay metrics: error: traces are not one seed group")
        assert all(str(trace) in err for trace in traces)

    def test_metrics_rejects_malformed_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("hello\n1,2\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(trace)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"adaptive-replay metrics: error: unexpected trace header in {trace}: 'hello'\n"
        trace.write_text(f"{TRACE_HEADER}\n1,uniform,chain5,12\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(trace)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"adaptive-replay metrics: error: trace {trace} line 2: expected 8 fields, got 4\n"

    def test_metrics_rejects_a_trace_of_two_runs(self, tmp_path, capsys):
        trace = tmp_path / "mixed.csv"
        trace.write_text(
            f"{TRACE_HEADER}\n{ROW_1}\n2,adaptive,gridworld4x4,5,0.5,,1.0,0\n"
        )
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(trace), "--window", "1"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith(
            f"adaptive-replay metrics: error: trace {trace} line 3: seed, mode and env"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,uniform,chain5,26.5,0.5,,1.0,0", "step must be an int, got '26.5'"),
            ("1,uniform,chain5,12,nan,,1.0,0", "episodic_test_return must be a finite float, got 'nan'"),
            ("1,uniform,chain5,12,inf,,1.0,0", "episodic_test_return must be a finite float, got 'inf'"),
        ],
        ids=["fractional-step", "nan-return", "inf-return"],
    )
    def test_metrics_rejects_bad_trace_values(self, tmp_path, capsys, row, message):
        # These once exited 2 naming no file, or printed an empty or inf row and exited 0.
        trace = tmp_path / "bad.csv"
        trace.write_text(f"{TRACE_HEADER}\n{row}\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(trace), "--window", "3"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"adaptive-replay metrics: error: trace {trace} line 2: {message}\n"

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_metrics_rejects_bad_window(self, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(tmp_path / "trace.csv"), "--window", value])
        assert exit_info.value.code == 2
        assert "argument --window: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--capacity", "--batch", "--rounds"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bench_rejects_non_positive_flags(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench", "--capacity", "256", "--batch", "16", "--rounds", "2", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be positive, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_run_rejects_non_positive_workers(self, tmp_path, value, capsys):
        spec_path = write_spec(tmp_path, "[regret]\nscenario = stationary\ncapacity = 4\nhorizons = 20\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(spec_path), "--out", str(out), "--workers", value])
        assert exit_info.value.code == 2
        assert f"argument --workers: must be positive, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_subcommand(self, capsys):
        status = cli_main(["bench", "--capacity", "256", "--batch", "16", "--rounds", "2"])
        assert status == 0
        assert "sample+update" in capsys.readouterr().out

    @pytest.mark.parametrize("root", [None, "outroot"], ids=["out-only", "env-root"])
    def test_bench_out_writes_bench_csv(self, tmp_path, monkeypatch, capsys, root):
        if root:
            monkeypatch.setenv("ADAPTIVE_REPLAY_OUT", str(tmp_path / root))
        else:
            monkeypatch.delenv("ADAPTIVE_REPLAY_OUT", raising=False)
        out = tmp_path / "b"
        argv = ["bench", "--capacity", "64", "--batch", "4", "--rounds", "2", "--out", str(out)]
        assert cli_main(argv) == 0
        assert f"wrote {out / 'bench.csv'}" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b"]
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[:2] == ["# schema=bench.v1", BENCH_HEADER]
        rows = [line.split(",") for line in lines[2:]]
        operations = ["sample", "update", "sample+update"]
        assert [tuple(r[:4]) for r in rows] == [
            ("64", op, batch, "2") for batch in ("4", "8") for op in operations
        ]
        assert all(float(r[4]) > 0 for r in rows)

    def test_bench_relative_out_ignores_output_root(self, tmp_path, monkeypatch, capsys):
        # --out overrides the root for bench as for run: a relative one is
        # taken from the working directory, not joined to the root.
        monkeypatch.setenv("ADAPTIVE_REPLAY_OUT", str(tmp_path / "outroot"))
        monkeypatch.chdir(tmp_path)
        argv = ["bench", "--capacity", "64", "--batch", "4", "--rounds", "2", "--out", "b"]
        assert cli_main(argv) == 0
        assert f"wrote {Path('b') / 'bench.csv'}" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b"]
        assert (tmp_path / "b" / "bench.csv").read_text().startswith("# schema=bench.v1\n")

    def test_bench_adds_training_batch_rows_after_requested_batch(self):
        operations = ["sample", "update", "sample+update"]
        rows = run_bench(capacity=256, batch=16, rounds=2)
        assert [(r[1], r[2]) for r in rows] == [(op, b) for b in (16, 8) for op in operations]
        rows = run_bench(capacity=256, batch=8, rounds=2)
        assert [(r[1], r[2]) for r in rows] == [(op, 8) for op in operations]

    def test_metrics_subcommand(self, tmp_path, capsys):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        run_suite(spec, out=str(tmp_path))
        trace = next(tmp_path.glob("rl_*.csv"))
        status = cli_main(["metrics", str(trace), "--window", "3"])
        assert status == 0
        out = capsys.readouterr().out
        assert METRICS_HEADER in out

    def test_metrics_subcommand_prints_metrics_text(self, tmp_path, capsys, monkeypatch):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        run_suite(spec, out=str(tmp_path))
        trace = next(tmp_path.glob("rl_*.csv"))
        row = metrics_from_traces([trace], window=3)
        # A NaN metric is an empty cell in every metrics.v1 file, never "nan".
        for printed in (row, replace(row, learning_stability=float("nan"))):
            monkeypatch.setattr(cli, "metrics_from_traces", lambda paths, window: printed)
            assert cli_main(["metrics", str(trace), "--window", "3"]) == 0
            expected = metrics_text([("-", "-", "-", "-", 1, printed)])
            assert capsys.readouterr().out == expected


class TestVarianceStudyUnit:
    def test_paired_comparison_shares_probe_stream(self, monkeypatch):
        monkeypatch.setattr(studies, "LEARN_STEPS", 80)
        comp = learned_vs_uniform_variance(seed=0, capacity=16, repeats=100)
        assert comp.loss_spread_orders >= 1.0
        assert comp.var_learned > 0 and comp.var_uniform > 0

    @pytest.mark.parametrize("capacity", [32, 33], ids=["power-of-two", "padded"])
    def test_filled_index_is_a_rebuild(self, capacity):
        # fill writes unit leaves in one leaf write; no rebuild follows it.
        store, sampler, _ = heteroscedastic_buffer(np.random.default_rng(5), capacity=capacity)
        tree = store.tree._tree.copy()
        store.rebuild_index(sampler)
        assert tree.tobytes() == store.tree._tree.tobytes()
        assert store.tree.total == capacity

    @pytest.mark.parametrize("capacity", [32, 200])
    def test_largest_accepted_orders_runs(self, capacity):
        # Warnings are errors here, so an overflow anywhere in the study fails.
        orders = max_orders(capacity, 400)
        for seed in range(5):
            comp = learned_vs_uniform_variance(seed, capacity=capacity, orders=orders)
            assert np.isfinite([comp.var_learned, comp.var_uniform, comp.loss_spread_orders]).all()
        with pytest.raises(ValueError, match="orders must be at most"):
            learned_vs_uniform_variance(0, capacity=capacity, orders=np.nextafter(orders, 400))

    def test_one_slot_buffer_rejected_by_name(self):
        # Log-spaced reward scales need two slots to span their decades.
        with pytest.raises(ValueError, match="capacity must be >= 2, got 1"):
            heteroscedastic_buffer(np.random.default_rng(0), capacity=1)
