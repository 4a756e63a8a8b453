"""Config parsing, suite execution, CSV schemas, determinism, and the CLI."""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptive_replay import cli
from adaptive_replay.bench import run_bench
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
    read_trace,
    write_atomic,
    write_csv,
    write_metrics,
)
from adaptive_replay.studies import heteroscedastic_buffer, learned_vs_uniform_variance


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
                reset_mode = annealed_soft
                rho_start = 0.7
                rho_end = 0.2
                anneal_steps = 500
                """,
            )
        )
        assert spec.sampler["kappa"] == 0.2
        assert spec.sampler["nu"] == 10000.0
        assert spec.sampler["reset_mode"] == "annealed_soft"
        assert spec.sampler["rho_start"] == 0.7
        assert spec.sampler["rho_end"] == 0.2

    def test_out_of_range_value_names_key(self, tmp_path):
        with pytest.raises(ValueError, match="sampler.kappa"):
            parse_config(write_spec(tmp_path, "[sampler]\nkappa = 1.5\n"))

    def test_negative_probe_every_names_key(self, tmp_path):
        text = "[experiment]\nfamily = rl_comparison\n[training]\nprobe_every = -50\n"
        with pytest.raises(ValueError, match="training.probe_every"):
            parse_config(write_spec(tmp_path, text))

    def test_zero_updates_per_episode_needs_epoch_mode(self, tmp_path):
        base = "[experiment]\nfamily = rl_comparison\n[training]\nupdates_per_episode = 0\n"
        with pytest.raises(ValueError, match="training.updates_per_episode"):
            parse_config(write_spec(tmp_path, base))
        epoch = base + "modes = adaptive_epoch\n"
        assert parse_config(write_spec(tmp_path, epoch)).options["updates_per_episode"] == 0
        mixed = epoch + "[sweep:mixed]\ntraining.modes = uniform,adaptive_epoch\n"
        with pytest.raises(ValueError, match="training.updates_per_episode"):
            parse_config(write_spec(tmp_path, mixed))

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
                    "[experiment]\nfamily = bench\n\n[training]\ntotal_steps = 10\n",
                )
            )

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


RL = "[experiment]\nfamily = rl_comparison\n"


def set_both_ways(section, key, value):
    """A value set in its own section and the same value as a sweep override."""
    head = RL if section == "training" else ""
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
    ("sampler", "rho_start", -0.1), ("sampler", "rho_end", 2), ("sampler", "nu", 0),
    ("sampler", "nu", -1), ("sampler", "reset_period", 0), ("sampler", "anneal_steps", 0),
    ("training", "probe_every", -50), ("training", "total_steps", 0),
    ("training", "batch_size", 0), ("training", "buffer_capacity", 0),
    ("training", "learning_rate", 0), ("training", "learning_rate", -0.5),
    ("training", "eval_every", 0), ("training", "eval_episodes", 0),
    ("training", "probe_repeats", 0), ("training", "updates_per_episode", -1),
]

# List keys that, left empty, gave a spec of zero cells that ran as a success.
_EMPTY_LISTS = [("regret", "horizons"), ("training", "envs"), ("training", "modes")]

# Names outside an rl spec's environment and mode tables, rejected without their key.
_UNKNOWN_NAMES = [("training", "envs", "nope"), ("training", "modes", "nope")]

# Specs that copy accepted and then failed in every cell, or failed unnamed.
_CELL_FAILURES = [
    pytest.param(RL + "[training]\nbatch_size = 40\nbuffer_capacity = 8\n", "training.batch_size",
                 id="batch-over-capacity"),
    pytest.param("[sampler]\nreset_mode = annealed_soft\n", "sampler.anneal_steps",
                 id="annealed-without-steps"),
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


@pytest.mark.parametrize(
    "text, key",
    [case for args in _REJECTED for case in set_both_ways(*args)]
    + [case for args in _EMPTY_LISTS for case in set_both_ways(*args, "")]
    + [case for args in _UNKNOWN_NAMES for case in set_both_ways(*args)]
    + _CELL_FAILURES,
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
    "variance": "variance_study", "bench": "bench",
}


@pytest.mark.parametrize("as_sweep", [False, True], ids=["own", "sweep"])
@pytest.mark.parametrize(
    "section, key, value",
    _REJECTED + _DIRECT_ONLY
    + [pytest.param(*args, (), id=f"{args[0]}-{args[1]}-empty") for args in _EMPTY_LISTS]
    + [pytest.param(s, k, (name,), id=f"{s}-{k}-{name}") for s, k, name in _UNKNOWN_NAMES],
)
def test_directly_built_spec_rejected_by_key(section, key, value, as_sweep):
    if as_sweep:
        values = {"sweep": (("x", {f"{section}.{key}": value}),)}
    else:
        values = {"sampler" if section == "sampler" else "options": {key: value}}
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key}")):
        ExperimentSpec(family=_FAMILY_OF[section], **values)


@pytest.mark.parametrize(
    "key, value", [("seeds", 5), ("seeds", ("1",)), ("seeds", (1.5,)), ("output_dir", 5)]
)
def test_directly_built_experiment_values_rejected_by_key(key, value):
    with pytest.raises(ValueError, match=re.escape(f"experiment.{key}")):
        ExperimentSpec(family="rl_comparison", **{key: value})


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


def test_readme_spec_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    spec = parse_config(write_spec(tmp_path, block))
    assert spec.family == "rl_comparison"
    assert spec.sweep == (("highmix", {"sampler.kappa": 0.5}),)


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

    def test_bench_family(self, tmp_path):
        spec = ExperimentSpec(
            family="bench", options={"capacity": 1024, "batch": 32, "rounds": 5}
        )
        assert run_suite(spec, out=str(tmp_path)) == 0
        lines = (tmp_path / "bench_base.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == BENCH_HEADER

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
            write_csv(target, TRACE_SCHEMA, "a,b", self.rows_failing_after(3))
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_leaves_no_target_and_no_temp(self, tmp_path, monkeypatch):
        def half_write(path, data):
            with open(path, "wb") as f:
                f.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", half_write)
        target = tmp_path / "trace.csv"
        with pytest.raises(OSError, match="disk full"):
            write_csv(target, TRACE_SCHEMA, "a,b", [(1, 2.0), (3, 4.0)])
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
        ],
    )
    def test_malformed_trace_rejected_by_message(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trace(path)

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
            family = bench
            output_dir = ignored

            [bench]
            capacity = 512
            batch = 16
            rounds = 3
            """
        )
        status = cli_main(["run", str(spec_path), "--out", str(tmp_path / "out")])
        assert status == 0
        assert (tmp_path / "out" / "bench_base.csv").exists()

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

    def test_run_empty_seed_list_rejected(self, tmp_path):
        spec_path = write_spec(tmp_path, "[regret]\nscenario = stationary\ncapacity = 4\nhorizons = 20\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="experiment.seeds must not be empty"):
            cli_main(["run", str(spec_path), "--out", str(out), "--seed-list", ","])
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--capacity", "--batch", "--rounds"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bench_rejects_non_positive_flags(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench", "--capacity", "256", "--batch", "16", "--rounds", "2", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be positive, got {value}" in capsys.readouterr().err

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

    def test_metrics_subcommand_prints_what_write_metrics_writes(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = rl_spec(seeds=(1,), modes=("uniform",))
        run_suite(spec, out=str(tmp_path))
        trace = next(tmp_path.glob("rl_*.csv"))
        row = metrics_from_traces([trace], window=3)
        # A NaN metric is an empty cell in every metrics.v1 file, never "nan".
        for printed in (row, replace(row, learning_stability=float("nan"))):
            monkeypatch.setattr(cli, "metrics_from_traces", lambda paths, window: printed)
            assert cli_main(["metrics", str(trace), "--window", "3"]) == 0
            write_metrics(tmp_path / "metrics.csv", [("-", "-", "-", "-", 1, printed)])
            assert capsys.readouterr().out == (tmp_path / "metrics.csv").read_text()


class TestVarianceStudyUnit:
    def test_paired_comparison_shares_probe_stream(self):
        comp = learned_vs_uniform_variance(seed=0, capacity=16, repeats=100, learn_steps=80)
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
