"""Config parsing, suite execution, CSV schemas, determinism, and the CLI."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptive_replay import cli
from adaptive_replay.bench import run_bench
from adaptive_replay.cli import main as cli_main
from adaptive_replay.harness import (
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
from adaptive_replay.studies import learned_vs_uniform_variance


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

    def test_bench_subcommand(self, capsys):
        status = cli_main(["bench", "--capacity", "256", "--batch", "16", "--rounds", "2"])
        assert status == 0
        assert "sample+update" in capsys.readouterr().out

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
