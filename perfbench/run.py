"""Benchmark of adaptive-replay: closed-loop ``run_training`` workloads.

One training loop, one process, one workload at a time: each rep calls
``adaptive_replay.training.run_training(env, config)`` once in a fresh
process (``worker.py``), and each update starts only when the previous one
has finished.  Reps cycle through training seeds derived from ``--seed``,
and the first seed runs again once every seed has run, so every benchmark
run also checks that one seed reproduces identical trace arrays.  Reps keep
starting while the next one fits into ``--seconds``.

    python3 perfbench/run.py --workload grid32_adaptive --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 42 --trace 1

``--trace 0`` reports the end-to-end metrics of untraced reps.  The declared
time metrics are the CPU time of the single-threaded worker (see
``worker.py``) scaled to a fixed host speed by reference slices run between
its rollouts (see ``reference.py``): on a shared host the speed drifts by up
to 1.8x over minutes, and raw times of ten runs of the same code spread by
more than the bounds.  ``setup_s``, ``run_norm_s``, ``updates_per_norm_s``
and ``step_norm_ms_p50`` are times at that speed; the raw CPU-time
(``*cpu*``) and wall-clock counterparts are printed and recorded beside them.
``--trace 1`` alternates untraced and traced reps of the same seed and
reports the per-layer table of the traced reps (see ``tracer.py``, wall
clock; traced reps run no reference slices) plus the tracing overhead,
traced ``run_cpu_s`` over untraced ``run_cpu_s``.  The report goes to
stdout, a detailed record and the span files to ``perfbench/out/``, and the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's sources
(``src/adaptive_replay``) next to this directory the run exits with status 1
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# A rep is never started when it could end after this many seconds of the run.
HARD_LIMIT_S = 170.0

# Measured, printed and recorded, but not declared in BENCHMARK.json.  The
# unscaled times: on a shared 2-vCPU VM the quartile spread of ten runs of the
# same code reached 0.26 (updates_per_s, wall clock) and 0.22 (run_cpu_s),
# against 0.01-0.05 for the scaled ones.  And p99, which lands on the few heavy
# steps (evals, probes, resets) or, where those are rarer than 1%, on regular
# steps slowed by bursts of contention: scaled, its spread still reached 0.15
# (bandit65k_td), above a third of the largest bound (0.25).
RECORDED_ONLY = {
    "step_norm_ms_p99": "ms",
    "setup_cpu_s": "s",
    "run_cpu_s": "s",
    "updates_per_cpu_s": "1/s",
    "step_cpu_ms_p50": "ms",
    "step_cpu_ms_p99": "ms",
    "setup_wall_s": "s",
    "run_s": "s",
    "updates_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "speed_run": "ratio",
    "slices": "count",
}

# The worker is one single-threaded loop; keep the BLAS libraries from adding threads.
SINGLE_THREADED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def training_seed(seed: int, k: int) -> int:
    digest = hashlib.sha256(f"adaptive-replay-bench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def source_identity() -> dict:
    """Git SHA when the checkout is a git repository, and always a digest of ``src``."""
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown ({exc.__class__.__name__})"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


class RepFailed(Exception):
    pass


def run_rep(workload, seed: int, traced: bool, deadline: float, warmup: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed)]
    if traced:
        cmd += ["--trace-out", str(OUT / f"spans-{workload.name}-{seed}.npz")]
    if warmup:
        cmd += ["--warmup"]
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(perf_counter())], cwd=ROOT,
                              env={**os.environ, **SINGLE_THREADED},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"rep timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule(workload, seed: int, traced: bool):
    """Yield units of reps forever, each a list of (training seed, traced).

    Every training seed in turn, then again from the first.  A traced run
    pairs an untraced and a traced rep of the same seed, for the overhead.
    """
    seeds = [training_seed(seed, k) for k in range(workload.seeds)]
    for s in itertools.cycle(seeds):
        yield [(s, False), (s, True)] if traced else [(s, False)]


def run_reps(workload, seed: int, seconds: float, traced: bool):
    """Run units of reps until the next would not fit; returns (reps, crash message)."""
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    # Enough units that the first seed repeats (untraced) or one pair ran (traced).
    minimum = 1 if traced else workload.seeds + 1
    try:
        run_rep(workload, training_seed(seed, -1), False, deadline, warmup=True)
    except RepFailed as exc:
        return [], f"warm-up: {exc}"
    reps: list[dict] = []
    for units, unit in enumerate(schedule(workload, seed, traced)):
        wall = {kind: max((r["wall_s"] for r in reps if r["traced"] == kind), default=0.0)
                for kind in (False, True)}
        expected = sum(wall[kind] for _, kind in unit)
        elapsed = perf_counter() - start
        if units >= minimum and elapsed + expected > seconds:
            break
        if reps and elapsed + expected > HARD_LIMIT_S:
            break
        for s, kind in unit:
            started = perf_counter()
            try:
                rep = run_rep(workload, s, kind, deadline)
            except RepFailed as exc:
                return reps, str(exc)
            rep["wall_s"] = perf_counter() - started
            reps.append(rep)
    return reps, None


def rep_failures(workload, reps: list[dict]) -> tuple[dict[int, list[str]], list[str]]:
    """Failed checks per rep index, and a line per check that ran.

    Each rep brings its own checks; this adds the cross-rep ones: a repeated
    seed reproduces identical trace arrays, and the gates that pool over the
    workload's training seeds, as criterion 10 pools its seeds.  Traced runs
    cover fewer seeds and skip the pooled gates.
    """
    failures = {i: [f"{k}: {v}" for k, v in r["checks"].items() if v] for i, r in enumerate(reps)}
    ran = sorted({k for r in reps for k in r["checks"]})
    notes = [f"per rep: {', '.join(ran)}"]
    first_digest: dict[int, str] = {}
    for i, r in enumerate(reps):
        expected = first_digest.setdefault(r["seed"], r["digest"])
        if r["digest"] != expected:
            failures[i].append(f"determinism: seed {r['seed']} reproduced different trace arrays")
    notes.append(f"determinism: {len(reps) - len(first_digest)} repeated rep(s) compared")
    by_seed = {r["seed"]: r for r in reps}
    if len(by_seed) < workload.seeds:
        return failures, notes
    group = []
    if workload.min_probe_wins is not None:
        wins = statistics.fmean(r["probe_wins"] for r in by_seed.values())
        notes.append(f"probe win fraction {wins:.4f} (gate >= {workload.min_probe_wins})")
        if wins < workload.min_probe_wins:
            group.append(f"probe win fraction {wins:.4f} < {workload.min_probe_wins}")
    if workload.min_mean_return is not None:
        mean_return = statistics.fmean(r["final_return"] for r in by_seed.values())
        floor = workload.min_mean_return
        notes.append(f"mean final return {mean_return:.4f} (gate >= {floor:.4f})")
        if mean_return < floor:
            group.append(f"mean final return {mean_return:.4f} < {floor:.4f}")
    for i in failures:
        failures[i].extend(group)
    return failures, notes


def normalise(rep: dict) -> dict:
    """Add the untraced rep's CPU times scaled to the reference speed."""
    if not rep["traced"]:
        rep["setup_s"] = rep["setup_cpu_s"] * rep["speed_run"]
        rep["run_norm_s"] = rep["run_cpu_s"] * rep["speed_run"]
        rep["speed_updates"] = rep["speed_updates"] or rep["speed_run"]
        rep["updates_per_norm_s"] = rep["updates_per_cpu_s"] / rep["speed_updates"]
    return rep


def end_to_end(reps: list[dict]) -> dict[str, tuple[float, int]]:
    """Medians over reps.  Step percentiles are taken within each rep first, so
    one rep caught by a burst of contention on the host does not set the tail;
    their sample count is the number of step intervals over all reps."""
    metrics = {
        name: (statistics.median(r[name] for r in reps), len(reps))
        for name in ("setup_s", "run_norm_s", "updates_per_norm_s", "peak_rss_mb",
                     "setup_cpu_s", "run_cpu_s", "updates_per_cpu_s",
                     "setup_wall_s", "run_s", "updates_per_s", "speed_run", "slices")
    }
    intervals = sum(len(r["step_ms"]) for r in reps)
    for clock, steps, scale in (("norm", "step_cpu_ms", "speed_updates"),
                                ("cpu", "step_cpu_ms", None), ("", "step_ms", None)):
        name = f"step_{clock}_ms" if clock else "step_ms"
        for q in (50, 99):
            values = [statistics.quantiles(r[steps], n=100, method="inclusive")[q - 1]
                      * (r[scale] if scale else 1.0) for r in reps]
            metrics[f"{name}_p{q}"] = (statistics.median(values), intervals)
    return metrics


def per_layer(reps: list[dict]) -> dict[str, tuple[float, int]]:
    traced = [r for r in reps if r["traced"]]
    plain = {r["seed"]: r["run_cpu_s"] for r in reps if not r["traced"]}
    names = list(traced[0]["layers"])
    metrics = {n: (statistics.median(r["layers"][n] for r in traced), len(traced)) for n in names}
    ratios = [r["run_cpu_s"] / plain[r["seed"]] for r in traced]
    metrics["tracing_overhead"] = (statistics.median(ratios), len(ratios))
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> bool:
    """Run, report and print the result line of one workload; False if nothing ran."""
    workload = WORKLOADS[name]
    reps, crash = run_reps(workload, seed, seconds, traced)
    reps = [normalise(r) for r in reps]
    if not reps or (traced and not any(r["traced"] for r in reps)):
        print(f"{name}: no rep completed: {crash}", file=sys.stderr)
        return False
    failures, checks = rep_failures(workload, reps)
    attempted = len(reps) + (crash is not None)
    failed = sum(bool(f) for f in failures.values()) + (crash is not None)
    e2e_units, layer_units = declared_units()
    declared = layer_units if traced else e2e_units
    units = declared if traced else {**declared, **RECORDED_ONLY}
    measured = per_layer(reps) if traced else end_to_end(reps)
    if set(measured) != set(units):
        raise SystemExit(f"measured metrics {sorted(measured)} differ from BENCHMARK.json's")
    metrics = {n: measured[n] for n in units}

    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        **source_identity(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": reps[0]["python"],
        "numpy": reps[0]["numpy"],
        "training_seeds": sorted({r["seed"] for r in reps}),
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "crash": crash,
        "checks": checks,
        "failures": {str(i): f for i, f in failures.items() if f},
        "absent": sorted({a for r in reps for a in r.get("absent", [])}),
        "metrics": {n: {"value": v, "unit": units[n], "samples": c}
                    for n, (v, c) in metrics.items()},
        "per_rep": [{k: v for k, v in r.items() if not k.startswith("step_")} for r in reps],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))

    print(f"== {name}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"reps {len(reps)}  training seeds {record['training_seeds']}")
    print(f"   git {record['git_sha']}  src {record['src_sha256'][:16]}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}")
    for n, (v, c) in metrics.items():
        note = "" if n in declared else "  (recorded, not declared)"
        print(f"   {n:48s} {v:14.6g} {units[n]:9s} n={c}{note}")
    print(f"   {'failed_frac':48s} {record['failed_frac']:14.6g} {'ratio':9s} n={attempted}")
    for line in checks:
        print(f"   check {line}")
    for a in record["absent"]:
        print(f"   absent: {a}")
    if crash:
        print(f"   crash: {crash}")
    for i, f in record["failures"].items():
        print(f"   rep {i} failed: {'; '.join(f)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]} for n in declared},
    }), flush=True)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description="adaptive-replay run_training benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "adaptive_replay").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'adaptive_replay'}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
