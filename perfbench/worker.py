"""One benchmark rep: a single ``run_training`` call in a fresh process.

``run.py`` starts this script once per rep, one at a time, so set-up time and
peak memory belong to that rep alone.  It imports the program from the
checkout's ``src``, passes ``run_training`` only the env and the config,
checks the returned trace, and prints one JSON object on stdout.

Times are taken on two clocks.  Wall time (``perf_counter``) is what a user
on a dedicated core waits.  CPU time of this process (``process_time``,
``CLOCK_PROCESS_CPUTIME_ID``) is the same work measured without the time
the host takes the vCPU away from it (steal) or gives it to other processes:
the loop is single-threaded and never waits, so on a dedicated core the two
agree.  Untraced reps also run the reference slices of ``reference.py``
between rollouts, take their time out of both clocks, and report the speed
factors that scale the CPU times to a fixed host speed.

    python3 perfbench/worker.py --workload grid32_adaptive --seed 7 \
        --spawned-at <perf_counter of the parent> [--trace-out spans.npz]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from reference import REFERENCE_SLICE_S, SLICE_EVERY_S, reference_slice  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RolloutClock:
    """Thin env wrapper that timestamps the ``rollout`` calls made on it,
    on the wall clock and on this process's CPU clock.

    The training loop calls ``rollout`` on the env it was given for warm-up
    and for the one episode collected per update; evaluation episodes run
    inside the wrapped env's own ``evaluate`` and are not timestamped.
    Everything else is delegated unchanged.  With ``slices``, a reference
    slice runs before a rollout once ``SLICE_EVERY_S`` CPU seconds have
    passed since the last one.
    """

    def __init__(self, env, slices: bool):
        self._env = env
        self.starts = array("d")
        self.ends = array("d")
        self.cpu_starts = array("d")
        self.cpu_ends = array("d")
        # Per slice: the index of the rollout it ran before, its CPU and wall seconds.
        self.slice_before = array("q")
        self.slice_cpu = array("d")
        self.slice_wall = array("d")
        self._next_slice = process_time() + SLICE_EVERY_S if slices else math.inf

    def __getattr__(self, name):
        return getattr(self._env, name)

    def rollout(self, *args, **kwargs):
        cpu = process_time()
        if cpu >= self._next_slice:
            wall = perf_counter()
            reference_slice()
            wall_after, cpu_after = perf_counter(), process_time()
            self.slice_before.append(len(self.starts))
            self.slice_cpu.append(cpu_after - cpu)
            self.slice_wall.append(wall_after - wall)
            self._next_slice = cpu_after + SLICE_EVERY_S
        self.starts.append(perf_counter())
        self.cpu_starts.append(process_time())
        traj = self._env.rollout(*args, **kwargs)
        self.cpu_ends.append(process_time())
        self.ends.append(perf_counter())
        return traj


def import_program():
    """Import ``adaptive_replay`` from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import adaptive_replay
    import adaptive_replay.training

    location = Path(adaptive_replay.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"adaptive_replay was imported from {location}, not from {src}")
    return adaptive_replay


def trace_arrays(trace) -> list[tuple[str, np.ndarray]]:
    return sorted((k, v) for k, v in vars(trace).items() if isinstance(v, np.ndarray))


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name, value in trace_arrays(trace):
        h.update(f"{name}:{value.dtype.str}:{value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def check_finite(trace, workload) -> str | None:
    for name, value in trace_arrays(trace):
        # Probe columns are NaN by design on rows without a probe.
        shown = value[~np.isnan(value)] if name.startswith("probes") else value
        if not np.all(np.isfinite(shown)):
            return f"non-finite values in {name}"
    own, uniform = trace.probe_pairs()
    expected = workload.updates // workload.probe_every if workload.probe_every else 0
    if len(own) != expected:
        return f"{len(own)} probe pairs, expected {expected}"
    return None


def without_slices(clock: RolloutClock, spent: array, *stamps: array) -> list[np.ndarray]:
    """Rollout timestamps on a clock that stops while a reference slice runs."""
    before = np.zeros(len(clock.starts))
    np.add.at(before, np.asarray(clock.slice_before, dtype=np.int64), np.asarray(spent))
    removed = np.cumsum(before)
    return [np.asarray(t) - removed for t in stamps]


def speed(clock: RolloutClock, first_rollout: int = 0) -> float | None:
    """Reference slice time at the fixed speed over the slices' mean time,
    for the slices run before rollout ``first_rollout`` or later."""
    spent = [t for k, t in zip(clock.slice_before, clock.slice_cpu) if k >= first_rollout]
    return REFERENCE_SLICE_S / float(np.mean(spent)) if spent else None


def check_invariants(captured) -> str | None:
    """ROADMAP invariants on the final store and sampler; None when they hold."""
    store, sampler = captured["store"], captured["sampler"]
    cfg = sampler.config
    expected = np.sqrt(sampler.w + cfg.nu)
    leaf_error = float(np.max(np.abs(store.tree.leaves() - expected) / np.maximum(expected, 1.0)))
    if leaf_error > 1e-9:
        return f"tree leaves differ from sqrt(w + nu) by {leaf_error:.3g}"
    consistency = store.tree.consistency_error()
    if not consistency < 1e-9:
        return f"consistency_error() = {consistency:.3g}"
    floor = cfg.kappa / store.capacity
    p_min = float(sampler.distribution().min())
    if p_min < floor:
        return f"min p = {p_min:.6g} < kappa/n = {floor:.6g}"
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--warmup", action="store_true",
                        help="run the workload's short warm-up version instead")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.warmup:
        workload = workload.warmup()

    program = import_program()
    env = workload.make_env(program)
    config = workload.make_config(program, args.seed)
    tracer = tracing.install(program) if args.trace_out else None
    cap_hits = getattr(program.gradients, "ratio_cap_activations", None)
    cap_hits_before = cap_hits() if cap_hits else 0
    clock = RolloutClock(env, slices=tracer is None)

    trace = program.training.run_training(clock, config)
    end = perf_counter()
    cpu_end = process_time()
    if tracer:
        tracer.uninstall()

    warmup = config.warmup_episodes or config.buffer_capacity
    if len(clock.starts) < warmup + 2:
        raise RuntimeError(f"the loop made {len(clock.starts)} rollouts on the env it was given")
    starts, ends = without_slices(clock, clock.slice_wall, clock.starts, clock.ends)
    cpu_starts, cpu_ends = without_slices(clock, clock.slice_cpu, clock.cpu_starts, clock.cpu_ends)
    end -= sum(clock.slice_wall)
    cpu_end -= sum(clock.slice_cpu)
    setup_end, starts = ends[warmup - 1], starts[warmup:]
    cpu_setup_end, cpu_starts = cpu_ends[warmup - 1], cpu_starts[warmup:]
    checks = {"finite": check_finite(trace, workload)}
    if workload.optimal_return is not None:
        final, optimal = trace.final_return, workload.optimal_return
        checks["optimal_return"] = (
            None if abs(final - optimal) <= 1e-9 else f"final return {final!r}, optimal {optimal}"
        )
    own, uniform = trace.probe_pairs()
    result = {
        "seed": args.seed,
        "traced": tracer is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # CPU time counts from this process's start, wall time from its spawn.
        "setup_cpu_s": float(cpu_setup_end),
        "run_cpu_s": cpu_end,
        "updates_per_cpu_s": config.total_steps / (cpu_end - cpu_setup_end),
        "step_cpu_ms": (np.diff(cpu_starts) * 1e3).tolist(),
        "setup_wall_s": float(setup_end - args.spawned_at),
        "run_s": end - args.spawned_at,
        "updates_per_s": config.total_steps / (end - setup_end),
        "step_ms": (np.diff(starts) * 1e3).tolist(),
        # Speed factors over the whole run and over the update phase.
        "speed_run": speed(clock),
        "speed_updates": speed(clock, warmup),
        "slices": len(clock.slice_cpu),
        "slices_cpu_s": sum(clock.slice_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digest": trace_digest(trace),
        "final_return": trace.final_return,
        "probe_wins": float(np.mean(own <= uniform)) if len(own) else None,
        "checks": checks,
    }
    if tracer:
        hits = cap_hits() - cap_hits_before if cap_hits else 0
        if not cap_hits:
            tracer.absent.append("gradients.ratio_cap_activations")
        result["layers"] = tracing.layer_metrics(tracer, config.total_steps, hits)
        result["absent"] = tracer.absent
        result["spans"] = tracer.write_spans(args.trace_out)
        if workload.check_invariants:
            try:
                checks["invariants"] = check_invariants(tracer.captured)
            except (KeyError, AttributeError) as exc:
                result["absent"].append(f"invariants ({exc!r})")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
