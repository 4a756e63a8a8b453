"""The benchmark's worker runs on this checkout: one short, traced warm-up rep
of each workload exits 0 with every check passing.

A change that renames or drops something the benchmark reads (a tracer hook,
an argument position the invariant check captures, a config field) fails
here, and so does one that keeps a hooked name but stops calling it on the
replay path, which would leave its per-layer row reading 0.  Bytecode
writing is off, so nothing is written under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

# Tracer targets that name functions the program no longer has; a traced run
# lists them as absent.  Any other absent name is a hook the program lost.
KNOWN_ABSENT = {
    "gradients.gradient_sample",
    "gradients.empirical_gradient_variance",
    "policies.log_prob",
    "policies.grad_log_prob",
    "policies.sample_action",
    "policies.prob",
    "gradients.ratio_cap_activations",
}

# Per-layer rows each workload's replay path must reach: a traced warm-up
# rep reads each of them above 0.
CALLED = {
    "grid32_adaptive": (),
    "bandit65k_adaptive": (
        "store.sample_mixture.self_s",
        "sumtree.sample.self_s",
        "sampler.record_feedback.self_s",
        "store.update_scores.self_s",
        "sampler.resets",
        "sumtree.rebuild.calls",
        "store.insert.calls",
    ),
    "bandit65k_td": ("store.set_scores.self_s", "sumtree.set_many.calls"),
}


@pytest.mark.parametrize("workload", ["grid32_adaptive", "bandit65k_adaptive", "bandit65k_td"])
def test_traced_warmup_rep_passes_its_checks(tmp_path, workload):
    proc = subprocess.run(
        [
            sys.executable, str(WORKER), "--workload", workload, "--seed", "3", "--warmup",
            "--spawned-at", "0", "--trace-out", str(tmp_path / f"{workload}.npz"),
        ],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert all(value is None for value in result["checks"].values()), result["checks"]
    if workload == "bandit65k_adaptive":
        assert "invariants" in result["checks"]
    assert set(result["absent"]) <= KNOWN_ABSENT
    idle = [name for name in CALLED[workload] if not result["layers"][name] > 0]
    assert not idle, idle
