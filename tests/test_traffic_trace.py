"""The project's own traffic reaches every function of the package.

``tools/traffic_trace.py`` runs the benchmark workloads, the demos, the CLI
and the acceptance criteria under a trace hook and lists each function none
of them calls.  A change that leaves a function with only unit-test callers
fails here.  The run takes about two minutes, so it is opt-in:
``pytest -m slow``.  Bytecode writing is off, so nothing is written under
``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic_trace.py"


@pytest.mark.slow
def test_traffic_reaches_every_function():
    proc = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=900,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert proc.stdout == "", proc.stdout
