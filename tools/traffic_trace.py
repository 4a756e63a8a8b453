"""List every ``src/adaptive_replay`` function that the project's own traffic never calls.

Traffic is what the package is for, not its unit tests:

- each benchmark workload of ``perfbench/workloads.py``, with fewer updates,
  through the benchmark's own worker and its invariant check;
- the four demos;
- ``adaptive-replay run`` on one spec per family and regret scenario, one of
  them with a sweep, a hard reset and ``--seed-list``; one more run with
  ``--workers 2``, and one with the output root from the environment;
- ``adaptive-replay metrics`` and ``adaptive-replay bench --out``;
- the 13 acceptance criteria, ``tests/test_acceptance.py``.

A ``sys.settrace`` hook records each code object of the package that starts
to run, and each line of the package that runs.  A function it never records
is reached, if at all, only by the unit tests, and is a candidate for
deletion.  The script prints each one and exits 1 if there is one; it exits 0
when the traffic reaches every function.  After them, for information only,
it prints to stderr each line of a reached function that no traffic ran, save
the lines of an ``except`` handler, of a ``raise`` and of an ``if``/``else``
body that ends in a ``raise``.  Last, also to stderr and for information,
it lists for each reached function the parameters that no traffic moved off
their default: candidates for parameters that only tests pass.  A parameter
moved when a call's value is not its default, compared by identity, then by
``==`` between values of one type; a comparison that raises counts as a
move.  The functions are those defined in the package's modules and classes,
``__init__``s that ``dataclass`` generates among them.  It writes only to a
temporary directory and takes about two minutes::

    python tools/traffic_trace.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import importlib.util
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
import types
from dataclasses import replace
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adaptive_replay"
# Fewer updates per benchmark workload; its other settings stay as declared.
WORKLOAD_UPDATES = {"grid32_adaptive": 250, "bandit65k_adaptive": 60, "bandit65k_td": 60}

SPECS = {
    "regret_stationary": """
[experiment]
family = regret_synthetic
[regret]
scenario = stationary
horizons = 40,80
""",
    "regret_bandit_rate": """
[experiment]
family = regret_synthetic
[regret]
scenario = bandit_rate
horizons = 40,80
""",
    "regret_drifting": """
[experiment]
family = regret_synthetic
[regret]
scenario = drifting
horizons = 80
""",
    "rl": """
[experiment]
family = rl_comparison
seeds = 0
[training]
envs = two_state_bandit,chain5,gridworld4x4
modes = uniform,td_priority,adaptive,adaptive_epoch
total_steps = 40
buffer_capacity = 16
eval_every = 4
probe_every = 20
probe_repeats = 20
[sampler]
reset_period = 10
[sweep:soft]
sampler.reset_mode = soft
[sweep:hard]
sampler.reset_mode = hard
""",
    "variance": """
[experiment]
family = variance_study
[variance]
constructions = 3
capacity = 8
repeats = 20
""",
}

def package_code() -> dict[tuple[str, int, str], tuple[str, list[types.CodeType]]]:
    """Every function, method and lambda of the package, keyed as the hook records them:
    its report text, its code and the code of the comprehensions it holds."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), None)]
        while stack:
            code, owner = stack.pop()
            # Module and class bodies are not functions; a comprehension is
            # reported through the function around it.
            if code.co_flags & inspect.CO_OPTIMIZED and (code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                owner = (code.co_filename, code.co_firstlineno, code.co_name)
                name = getattr(code, "co_qualname", code.co_name)
                found[owner] = (f"{path.name}:{code.co_firstlineno} {name}", [])
            if owner is not None:
                found[owner][1].append(code)
            stack.extend((c, owner) for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def parameter_defaults() -> dict[types.CodeType, tuple[str, dict[str, object]]]:
    """Each package function that has a parameter with a default, keyed by its
    code: its report text and those parameters' defaults."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "adaptive_replay" if path.stem == "__init__" else f"adaptive_replay.{path.stem}"
        module = importlib.import_module(name)
        owners = [module, *(c for c in vars(module).values()
                            if inspect.isclass(c) and c.__module__ == module.__name__)]
        for owner in owners:
            for obj in vars(owner).values():
                func = getattr(obj, "__func__", obj)  # a staticmethod's or classmethod's function
                if not inspect.isfunction(func) or func.__module__ != module.__name__:
                    continue
                params = inspect.signature(func).parameters.values()
                defaults = {p.name: p.default for p in params if p.default is not p.empty}
                if defaults:
                    found[func.__code__] = (f"{path.name} {func.__qualname__}", defaults)
    return found


def moved_off(value, default) -> bool:
    """Whether ``value`` is not ``default``: identity, then ``==`` between values
    of one type; a comparison that raises counts as a move."""
    if value is default:
        return False
    if type(value) is not type(default):
        return True
    try:
        return not bool(value == default)
    except Exception:
        return True


def body_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code``'s instructions after its prologue, which ends at
    ``RESUME``: a line that holds only the prologue never sees a line event."""
    body = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -2) + 2
    return {line for _, end, line in code.co_lines() if line and end > body}


def exempt_lines(path: Path) -> set[int]:
    """Lines of an ``except`` handler, of a ``raise``, or of an ``if``/``else``
    body that ends in one."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        blocks = [[node]] if isinstance(node, (ast.ExceptHandler, ast.Raise)) else []
        if isinstance(node, ast.If):
            blocks += [body for body in (node.body, node.orelse)
                       if body and isinstance(body[-1], ast.Raise)]
        for block in blocks:
            lines.update(range(block[0].lineno, block[-1].end_lineno + 1))
    return lines


def run_workloads(tmp: Path) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    shortened = {name: replace(w, updates=WORKLOAD_UPDATES[name]) for name, w in worker.WORKLOADS.items()}
    worker.WORKLOADS = shortened
    for name in shortened:
        argv = ["worker.py", "--workload", name, "--seed", "0",
                "--spawned-at", str(time.perf_counter()), "--trace-out", str(tmp / f"{name}.npz")]
        out = io.StringIO()
        with _argv(argv), contextlib.redirect_stdout(out):
            worker.main()
        result = json.loads(out.getvalue())
        failed = [a for a in result["absent"] if a.startswith("invariants")]
        if failed or result["checks"].get("invariants"):
            raise RuntimeError(f"workload {name}: invariant check {failed or result['checks']}")


@contextlib.contextmanager
def _argv(argv):
    saved, sys.argv = sys.argv, argv
    try:
        yield
    finally:
        sys.argv = saved


def run_demos() -> None:
    for path in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def run_cli(tmp: Path) -> None:
    from adaptive_replay.cli import main
    from adaptive_replay.harness import OUTPUT_ROOT_ENV

    def cli(*args) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(list(args))
        if status != 0:
            raise RuntimeError(f"adaptive-replay {' '.join(args)} exited {status}")

    for name, text in SPECS.items():
        path = tmp / f"{name}.ini"
        path.write_text(text)
        extra = ["--seed-list", "0,1"] if name == "rl" else []
        cli("run", str(path), "--out", str(tmp / name), *extra)
    traces = sorted(str(p) for p in (tmp / "rl").glob("rl_chain5_adaptive_hard_seed*.csv"))
    cli("metrics", *traces, "--window", "5")
    cli("bench", "--capacity", "1000", "--batch", "16", "--rounds", "5", "--out", str(tmp / "bench"))
    cli("run", str(tmp / "regret_stationary.ini"), "--out", str(tmp / "pool"), "--workers", "2")
    with mock.patch.dict(os.environ, {OUTPUT_ROOT_ENV: str(tmp)}):
        cli("run", str(tmp / "variance.ini"))


def run_criteria() -> None:
    import pytest

    # Its report goes to stderr: stdout holds only the functions no traffic called.
    with contextlib.redirect_stdout(sys.stderr):
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    if status != 0:
        raise RuntimeError(f"the acceptance criteria exited {status}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import adaptive_replay

    if Path(adaptive_replay.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"adaptive_replay was imported from {adaptive_replay.__file__}, not {PACKAGE}")
    functions = package_code()
    files = {key[0] for key in functions}
    # Each entry keeps the parameters no call has moved yet.
    unmoved = parameter_defaults()
    called: set[tuple[str, int, str]] = set()
    ran: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def hook(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
        if code in unmoved:
            defaults, values = unmoved[code][1], frame.f_locals
            for name in [name for name, default in defaults.items() if moved_off(values[name], default)]:
                del defaults[name]
        return lines if code.co_filename in files else None

    with tempfile.TemporaryDirectory() as tmp:
        steps = {
            "benchmark workloads": lambda: run_workloads(Path(tmp)),
            "demos": run_demos,
            "cli": lambda: run_cli(Path(tmp)),
            "acceptance criteria": run_criteria,
        }
        for label, step in steps.items():
            start = time.perf_counter()
            threading.settrace(hook)
            sys.settrace(hook)
            try:
                step()
            finally:
                installed, _ = sys.gettrace(), sys.settrace(None)
                threading.settrace(None)
            if installed is not hook:
                raise RuntimeError(f"{label} replaced the trace hook; its calls went unrecorded")
            print(f"{label}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    unreached = [text for key, (text, _) in sorted(functions.items()) if key not in called]
    for text in unreached:
        print(text)
    print(f"{len(functions) - len(unreached)} of {len(functions)} functions reached", file=sys.stderr)
    unrun = {(key[0], line) for key, (_, codes) in functions.items() if key in called
             for code in codes for line in body_lines(code)}
    exempt = {(str(path), line) for path in PACKAGE.glob("*.py") for line in exempt_lines(path)}
    unrun = sorted(unrun - ran - exempt)
    print(f"{len(unrun)} lines of reached functions never ran, handlers and raises aside:",
          file=sys.stderr)
    for filename, line in unrun:
        source = Path(filename).read_text().splitlines()[line - 1].strip()
        print(f"  {Path(filename).name}:{line} {source}", file=sys.stderr)
    never_moved = sorted((text, list(defaults)) for code, (text, defaults) in unmoved.items()
                         if defaults and (code.co_filename, code.co_firstlineno, code.co_name) in called)
    print(f"{sum(len(names) for _, names in never_moved)} parameters of reached functions "
          "never moved off their default:", file=sys.stderr)
    for text, names in never_moved:
        print(f"  {text}: {', '.join(names)}", file=sys.stderr)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
