"""Span tracing installed from outside the program, around each layer's public calls.

Every wrapper is installed where its caller looks the name up: methods on
their class, and module-level functions in every ``adaptive_replay`` module
that binds them (``training`` imports ``gradient_sample`` by name, so the
wrapper goes into ``adaptive_replay.training`` as well as
``adaptive_replay.gradients``).  A target that no longer exists is recorded
as absent and skipped, so a later reshaping of the program does not break the
benchmark.

Timed targets record one span per call (name, start, end, parent) in
memory; self time is the span's duration minus the time its traced children
cover.  Counted targets (the per-step policy calls, ~5 us each) only count,
because timing them would cost more than the call and their time stays in
the enclosing span.  Nothing waits on another thread, so there is no wait
time to record.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


# What a counter hook may raise when a later program version reshapes the
# arguments or results it reads; the counter is then reported absent.
HOOK_ERRORS = (TypeError, AttributeError, KeyError, IndexError, ValueError)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.captured: dict[str, object] = {}
        # One open frame per active span: [span index, time covered by children].
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        def wrapper(*args, **kwargs):
            if before is not None:
                try:
                    before(self, args, kwargs)
                except HOOK_ERRORS as exc:
                    self._hook_failed(name, before, exc)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                try:
                    after(self, result)
                except HOOK_ERRORS as exc:
                    self._hook_failed(name, after, exc)
            return result

        return wrapper

    def _hook_failed(self, name, hook, exc) -> None:
        entry = f"{name} counter {hook.__name__} ({exc.__class__.__name__})"
        if entry not in self.absent:
            self.absent.append(entry)

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package, layer, owner, attr, counted=False, before=None, after=None):
        """Wrap ``package.<layer>.<owner>.<attr>`` (or the function ``<layer>.<attr>``)."""
        name = f"{layer}.{attr}"
        module = getattr(package, layer, None)
        target = getattr(module, owner, None) if owner else module
        original = getattr(target, attr, None) if target is not None else None
        if original is None or not callable(original):
            self.absent.append(name)
            return
        if counted:
            wrapper = self._counted(name, original)
        else:
            wrapper = self._timed(name, original, before, after)
        if owner:
            self._patch(target, attr, wrapper)
        else:
            prefix = package.__name__
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == prefix or mod_name.startswith(prefix + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, obj, key, wrapper) -> None:
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as a compressed npz; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
        return len(self.span_start)


# -- counters measured at the layer boundaries ---------------------------


def _count_leaves(tracer, args, kwargs):
    tracer.counters["sumtree.set_many.leaves"] += len(_arg(args, kwargs, 1, "indices"))


def _capture_insert(tracer, args, kwargs):
    store = args[0]
    tracer.counters["store.evictions"] += store.occupancy >= store.capacity
    if "store" not in tracer.captured:
        tracer.captured["store"] = store
        tracer.captured["sampler"] = _arg(args, kwargs, 2, "sampler")


def _count_draws(tracer, result):
    tracer.counters["store.draws"] += len(result)
    tracer.counters["store.unique_slots"] += len(np.unique(result))


def _count_resets(tracer, result):
    tracer.counters["sampler.resets"] += bool(result)


def _count_steps(tracer, result):
    tracer.counters["envs.steps"] += len(result)


TIMED = (
    ("sumtree", "SumTree", "sample", None, None),
    ("sumtree", "SumTree", "set_many", _count_leaves, None),
    ("sumtree", "SumTree", "set", None, None),
    ("sumtree", "SumTree", "rebuild", None, None),
    ("store", "WeightedStore", "insert", _capture_insert, None),
    ("store", "WeightedStore", "sample_mixture", None, _count_draws),
    ("store", "WeightedStore", "update_scores", None, None),
    ("store", "WeightedStore", "set_scores", None, None),
    ("store", "WeightedStore", "rebuild_index", None, None),
    ("sampler", "SamplerState", "distribution", None, None),
    ("sampler", "SamplerState", "record_feedback", None, None),
    ("sampler", "SamplerState", "maybe_reset", None, _count_resets),
    ("gradients", None, "gradient_sample", None, None),
    ("gradients", None, "replay_gradient", None, None),
    ("gradients", None, "empirical_gradient_variance", None, None),
    ("envs", "TabularEnv", "rollout", None, _count_steps),
    ("envs", "TabularEnv", "evaluate", None, None),
    ("training", None, "run_training", None, None),
)

COUNTED = (
    ("policies", "TabularSoftmaxPolicy", "log_prob"),
    ("policies", "TabularSoftmaxPolicy", "grad_log_prob"),
    ("policies", "TabularSoftmaxPolicy", "sample_action"),
    ("policies", "TabularSoftmaxPolicy", "prob"),
)


def install(package) -> Tracer:
    """Wrap every layer target of ``package`` (the imported ``adaptive_replay``)."""
    tracer = Tracer()
    for layer, owner, attr, before, after in TIMED:
        tracer.install(package, layer, owner, attr, before=before, after=after)
    for layer, owner, attr in COUNTED:
        tracer.install(package, layer, owner, attr, counted=True)
    return tracer


def layer_metrics(tracer: Tracer, updates: int, ratio_cap_hits: int) -> dict[str, float]:
    """The per-layer table of one traced run; absent targets read as zero."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    draws = counters["store.draws"]
    probe = "gradients.empirical_gradient_variance"
    return {
        "gradients.gradient_sample.calls": calls["gradients.gradient_sample"],
        "gradients.gradient_sample.self_s": self_s["gradients.gradient_sample"],
        "gradients.replay_gradient.self_s": self_s["gradients.replay_gradient"],
        "gradients.ratio_cap_hits": ratio_cap_hits,
        "policies.log_prob.calls": calls["policies.log_prob"],
        "policies.grad_log_prob.calls": calls["policies.grad_log_prob"],
        "policies.sample_action.calls": calls["policies.sample_action"],
        "policies.prob.calls": calls["policies.prob"],
        f"{probe}.calls": calls[probe],
        f"{probe}.self_s": self_s[probe],
        "sampler.distribution.calls": calls["sampler.distribution"],
        "sampler.distribution.self_s": self_s["sampler.distribution"],
        "sampler.distribution.per_update": calls["sampler.distribution"] / updates,
        "sampler.record_feedback.self_s": self_s["sampler.record_feedback"],
        "sampler.resets": counters["sampler.resets"],
        "sumtree.rebuild.calls": calls["sumtree.rebuild"],
        "sumtree.rebuild.self_s": self_s["sumtree.rebuild"],
        "store.rebuild_index.self_s": self_s["store.rebuild_index"],
        "sumtree.set_many.calls": calls["sumtree.set_many"],
        "sumtree.set_many.self_s": self_s["sumtree.set_many"],
        "sumtree.set_many.leaves": counters["sumtree.set_many.leaves"],
        "sumtree.set.self_s": self_s["sumtree.set"],
        "store.set_scores.self_s": self_s["store.set_scores"],
        "sumtree.sample.self_s": self_s["sumtree.sample"],
        "store.sample_mixture.self_s": self_s["store.sample_mixture"],
        "store.update_scores.self_s": self_s["store.update_scores"],
        "store.insert.calls": calls["store.insert"],
        "store.insert.self_s": self_s["store.insert"],
        "store.evictions": counters["store.evictions"],
        "store.unique_per_draw": counters["store.unique_slots"] / draws if draws else 0.0,
        "envs.rollout.calls": calls["envs.rollout"],
        "envs.rollout.self_s": self_s["envs.rollout"],
        "envs.steps": counters["envs.steps"],
        "envs.evaluate.self_s": self_s["envs.evaluate"],
        "training.run_training.self_s": self_s["training.run_training"],
    }
