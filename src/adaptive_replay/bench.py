"""Micro-benchmarks for the weighted-store index.

Times batched mixture sampling, batched score updates, and the combined
sample-then-update cycle that dominates a training step.  One "op" is one
sampled index or one leaf update; the combined figure counts one of each.
The training batch of 8 follows the requested batch: there per-call overhead sets the rate.
"""

from __future__ import annotations

import time

import numpy as np

from .sumtree import SumTree

TRAINING_BATCH = 8


def _timed(fn, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return time.perf_counter() - start


def run_bench(
    capacity: int = 1_000_000, batch: int = 256, rounds: int = 200
) -> list[tuple[int, str, int, int, float]]:
    """Returns rows (capacity, operation, batch, rounds, ops_per_second), batch first."""
    rng = np.random.default_rng(0)
    tree = SumTree(capacity)
    tree.rebuild(rng.uniform(0.5, 2.0, capacity))

    def sample_only(size):
        tree.sample(rng.random(size) * tree.total)

    def update_only(size):
        idx = np.unique(rng.integers(0, capacity, size))
        tree.set_many(idx, rng.uniform(0.5, 2.0, len(idx)))

    def sample_update(size):
        idx = np.unique(tree.sample(rng.random(size) * tree.total))
        tree.set_many(idx, rng.uniform(0.5, 2.0, len(idx)))

    rows = []
    for size in dict.fromkeys((batch, TRAINING_BATCH)):
        for name, fn in (("sample", sample_only), ("update", update_only), ("sample+update", sample_update)):
            elapsed = _timed(lambda: fn(size), rounds)
            rows.append((capacity, name, size, rounds, size * rounds / elapsed))
    return rows
