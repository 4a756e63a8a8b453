"""Binary sum tree with vectorized batched updates and sampling.

Leaves hold non-negative scores; internal nodes hold subtree sums, so both a
score update and a single proportional draw touch O(log n) nodes.  The leaf
count is padded to the next power of two so batched descent can walk all
levels in lockstep with numpy indexing.
"""

from __future__ import annotations

import numpy as np


class SumTree:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._n = 1 << (self.capacity - 1).bit_length()
        self._tree = np.zeros(2 * self._n)
        self._depth = self._n.bit_length() - 1
        # Shift that takes a leaf's node number to its ancestor at each level.
        self._shifts = np.arange(1, self._depth + 1)

    @property
    def total(self) -> float:
        return float(self._tree[1])

    def get(self, index):
        """Leaf score at ``index``, an int or an integer array of leaf indices."""
        return self._tree[self._n + np.asarray(index)]

    def leaves(self) -> np.ndarray:
        """Copy of the real leaf scores (padding excluded)."""
        return self._tree[self._n : self._n + self.capacity].copy()

    def set_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Assign scores to distinct leaves and repair ancestor sums."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if len(indices) == 0:
            return
        nodes = self._n + indices
        delta = values - self._tree[nodes]
        self._tree[nodes] = values
        # Level by level, leaf order within a level: each ancestor receives
        # the same deltas in the same order as a per-level loop would add them.
        ancestors = (nodes >> self._shifts[:, None]).ravel()
        np.add.at(self._tree, ancestors, np.tile(delta, self._depth))

    def set(self, index: int, value: float) -> None:
        node = self._n + index
        delta = value - self._tree[node]
        self._tree[node] = value
        # The ancestors are distinct nodes, so one fancy-index add is exact.
        self._tree[node >> self._shifts] += delta

    def rebuild(self, scores: np.ndarray) -> None:
        """Recompute every node from a full score vector, one numpy pass per
        level; the same pairwise additions as a per-node loop, so bit-identical."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.capacity,):
            raise ValueError(f"expected {self.capacity} scores, got {scores.shape}")
        self._tree[:] = 0.0
        self._tree[self._n : self._n + self.capacity] = scores
        m = self._n >> 1
        while m >= 1:
            self._tree[m : 2 * m] = self._tree[2 * m : 4 * m : 2] + self._tree[2 * m + 1 : 4 * m : 2]
            m >>= 1

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map mass offsets ``u`` in [0, total) to leaf indices, vectorized."""
        u = np.array(u, dtype=np.float64, copy=True)
        nodes = np.ones(len(u), dtype=np.int64)
        for _ in range(self._depth):
            left = nodes << 1
            left_sum = self._tree[left]
            go_right = u >= left_sum
            u -= np.where(go_right, left_sum, 0.0)
            nodes = left + go_right
        indices = nodes - self._n
        # Guard against u == total edge cases landing on zero-score padding.
        return np.minimum(indices, self.capacity - 1)

    def consistency_error(self) -> float:
        """Largest relative mismatch between a node and the sum of its children."""
        parents = self._tree[1 : self._n]
        children = self._tree[2 : 2 * self._n : 2] + self._tree[3 : 2 * self._n : 2]
        scale = np.maximum(np.abs(parents), 1.0)
        return float(np.max(np.abs(parents - children) / scale))
