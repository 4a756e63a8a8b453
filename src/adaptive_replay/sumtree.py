"""Binary sum tree with vectorized batched updates and sampling.

Leaves hold non-negative scores; internal nodes hold subtree sums, so both a
score update and a single proportional draw touch O(log n) nodes.  The leaf
count is padded to the next power of two, so every draw descends the same
number of levels.  A batch of up to ``SCALAR_DESCENT_MAX`` offsets descends
one offset at a time in plain Python over the tree's float buffer; a larger
batch walks all levels in lockstep with numpy indexing.  Both make the same
comparisons and subtractions, so they pick the same leaves bit for bit.
"""

from __future__ import annotations

import numpy as np

# Largest batch that ``SumTree.sample`` descends in plain Python.  At small
# batches the numpy loop's cost is its five calls per level, not arithmetic:
# at batch 8 the Python descent takes a quarter of its time at every capacity
# from 32 to 1e6 leaves.  Measured crossover: Python is faster at batch 32
# (e.g. 35 against 42 us at 65,000 leaves) and numpy from batch 64 on.
SCALAR_DESCENT_MAX = 32


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
        nodes = self._n + indices
        delta = values - self._tree[nodes]
        self._tree[nodes] = values
        # Level by level, leaf order within a level: each ancestor receives
        # the same deltas in the same order as a per-level loop would add them.
        ancestors = (nodes >> self._shifts[:, None]).ravel()
        np.add.at(self._tree, ancestors, delta[None].repeat(self._depth, axis=0).ravel())

    def set(self, index: int, value: float) -> None:
        node = self._n + index
        delta = value - self._tree[node]
        self._tree[node] = value
        # The ancestors are distinct nodes, so one fancy-index add is exact.
        self._tree[node >> self._shifts] += delta

    def rebuild(self, scores: np.ndarray) -> None:
        """Recompute every node from a full score vector, one in-place numpy pass
        per level; the same pairwise additions as a per-node loop, so bit-identical."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.capacity,):
            raise ValueError(f"expected {self.capacity} scores, got {scores.shape}")
        tree, n = self._tree, self._n
        tree[n : n + self.capacity] = scores
        tree[n + self.capacity :] = 0.0
        m = n >> 1
        while m >= 1:
            np.add(tree[2 * m : 4 * m : 2], tree[2 * m + 1 : 4 * m : 2], out=tree[m : 2 * m])
            m >>= 1

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map mass offsets ``u`` in [0, total) to leaf indices."""
        u = np.asarray(u, dtype=np.float64)
        # Guard against u == total edge cases landing on zero-score padding.
        last = self.capacity - 1
        if len(u) <= SCALAR_DESCENT_MAX:
            tree = self._tree.data  # items are Python floats
            n = self._n
            out = []
            for x in u.tolist():
                node = 1
                while node < n:
                    node <<= 1
                    left = tree[node]
                    if x >= left:
                        x -= left
                        node += 1
                out.append(min(node - n, last))
            return np.array(out, dtype=np.int64)
        u = u.copy()
        nodes = np.ones(len(u), dtype=np.int64)
        for _ in range(self._depth):
            left = nodes << 1
            left_sum = self._tree[left]
            go_right = u >= left_sum
            u -= np.where(go_right, left_sum, 0.0)
            nodes = left + go_right
        return np.minimum(nodes - self._n, last)

    def consistency_error(self) -> float:
        """Largest relative mismatch between a node and the sum of its children."""
        parents = self._tree[1 : self._n]
        children = self._tree[2 : 2 * self._n : 2] + self._tree[3 : 2 * self._n : 2]
        scale = np.maximum(np.abs(parents), 1.0)
        return float(np.max(np.abs(parents - children) / scale))
