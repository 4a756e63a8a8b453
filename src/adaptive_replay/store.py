"""Replay buffer of whole trajectories with weighted sampling and complement eviction.

The store keeps its trajectories as padded ``(capacity, width)`` columns
(:class:`TrajectoryBatch`) and a sum-tree index over per-slot scores (the
sampler's ``sqrt(w(i) + nu)`` or a strategy's own), so sampling and score
maintenance both cost O(log capacity).  Draws and evictions follow one
mixture, ``p(i) = (1 - kappa) * leaf(i) / total + kappa / n`` with the
store's own ``kappa``.  When full, a new trajectory overwrites a victim slot
drawn from the complement ``q(j) = (1 - p(j)) / (capacity - 1)``, by
rejection under the ceiling ``1 - kappa / n >= 1 - p(j)``, so each proposal
reads only its own ``p(j)``: slots the sampler values least are evicted
first.  The slot's accumulator is zeroed: a fresh trajectory has no history.
A replay step is one call each way: ``draw(batch, rng)`` gives the distinct
slots drawn, the inverse that rebuilds the draws and the slots' ``p``, and
``update_scores(sampler, slots, d, p_used)`` feeds back their losses and
refreshes their leaves.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

from .sampler import SamplerState
from .sumtree import SumTree


class NotReadyError(RuntimeError):
    """Operation requires a warmed-up (full) buffer."""


# Column name -> (dtype, padding value).  Behavior probabilities pad with 1.0,
# so a log over a whole column never sees a zero.
_COLUMNS = {
    "states": (np.int64, 0),
    "actions": (np.int64, 0),
    "behavior_probs": (np.float64, 1.0),
    "rewards": (np.float64, 0.0),
    "next_states": (np.int64, 0),
}


class Episode:
    """One rollout as the per-step Python lists it was collected in; not checked.

    This is the one record layout: stores, estimators and the loss-bound
    check all read its five lists.  A rollout's episode needs no checks, as
    they hold by construction: the policy tables reject a probability
    outside ``(0, 1]`` and the env rejects a non-finite reward, each once,
    when it is built.  Hand-built records go through :class:`Trajectory`.
    """

    __slots__ = tuple(_COLUMNS)

    def __init__(self, states, actions, behavior_probs, rewards, next_states):
        self.states = states
        self.actions = actions
        self.behavior_probs = behavior_probs
        self.rewards = rewards
        self.next_states = next_states

    def __len__(self) -> int:
        return len(self.states)


class Trajectory(Episode):
    """A hand-built :class:`Episode`, checked once on construction.

    Each column may be any sequence; it is converted to the list an episode
    holds (float64 for probabilities and rewards) and checked there.
    ``behavior_probs[t]`` is the probability the generating policy assigned
    to ``actions[t]`` in ``states[t]``; it is what importance ratios divide
    by, so it must be positive.
    """

    __slots__ = ()

    def __init__(self, states, actions, behavior_probs, rewards, next_states):
        super().__init__(
            np.asarray(states).tolist(),
            np.asarray(actions).tolist(),
            np.asarray(behavior_probs, dtype=np.float64).tolist(),
            np.asarray(rewards, dtype=np.float64).tolist(),
            np.asarray(next_states).tolist(),
        )
        n = len(self.states)
        if n < 1:
            raise ValueError("trajectory must contain at least one step")
        for name in _COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match states length {n}")
        # The checks run on the lists: at a few steps, cheaper than numpy's
        # calls.  A NaN fails both comparisons, so it is rejected too.
        if not all(0.0 < p <= 1.0 for p in self.behavior_probs):
            raise ValueError("behavior probabilities must lie in (0, 1]")
        if not all(map(math.isfinite, self.rewards)):
            raise ValueError("rewards must be finite")


class TrajectoryBatch:
    """Trajectories as padded ``(rows, width)`` columns plus ``lengths``.

    Row ``i`` holds one trajectory in its first ``lengths[i]`` cells; the
    cells after it are padding and may hold stale steps of an overwritten,
    longer trajectory, so readers mask by ``lengths``.  ``width`` is the
    longest trajectory written so far and grows as longer ones are written.
    """

    def __init__(self, rows: int):
        self.lengths = np.zeros(rows, dtype=np.int64)
        for name, (dtype, fill) in _COLUMNS.items():
            setattr(self, name, np.full((rows, 0), fill, dtype=dtype))

    @classmethod
    def of(cls, trajs: Sequence[Episode]) -> TrajectoryBatch:
        """A batch holding ``trajs`` in order, one row each."""
        batch = cls(len(trajs))
        batch._write_rows(0, trajs)
        return batch

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def width(self) -> int:
        return self.states.shape[1]

    def _widen(self, width: int) -> None:
        if width > self.width:
            pad = ((0, 0), (0, width - self.width))
            for name, (_, fill) in _COLUMNS.items():
                setattr(self, name, np.pad(getattr(self, name), pad, constant_values=fill))

    def write(self, row: int, traj: Episode) -> None:
        """Store ``traj`` in ``row``, widening every column if it is the longest yet.

        Each list of ``traj`` is assigned into ``column[row, :len(traj)]``
        as it is, with no further checks.
        """
        n = len(traj)
        self._widen(n)
        for name in _COLUMNS:
            getattr(self, name)[row, :n] = getattr(traj, name)
        self.lengths[row] = n

    def _write_rows(self, lo: int, trajs: Sequence[Episode]) -> None:
        """Store ``trajs`` in rows ``lo, lo + 1, ...``, as a ``write`` per row would.

        One trajectory takes ``write``.  More take, per column, one ``np.fromiter``
        over their chained lists and one assignment through the ``lengths`` mask,
        which visits the cells row by row, in the order the steps were chained.
        """
        if len(trajs) == 1:
            return self.write(lo, trajs[0])
        lengths = np.fromiter(map(len, trajs), dtype=np.int64, count=len(trajs))
        self._widen(int(lengths.max(initial=0)))
        mask = np.arange(self.width) < lengths[:, None]
        steps = int(lengths.sum())
        for name, (dtype, _) in _COLUMNS.items():
            values = chain.from_iterable(getattr(traj, name) for traj in trajs)
            getattr(self, name)[lo : lo + len(trajs)][mask] = np.fromiter(values, dtype, steps)
        self.lengths[lo : lo + len(trajs)] = lengths

    def take(self, rows: np.ndarray) -> TrajectoryBatch:
        """The given rows, gathered into a batch of their own."""
        # Skip __init__: every column it would allocate is replaced below.
        batch = TrajectoryBatch.__new__(TrajectoryBatch)
        batch.lengths = self.lengths[rows]
        for name in _COLUMNS:
            setattr(batch, name, getattr(self, name)[rows])
        return batch


class WeightedStore(TrajectoryBatch):
    """One trajectory row per slot plus a sum-tree score index; single-writer.

    Slots fill in order, so the filled rows are ``range(occupancy)``.
    """

    def __init__(self, capacity: int, kappa: float):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= kappa <= 1.0:  # NaN fails it too
            raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
        super().__init__(capacity)
        self.capacity = int(capacity)
        self.kappa = float(kappa)
        self.tree = SumTree(self.capacity)
        self.occupancy = 0

    def draw(self, batch: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """One replay draw: ``(slots, drawn, p)`` for ``batch`` mixture draws.

        ``slots`` are the distinct slots drawn, sorted; ``slots[drawn]`` are
        the draws in order; ``p`` is each slot's mixture probability.
        """
        slots, drawn = np.unique(self.sample_mixture(batch, rng), return_inverse=True)
        return slots, drawn, self.probabilities(slots)

    def update_scores(self, sampler: SamplerState, slots, d, p_used) -> None:
        """Feed back the losses ``d`` of ``slots`` drawn with ``p_used``; refresh their leaves.

        ``sampler.record_feedback`` checks the slots (distinct, in range) and
        the losses before anything is written; the slots' order is the order
        of the index's additions.
        """
        sampler.record_feedback(slots, d, p_used)
        self.set_scores(slots, sampler.scores(slots))

    def rebuild_index(self, sampler: SamplerState) -> None:
        """Recompute the whole index from the accumulators; exact, O(capacity)."""
        self.tree.rebuild(sampler.scores())

    def sample_mixture(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``batch`` slot indices i.i.d. (with replacement) from the mixture.

        Each draw is uniform with probability ``kappa`` and proportional to
        the index scores otherwise, which is exactly the sampler's current
        distribution when ``kappa`` is the sampler's and the scores are in sync.
        """
        if batch == 0:
            return np.empty(0, dtype=np.int64)
        if self.occupancy < self.capacity:
            raise NotReadyError(
                f"buffer holds {self.occupancy}/{self.capacity} trajectories; warm up first"
            )
        out = np.empty(batch, dtype=np.int64)
        uniform = rng.random(batch) < self.kappa
        n_uniform = int(uniform.sum())
        if n_uniform:
            out[uniform] = rng.integers(0, self.capacity, n_uniform)
        n_prop = batch - n_uniform
        if n_prop:
            out[~uniform] = self.tree.sample(rng.random(n_prop) * self.tree.total)
        return out

    def probabilities(self, slots: np.ndarray) -> np.ndarray:
        """Mixture probabilities of ``slots`` from the index, in O(len(slots))."""
        kappa = self.kappa
        return (1.0 - kappa) * self.tree.get(slots) / self.tree.total + kappa / self.capacity

    def set_scores(self, slots, values) -> None:
        """Assign index scores; with ``rebuild_index``, the only writer of leaves.

        An int slot, or a one-slot array, takes the scalar ``SumTree.set`` path,
        several times cheaper than a one-leaf ``set_many`` and bit-identical to it.
        """
        if isinstance(slots, int):
            self.tree.set(slots, values)
        elif len(slots) == 1:
            self.tree.set(int(slots[0]), float(values[0]))
        else:
            self.tree.set_many(slots, values)

    def fill(
        self,
        trajs: Sequence[Episode],
        sampler: SamplerState,
        scores: np.ndarray | None = None,
    ) -> None:
        """Store ``trajs`` in the next free slots; the one fill-phase writer.

        The rows are written in bulk, the slots' accumulators zeroed, and
        their scores, ``scores`` or the fresh accumulators' ``sqrt(nu)``,
        written in one leaf write.  Each ancestor of the fresh leaves
        receives the same additions in the same leaf order as under one
        ``fill`` per trajectory, so the index does not depend on the blocks.
        """
        lo, hi = self.occupancy, self.occupancy + len(trajs)
        if hi > self.capacity:
            raise ValueError(f"{len(trajs)} trajectories do not fit {self.capacity - lo} free slots")
        self._write_rows(lo, trajs)
        self.occupancy = hi
        sampler.clear(slice(lo, hi))
        if scores is None:
            scores = sampler.scores(slice(lo, hi))
        self.set_scores(np.arange(lo, hi), scores)

    def insert(
        self,
        traj: Episode,
        sampler: SamplerState,
        rng: np.random.Generator,
        score: float | None = None,
    ) -> int:
        """Store a trajectory, evicting by complement probability when full.

        During the fill phase it is a one-trajectory ``fill``.  Once full, the
        victim is drawn from ``q(j) = (1 - p(j)) / (capacity - 1)``; its
        accumulator is zeroed and its leaf set, in one write, to ``score`` or
        a fresh accumulator's ``sqrt(nu)``.  Returns the slot written.
        """
        slot = self.occupancy
        if slot < self.capacity:
            self.fill([traj], sampler, None if score is None else [score])
            return slot
        slot = self._sample_victim(rng) if self.capacity > 1 else 0
        self.write(slot, traj)
        sampler.clear(slot)
        self.set_scores(slot, sampler.scores(slot) if score is None else score)
        return slot

    def _sample_victim(self, rng: np.random.Generator) -> int:
        # Rejection sampling from q ~ (1 - p): propose uniformly, accept with
        # probability (1 - p(j)) / (1 - kappa/n).  The mean acceptance is
        # (1 - 1/n) / (1 - kappa/n) >= 1/2 for n >= 2, so the loop ends.
        ceiling = 1.0 - self.kappa / self.capacity
        while True:
            j = int(rng.integers(0, self.capacity))
            if rng.random() * ceiling < 1.0 - self.probabilities(j):
                return j
