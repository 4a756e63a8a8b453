"""Replay buffer of whole trajectories with weighted sampling and FIFO eviction.

The store keeps its trajectories as padded ``(capacity, width)`` columns
(:class:`TrajectoryBatch`) and a sum-tree index over per-slot scores (the
sampler's ``sqrt(w(i) + nu)`` or a strategy's own), so sampling and score
maintenance both cost O(log capacity).  Draws follow the mixture
``p(i) = (1 - kappa) * leaf(i) / total + kappa / n`` with the store's own
``kappa``.  The store is one FIFO ring, as DDPG's and SAC's buffers are: one
write counter sends each trajectory to slot ``writes % capacity``, a free slot
while it fills and then the oldest, in the order ``0, 1, ..., capacity - 1, 0,
...``; eviction reads neither the index nor the mixture, so the modes differ
only in how they sample.  The slot's accumulator is zeroed: a fresh trajectory
has no history.  Index scores are positive and finite; writers reject others.
A replay step is one call each way: ``draw(batch, rng)`` gives the distinct
slots drawn, the inverse that rebuilds the draws and the slots' ``p``, and
``update_scores(sampler, slots, d, p_used)`` feeds back their losses and
refreshes their leaves.  A batch of up to ``SET_DEDUP_MAX`` draws is
deduplicated with a Python set, a larger one with ``np.unique``; both give the
same slots and inverse.  The benchmark, the demos and the harness's defaults
draw 4 or 8.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .sampler import SamplerState, check_finite_non_negative, check_slots
from .sumtree import SumTree

# Largest draw that ``WeightedStore.draw`` deduplicates with a Python set and
# locates with one ``searchsorted``; a larger one takes ``np.unique(...,
# return_inverse=True)``.  The set's cost grows with the distinct draws, the
# call overhead of ``np.unique`` does not.  Measured on a 2-vCPU Xeon VM
# (numpy 2.4), deduplication alone, best of 21, set against ``np.unique``:
# 65,000 leaves, batch 8 4.9 vs 12.1 us, 64 10.6 vs 13.7, 96 21.4 vs 22.5,
# 128 27.9 vs 23.7, 256 31.4 vs 17.4; 1e6 leaves the same shape; 32 leaves,
# where at most 32 slots are distinct, the set is faster up to 256.  A whole
# update at 65,000 slots with the set for every batch: batch 8 153 vs 166 us,
# 256 423 vs 360, 1024 1030 vs 731.  Only a user-set ``batch_size`` above 64
# takes ``np.unique``.
SET_DEDUP_MAX = 64


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
    they hold by construction: a rollout never draws an action of
    probability 0, so it records probabilities in ``(0, 1]``, and the env
    rejects a non-finite reward once, when it is built.  Hand-built records
    go through :class:`Trajectory`.
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

        Per column, one ``np.fromiter`` over their chained lists and one assignment
        through the ``lengths`` mask, which visits the cells row by row, in the order
        the steps were chained; one trajectory too (a store's ``fill`` at ``writes``).
        """
        # ``len`` of each ``states`` list, all at C level: no ``Episode.__len__`` calls.
        lengths = np.fromiter(
            map(len, map(attrgetter("states"), trajs)), dtype=np.int64, count=len(trajs)
        )
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


def _check_scores(slots, values) -> None:
    """Reject, by name, leaf scores not of the slots' shape, or not positive and finite.

    Valid scores pass one comparison chain: a NaN fails it.  A zero leaf could
    be drawn, as a node's ulps of drift past its children's sum can carry the
    top offsets past the last positive leaf."""
    if np.shape(values) != np.shape(slots):
        raise ValueError(
            f"scores of shape {np.shape(values)} do not align with slots of shape {np.shape(slots)}"
        )
    values = np.asarray(values, dtype=np.float64)
    if not 0.0 < values.min(initial=1.0) <= values.max(initial=1.0) < math.inf:
        check_finite_non_negative(values, slots, "score")
        i = np.argmin(values.ravel())  # all finite and >= 0: the first zero
        raise ValueError(
            f"score for slot {np.ravel(slots)[i]} must be positive, got {values.ravel()[i]}"
        )


class WeightedStore(TrajectoryBatch):
    """One trajectory row per slot plus a sum-tree score index; single-writer.

    One counter places every trajectory, so the filled rows are ``range(occupancy)``.
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
        self.writes = 0  # trajectories written; the next goes to slot writes % capacity

    @property
    def occupancy(self) -> int:
        """Slots holding a trajectory, ``min(writes, capacity)``."""
        return min(self.writes, self.capacity)

    def draw(self, batch: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """One replay draw: ``(slots, drawn, p)`` for ``batch`` mixture draws.

        ``slots`` are the distinct slots drawn, sorted; ``slots[drawn]`` are
        the draws in order; ``p`` is each slot's mixture probability.
        """
        draws = self.sample_mixture(batch, rng)
        if batch > SET_DEDUP_MAX:
            slots, drawn = np.unique(draws, return_inverse=True)
        else:
            slots = np.array(sorted(set(draws.tolist())), dtype=np.int64)
            drawn = slots.searchsorted(draws)
        return slots, drawn, self.probabilities(slots)

    def update_scores(self, sampler: SamplerState, slots, d, p_used) -> None:
        """Feed back the losses ``d`` of ``slots`` drawn with ``p_used``; refresh their leaves.

        ``sampler.record_feedback`` checks the slots (distinct, in range) and
        the losses before anything is written; the slots' order is the order
        of the index's additions.
        """
        sampler.record_feedback(slots, d, p_used)
        self._write_leaves(slots, sampler.scores(slots))

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
        if self.writes < self.capacity:
            raise NotReadyError(
                f"buffer holds {self.occupancy}/{self.capacity} trajectories; warm up first"
            )
        uniform = rng.random(batch) < self.kappa
        n_uniform = np.count_nonzero(uniform)  # a third of ``uniform.sum()``'s cost
        if not n_uniform:  # every td_priority draw: no mask to build or assign through
            return self.tree.sample(rng.random(batch) * self.tree.total)
        out = np.empty(batch, dtype=np.int64)
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
        """Assign index scores, checked; with ``rebuild_index``, the only public writer of leaves.

        A repeated or out-of-range slot, ``values`` not of the slots' shape,
        and a score that is not positive or not finite are rejected by name
        before anything is written.  ``fill`` and ``insert`` check a score
        they are given before their first write, and ``update_scores``,
        whose feedback call has checked its slots and losses, writes the
        fresh ``sqrt(w + nu)``: each writes through ``_write_leaves``
        without a second check.  An int slot (Python or numpy), or a
        one-slot array, takes the scalar ``SumTree.set`` path, several times
        cheaper than a one-leaf ``set_many`` and bit-identical to it.
        """
        check_slots(slots, self.capacity)
        _check_scores(slots, values)
        self._write_leaves(slots, values)

    def _write_leaves(self, slots, values) -> None:
        if isinstance(slots, (int, np.integer)):
            self.tree.set(int(slots), values)
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
        """Store ``trajs`` in the free slots from ``writes`` on, as an ``insert`` each would.

        The rows are written in bulk, the counter advanced past them, their
        accumulators zeroed, and ``scores`` (checked first: positive, finite)
        or fresh ``sqrt(nu)`` written in one leaf write, whose ancestors get
        the additions, in leaf order, of one ``insert`` per trajectory.
        """
        free = self.capacity - self.occupancy
        if len(trajs) > free:
            raise ValueError(f"{len(trajs)} trajectories do not fit {free} free slots")
        lo = self.writes
        slots = np.arange(lo, lo + len(trajs))
        if scores is not None:
            _check_scores(slots, scores)
        self._write_rows(lo, trajs)
        self.writes += len(trajs)
        sampler.clear(slots)
        self._write_leaves(slots, sampler.scores(slots) if scores is None else scores)

    def insert(self, traj: Episode, sampler: SamplerState, *, score: float | None = None) -> int:
        """Store a trajectory in slot ``writes % capacity``, advance the counter, return the slot.

        The slot is free while the store fills and the oldest once it is full.
        A given ``score`` is checked (positive, finite) before the first write;
        the slot's accumulator is zeroed and its leaf set, in one write, to
        ``score`` or a fresh accumulator's ``sqrt(nu)``.
        """
        slot = self.writes % self.capacity
        if score is not None:
            _check_scores(slot, score)
        self.write(slot, traj)
        self.writes += 1
        sampler.clear(slot)
        self._write_leaves(slot, sampler.scores(slot) if score is None else score)
        return slot
