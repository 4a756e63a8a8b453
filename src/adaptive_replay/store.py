"""Replay buffer of whole trajectories with weighted sampling and complement eviction.

The store keeps one trajectory per slot and a sum-tree index over per-slot
scores ``sqrt(w(i) + nu)``, so sampling under the mixed FTRL distribution and
score maintenance both cost O(log capacity), and ``p(i)`` is read from the
index as ``(1 - kappa) * leaf(i) / total + kappa / n``.  When the buffer is
full, a new trajectory overwrites a victim slot drawn from the complement
``q(j) = (1 - p(j)) / (capacity - 1)``, by rejection under the ceiling
``1 - kappa / n >= 1 - p(j)``, so each proposal reads only its own ``p(j)``:
slots the sampler values least are evicted first.  The evicted slot's
accumulator is zeroed, since the fresh trajectory has no feedback history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .sampler import SamplerConfig, SamplerState
from .sumtree import SumTree

SNAPSHOT_VERSION = 1


class NotReadyError(RuntimeError):
    """Operation requires a warmed-up (full) buffer."""


@dataclass
class Trajectory:
    """Fixed-horizon rollout: parallel per-step arrays plus the generating policy tag.

    ``behavior_probs[t]`` is the probability the generating policy assigned to
    ``actions[t]`` in ``states[t]``; it is what importance ratios divide by,
    so it must be positive.  ``policy_tag`` identifies the policy-update step
    that produced the rollout.
    """

    states: np.ndarray
    actions: np.ndarray
    behavior_probs: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    policy_tag: int = 0

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states)
        self.actions = np.asarray(self.actions)
        self.behavior_probs = np.asarray(self.behavior_probs, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.next_states = np.asarray(self.next_states)
        n = len(self.states)
        if n < 1:
            raise ValueError("trajectory must contain at least one step")
        for name in ("actions", "behavior_probs", "rewards", "next_states"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match states length {n}")
        if np.any(self.behavior_probs <= 0) or np.any(self.behavior_probs > 1):
            raise ValueError("behavior probabilities must lie in (0, 1]")

    def __len__(self) -> int:
        return len(self.states)


class WeightedStore:
    """Slot array plus sum-tree score index; single-writer."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.slots: list[Trajectory | None] = [None] * self.capacity
        self.tree = SumTree(self.capacity)
        self.occupancy = 0

    @property
    def warmed_up(self) -> bool:
        return self.occupancy == self.capacity

    def update_scores(self, sampler: SamplerState, slots: np.ndarray | None = None) -> None:
        """Refresh index scores ``sqrt(w + nu)`` for the given slots (all if None)."""
        if slots is None:
            self.rebuild_index(sampler)
            return
        slots = np.unique(np.asarray(slots, dtype=np.int64))
        self.tree.set_many(slots, np.sqrt(sampler.w[slots] + sampler.config.nu))

    def rebuild_index(self, sampler: SamplerState) -> None:
        """Recompute the whole index from the accumulators; exact, O(capacity)."""
        self.tree.rebuild(np.sqrt(sampler.w + sampler.config.nu))

    def sample_indices(
        self, sampler: SamplerState, batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``batch`` slot indices i.i.d. (with replacement) from the mixture.

        Each draw is uniform with probability ``kappa`` and proportional to
        the index scores otherwise, which is exactly the sampler's current
        distribution as long as the scores are in sync.
        """
        return self.sample_mixture(sampler.config.kappa, batch, rng)

    def sample_mixture(self, kappa: float, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Mixture sampling from the current index scores with uniform weight ``kappa``."""
        if batch == 0:
            return np.empty(0, dtype=np.int64)
        if not self.warmed_up:
            raise NotReadyError(
                f"buffer holds {self.occupancy}/{self.capacity} trajectories; warm up first"
            )
        out = np.empty(batch, dtype=np.int64)
        uniform = rng.random(batch) < kappa
        n_uniform = int(uniform.sum())
        if n_uniform:
            out[uniform] = rng.integers(0, self.capacity, n_uniform)
        n_prop = batch - n_uniform
        if n_prop:
            out[~uniform] = self.tree.sample(rng.random(n_prop) * self.tree.total)
        return out

    def probabilities(self, slots: np.ndarray, kappa: float) -> np.ndarray:
        """Mixture probabilities of ``slots`` from the index, in O(len(slots))."""
        return (1.0 - kappa) * self.tree.get(slots) / self.tree.total + kappa / self.capacity

    def set_scores(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Directly assign index scores for strategies that do not use the accumulators."""
        self.tree.set_many(np.asarray(slots, dtype=np.int64), values)

    def insert(
        self,
        traj: Trajectory,
        sampler: SamplerState,
        rng: np.random.Generator,
        kappa: float | None = None,
    ) -> int:
        """Store a trajectory, evicting by complement probability when full.

        During the fill phase slots are assigned sequentially.  Once full, the
        victim is drawn from ``q(j) = (1 - p(j)) / (capacity - 1)`` with ``p``
        the index's mixture with uniform weight ``kappa`` (the sampler's
        ``kappa`` when not given).  The victim's accumulator is reset to zero
        and its index score refreshed.  Returns the slot written.
        """
        if self.occupancy < self.capacity:
            slot = self.occupancy
            self.occupancy += 1
        elif self.capacity == 1:
            slot = 0
        else:
            slot = self._sample_victim(sampler.config.kappa if kappa is None else kappa, rng)
        self.slots[slot] = traj
        sampler.w[slot] = 0.0
        self.tree.set(slot, float(np.sqrt(sampler.config.nu)))
        return slot

    def _sample_victim(self, kappa: float, rng: np.random.Generator) -> int:
        # Rejection sampling from q ~ (1 - p): propose uniformly, accept with
        # probability (1 - p(j)) / (1 - kappa/n).  The mean acceptance is
        # (1 - 1/n) / (1 - kappa/n) >= 1/2 for n >= 2, so the loop ends.
        ceiling = 1.0 - kappa / self.capacity
        while True:
            j = int(rng.integers(0, self.capacity))
            if rng.random() * ceiling < 1.0 - self.probabilities(j, kappa):
                return j

    def trajectories(self) -> list[Trajectory]:
        """Filled slots in slot order."""
        return [t for t in self.slots if t is not None]


def save_snapshot(path, store: WeightedStore, sampler: SamplerState) -> None:
    """Write a self-describing buffer snapshot for experiment resume.

    Compressed npz with a ``format_version`` field.  Per-slot trajectory
    arrays are concatenated in slot order with ``lengths`` giving the split
    points; field order is states, actions, behavior_probs, rewards,
    next_states, policy_tags.  Sampler accumulators, step counter and config
    ride along so the pair can be restored exactly.
    """
    trajs = store.trajectories()
    if len(trajs) != store.occupancy:
        raise ValueError("snapshot requires contiguously filled slots")
    lengths = np.array([len(t) for t in trajs], dtype=np.int64)
    config = dict(sampler.config.__dict__)
    np.savez_compressed(
        path,
        format_version=np.int64(SNAPSHOT_VERSION),
        capacity=np.int64(store.capacity),
        occupancy=np.int64(store.occupancy),
        w=sampler.w,
        step=np.int64(sampler.step),
        config_json=np.bytes_(json.dumps(config).encode()),
        lengths=lengths,
        states=_concat([t.states for t in trajs]),
        actions=_concat([t.actions for t in trajs]),
        behavior_probs=_concat([t.behavior_probs for t in trajs]),
        rewards=_concat([t.rewards for t in trajs]),
        next_states=_concat([t.next_states for t in trajs]),
        policy_tags=np.array([t.policy_tag for t in trajs], dtype=np.int64),
    )


def load_snapshot(path) -> tuple[WeightedStore, SamplerState]:
    """Restore a (store, sampler) pair written by :func:`save_snapshot`."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        config = SamplerConfig(**json.loads(bytes(data["config_json"]).decode()))
        sampler = SamplerState(config, w=data["w"])
        sampler.step = int(data["step"])
        store = WeightedStore(int(data["capacity"]))
        offsets = np.concatenate([[0], np.cumsum(data["lengths"])])
        for i in range(int(data["occupancy"])):
            lo, hi = offsets[i], offsets[i + 1]
            traj = Trajectory(
                states=data["states"][lo:hi],
                actions=data["actions"][lo:hi],
                behavior_probs=data["behavior_probs"][lo:hi],
                rewards=data["rewards"][lo:hi],
                next_states=data["next_states"][lo:hi],
                policy_tag=int(data["policy_tags"][i]),
            )
            store.insert(traj, sampler, rng=np.random.default_rng(0))
        sampler.w = np.asarray(data["w"], dtype=np.float64).copy()
        store.rebuild_index(sampler)
    return store, sampler


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    if not arrays:
        return np.empty(0)
    return np.concatenate([np.asarray(a) for a in arrays])
