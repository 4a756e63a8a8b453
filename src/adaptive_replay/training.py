"""Tabular policy-gradient training over the weighted replay buffer.

One loop over updates runs every mode.  Each update draws its slots in one
store call (``WeightedStore.draw``) and takes one bias-corrected replay
gradient step (plain gradient ascent on the logits); after every
``updates_per_episode``-th update a fresh episode overwrites the oldest
slot.  The modes differ only in their resolved sampler and slot scores:

``adaptive``
    Each update samples under the learned FTRL distribution and feeds the
    realized squared-gradient losses back into the accumulators in one call
    (``WeightedStore.update_scores``), resetting them every ``reset_period``
    updates.  The feedback is ``d / p`` once per distinct slot of the
    ``batch_size`` draws, so a slot's expected gain per update is
    ``d * (1 - (1 - p)^B) / p``: ``d`` only at ``B = 1``, about ``B * d``
    for small ``p`` and less for large ``p``.
``adaptive_epoch``
    ``adaptive`` with a hard reset at each collection: its resolved sampler
    zeroes the accumulators every ``updates_per_episode`` updates, just
    before that update's episode is collected.  The per-episode update count
    must stay below ``buffer_capacity / batch_size``.
``uniform``
    The ``adaptive`` schedule with the uniform-mixing coefficient forced to
    1, which fixes the sampling distribution to uniform throughout.
``td_priority``
    Proportional prioritization by summed absolute one-step TD errors under
    a tabular value function learned alongside, with the standard 0.6
    exponent; the same inverse-probability correction keeps the gradient
    unbiased.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .envs import TabularEnv
from .gradients import paired_gradient_variance, replay_gradient, trajectory_gradients
from .policies import TabularSoftmaxPolicy
from .sampler import SamplerConfig, SamplerState
from .store import WeightedStore

MODES = ("uniform", "td_priority", "adaptive", "adaptive_epoch")

# Warm-up episodes written to the store per ``fill`` call.  A block keeps its
# episodes alive until ``fill``, and each rollout adds about 5.4 to the count
# of CPython's young generation (its ``Episode`` and five lists, net of the
# temporaries it frees), whose default threshold is 700: a block past about
# 130 episodes sets off a collection at every block, each one scanning the
# block.  Below that cliff a smaller block costs only ``fill``'s fixed ~40 us
# more.  65,000-slot bandit warm-up through the benchmark's rollout wrapper
# (CPU time, median of 15 interleaved runs, 2-vCPU VM, Python 3.11): blocks
# of 64 0.331 s, 80 0.321, 96 0.317, 112 0.314, 128 0.311 (2 collections),
# 136 0.354 (477 collections), 144 0.346 (451); blocks of 256 set off 507.
# 96 stays about 35 episodes below the cliff, within 2% of the best.  The
# bound also keeps small what a block holds and the flush after the last
# rollout (one block of all 65,000 raised peak RSS by 52 MB).  The process's
# GC settings are left as they are.
FILL_BLOCK = 96


@dataclass
class TrainingConfig:
    total_steps: int
    batch_size: int
    buffer_capacity: int
    learning_rate: float = 0.05
    selection_mode: str = "adaptive"
    seed: int = 0
    warmup_episodes: int | None = None
    updates_per_episode: int = 1
    sampler: SamplerConfig | None = None
    eval_every: int = 100
    eval_episodes: int = 20
    probe_every: int = 0
    probe_repeats: int = 200

    def __post_init__(self) -> None:
        if self.selection_mode not in MODES:
            raise ValueError(f"selection_mode must be one of {MODES}, got {self.selection_mode!r}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if not 1 <= self.batch_size <= self.buffer_capacity:
            raise ValueError("batch_size must lie in [1, buffer_capacity]")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be a positive finite real, got {self.learning_rate}")
        if self.updates_per_episode < 1:
            raise ValueError("updates_per_episode must be >= 1")
        if self.selection_mode == "adaptive_epoch" and (
            self.updates_per_episode >= self.buffer_capacity / self.batch_size
        ):
            raise ValueError(
                "updates_per_episode must be < buffer_capacity / batch_size in adaptive_epoch mode"
            )
        if self.warmup_episodes is not None and self.warmup_episodes < self.buffer_capacity:
            raise ValueError("warmup must fill the buffer: warmup_episodes >= buffer_capacity")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if self.probe_repeats < 2:
            raise ValueError("probe_repeats must be >= 2")
        if self.probe_every < 0:
            raise ValueError("probe_every must be >= 0")
        if self.probe_every and self.probe_every % self.eval_every != 0:
            raise ValueError("probe_every must be a multiple of eval_every")
        if self.sampler is not None and self.sampler.capacity != self.buffer_capacity:
            raise ValueError("sampler capacity must match buffer_capacity")

    def resolved_sampler(self) -> SamplerConfig:
        """The sampler config the run uses, the one place a mode changes it: ``uniform``
        mixes fully, ``td_priority`` not at all; ``adaptive_epoch`` resets hard at
        each collection, every ``updates_per_episode`` updates."""
        base = self.sampler or SamplerConfig(capacity=self.buffer_capacity)
        changes = {"uniform": {"kappa": 1.0}, "td_priority": {"kappa": 0.0},
                   "adaptive_epoch": {"reset_mode": "hard", "reset_period": self.updates_per_episode}}
        return replace(base, **changes.get(self.selection_mode, {}))

    def hash(self, env_name: str) -> str:
        payload = {"env": env_name, **asdict(self)}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:12]


@dataclass
class TrainingTrace:
    """Evaluation-point series for one training run."""

    seed: int
    mode: str
    env_name: str
    config_hash: str
    steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    returns: np.ndarray = field(default_factory=lambda: np.empty(0))
    probes: np.ndarray = field(default_factory=lambda: np.empty(0))
    probes_uniform: np.ndarray = field(default_factory=lambda: np.empty(0))
    entropies: np.ndarray = field(default_factory=lambda: np.empty(0))
    reset_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    # Importance ratios clamped at ``RATIO_LOG_CAP`` by this run's policy updates.
    ratio_cap_hits: int = 0

    @property
    def final_return(self) -> float:
        return float(self.returns[-1])

    def probe_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(own-distribution, uniform) variance probe pairs, probes-only rows.

        Both sides of each pair are measured on the same frozen policy and
        buffer with a shared random stream, so they differ only through the
        sampling distribution.
        """
        mask = ~np.isnan(self.probes)
        return self.probes[mask], self.probes_uniform[mask]


class _AccumulatorStrategy:
    """FTRL accumulators drive the sampling scores; used by the
    adaptive modes and (with full uniform mixing) the uniform baseline.  A
    strategy's ``scores(episodes)`` are the leaf scores of fresh slots
    (``None``: the store's fresh-accumulator default)."""

    def __init__(self, sampler: SamplerState, store: WeightedStore):
        self.sampler = sampler
        self.store = store

    def scores(self, episodes) -> None:
        return None

    def after_update(self, unique_slots, d, p_used) -> None:
        self.store.update_scores(self.sampler, unique_slots, d, p_used)
        if self.sampler.maybe_reset():
            self.store.rebuild_index(self.sampler)


class _TDPriorityStrategy:
    """Proportional prioritization by summed |one-step TD error| per trajectory:
    leaves hold ``(priority + eps) ** exponent``, sampled with no uniform mixing.

    The env is read once, here: the discount and the terminal flags are kept,
    with the values, as Python floats and lists, so a sweep makes no call on
    the env (a delegating wrapper's ``__getattr__`` each) and no numpy-scalar
    arithmetic.  Python floats are IEEE doubles, as float64 scalars are, so
    the values and priorities keep their bits."""

    exponent = 0.6
    eps = 1e-6

    def __init__(self, store: WeightedStore, env: TabularEnv, learning_rate: float):
        self.store = store
        self.gamma = float(env.gamma)
        self.terminal = env.terminal.tolist()
        self.values = [0.0] * env.n_states
        self.learning_rate = learning_rate

    def _scores(self, priorities: list[float]) -> np.ndarray:
        return (np.array(priorities) + self.eps) ** self.exponent

    def _sweep(self, states, rewards, next_states, learn: bool) -> float:
        gamma, terminal, values, lr = self.gamma, self.terminal, self.values, self.learning_rate
        total = 0.0
        for s, r, s_next in zip(states, rewards, next_states):
            bootstrap = 0.0 if terminal[s_next] else values[s_next]
            delta = r + gamma * bootstrap - values[s]
            if learn:
                values[s] += lr * delta
            total += abs(delta)
        return total

    def scores(self, episodes) -> np.ndarray:
        # A sweep without learning does not depend on the slot, so a fresh
        # episode's score is known before it is written.
        return self._scores(
            [self._sweep(e.states, e.rewards, e.next_states, learn=False) for e in episodes]
        )

    def after_update(self, unique_slots, d, p_used) -> None:
        store = self.store
        slots = np.asarray(unique_slots, dtype=np.int64)
        rows = zip(
            store.states[slots].tolist(),
            store.rewards[slots].tolist(),
            store.next_states[slots].tolist(),
            store.lengths[slots].tolist(),
        )
        priorities = [
            self._sweep(states[:n], rewards[:n], next_states[:n], learn=True)
            for states, rewards, next_states, n in rows
        ]
        store.set_scores(slots, self._scores(priorities))


def run_training(env: TabularEnv, config: TrainingConfig) -> TrainingTrace:
    """Train a tabular softmax policy on ``env`` under the configured mode."""
    state = _LoopState(env, config)
    state.fill_buffer()
    # Warm-up episodes past the capacity already evict, one insert each.
    for _ in range((config.warmup_episodes or config.buffer_capacity) - config.buffer_capacity):
        state.collect_episode()
    for t in range(1, config.total_steps + 1):
        state.update_policy()
        if t % config.updates_per_episode == 0:
            state.collect_episode()
        state.maybe_eval(t)
    state.flush_rows()
    return state.trace


class _LoopState:
    """One run's parts and phases; the only writer of episodes to the store."""

    def __init__(self, env: TabularEnv, config: TrainingConfig):
        self.rng, self.eval_rng, self.probe_rng = (
            np.random.default_rng(ss) for ss in np.random.SeedSequence(config.seed).spawn(3)
        )
        # After this, the loop calls only ``rollout`` and ``evaluate`` on the env.
        self.env = env
        self.gamma = env.gamma
        self.config = config
        self.policy = TabularSoftmaxPolicy(env.n_states, env.n_actions)
        self.sampler = SamplerState(config.resolved_sampler())
        mode = config.selection_mode
        self.store = WeightedStore(config.buffer_capacity, self.sampler.config.kappa)
        if mode == "td_priority":
            self.strategy = _TDPriorityStrategy(self.store, env, config.learning_rate)
        else:
            self.strategy = _AccumulatorStrategy(self.sampler, self.store)
        self.trace = TrainingTrace(
            seed=config.seed, mode=mode, env_name=env.name, config_hash=config.hash(env.name)
        )
        self.env_steps = 0
        self._rows: list[tuple] = []

    def fill_buffer(self) -> None:
        """Roll out one episode per slot, writing them to the store a block at a time."""
        capacity = self.store.capacity
        rollout, policy, rng = self.env.rollout, self.policy, self.rng
        for lo in range(0, capacity, FILL_BLOCK):
            block = [rollout(policy, rng) for _ in range(min(FILL_BLOCK, capacity - lo))]
            self.store.fill(block, self.sampler, self.strategy.scores(block))
        self.env_steps += int(self.store.lengths.sum())  # every slot written once, just now

    def collect_episode(self) -> None:
        episode = self.env.rollout(self.policy, self.rng)
        self.env_steps += len(episode)
        scores = self.strategy.scores([episode])
        score = None if scores is None else float(scores[0])
        self.store.insert(episode, self.sampler, score=score)

    def update_policy(self) -> None:
        cfg = self.config
        unique, drawn, p_unique = self.store.draw(cfg.batch_size, self.rng)
        grads = trajectory_gradients(self.store.take(unique), self.policy, self.gamma)
        self.trace.ratio_cap_hits += grads.cap_hits
        grad = replay_gradient(grads.omega, grads.g, p_unique, self.store.capacity, drawn)
        self.policy.set_params(self.policy.get_params() + cfg.learning_rate * grad)
        self.strategy.after_update(unique, grads.d, p_unique)

    def record_eval(self, update_index: int) -> None:
        cfg = self.config
        test_return = self.env.evaluate(self.policy, cfg.eval_episodes, self.eval_rng)
        n = self.store.capacity
        p = self.store.probabilities(np.arange(n))
        probe = probe_uniform = np.nan
        if cfg.probe_every and update_index % cfg.probe_every == 0:
            seed = self.probe_rng.integers(2**63)
            grads = trajectory_gradients(self.store, self.policy, self.gamma)
            probe, probe_uniform = paired_gradient_variance(
                grads, p, cfg.batch_size, cfg.probe_repeats, seed
            )
        entropy = float(-(p * np.log(p)).sum())
        self._rows.append(
            (self.env_steps, test_return, probe, probe_uniform, entropy, self.sampler.resets)
        )

    def maybe_eval(self, update_index: int) -> None:
        if update_index % self.config.eval_every == 0 or update_index == self.config.total_steps:
            self.record_eval(update_index)

    def flush_rows(self) -> None:
        rows = self._rows
        self.trace.steps = np.array([r[0] for r in rows], dtype=np.int64)
        self.trace.returns = np.array([r[1] for r in rows])
        self.trace.probes = np.array([r[2] for r in rows])
        self.trace.probes_uniform = np.array([r[3] for r in rows])
        self.trace.entropies = np.array([r[4] for r in rows])
        self.trace.reset_counts = np.array([r[5] for r in rows], dtype=np.int64)
