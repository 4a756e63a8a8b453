"""Small finite-horizon tabular MDPs with exact value computation.

All environments share one representation: a transition tensor, a bounded
reward table, a set of absorbing terminal states, and a fixed horizon.
Episodes stop on entering a terminal state or after ``horizon`` steps,
whichever comes first, so trajectories have between 1 and ``horizon`` steps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .gradients import trajectory_return
from .policies import cdf_rows
from .store import Episode

_EXACT_SIZE_CAP = 100
_EXACT_HORIZON_CAP = 16


@dataclass
class TabularEnv:
    name: str
    transitions: np.ndarray  # (S, A, S) row-stochastic
    rewards: np.ndarray  # (S, A), bounded by reward_bound
    terminal: np.ndarray  # (S,) bool
    start_state: int
    horizon: int
    gamma: float = 0.99
    start_dist: np.ndarray | None = None  # defaults to a point mass on start_state
    deterministic: bool = field(init=False, default=False)
    # Per-step lookups as Python lists, built once from the fields above,
    # which stay fixed after construction.
    _terminal: list = field(init=False, repr=False)
    _reward_rows: list = field(init=False, repr=False)
    _next_table: list | None = field(init=False, default=None, repr=False)
    _transition_cdfs: list = field(init=False, repr=False)
    _start_cdf: list | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.terminal = np.asarray(self.terminal, dtype=bool)
        shape = self.transitions.shape
        if len(shape) != 3 or shape[2] != shape[0]:
            raise ValueError(f"transitions must have shape (S, A, S), got {shape}")
        tables = {"rewards": shape[:2], "terminal": shape[:1]}
        if self.start_dist is not None:
            self.start_dist = np.asarray(self.start_dist, dtype=np.float64)
            tables["start_dist"] = shape[:1]
        for name, expected in tables.items():
            if (got := getattr(self, name).shape) != expected:
                raise ValueError(f"{name} must have shape {expected}, got {got}")
        if not 0 <= self.start_state < shape[0]:
            raise ValueError(f"start_state must lie in [0, {shape[0]}), got {self.start_state}")
        if not np.isfinite(self.rewards).all():
            raise ValueError("rewards must be finite")
        if np.any(self.transitions < 0):
            raise ValueError("transition probabilities must be non-negative")
        if not np.allclose(self.transitions.sum(axis=2), 1.0, atol=1e-12):
            raise ValueError("transition rows must sum to 1")
        if self.terminal[self.start_state]:
            raise ValueError("start state cannot be terminal")
        if self.start_dist is not None:
            if np.any(self.start_dist < 0):
                raise ValueError("start distribution must be non-negative")
            if not np.isclose(self.start_dist.sum(), 1.0, atol=1e-12):
                raise ValueError("start distribution must sum to 1")
            if np.any(self.start_dist[self.terminal] > 0):
                raise ValueError("start distribution must not touch terminal states")
            self._start_cdf = cdf_rows(self.start_dist)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        one_hot = self.transitions == 1.0
        self.deterministic = bool(np.all(one_hot.sum(axis=2) == 1))
        if self.deterministic:
            self._next_table = np.argmax(self.transitions, axis=2).tolist()
        self._transition_cdfs = cdf_rows(self.transitions)
        self._terminal = self.terminal.tolist()
        self._reward_rows = self.rewards.tolist()

    def draw_start(self, rng: np.random.Generator) -> int:
        if self._start_cdf is None:
            return self.start_state
        return bisect_right(self._start_cdf, rng.random())

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def reward_bound(self) -> float:
        """Tight bound on |r(s, a)| over the whole table."""
        return float(np.max(np.abs(self.rewards)))

    def step(self, state: int, action: int, rng: np.random.Generator) -> tuple[int, float]:
        reward = self._reward_rows[state][action]
        if self.deterministic:
            return self._next_table[state][action], reward
        return bisect_right(self._transition_cdfs[state][action], rng.random()), reward

    def rollout(
        self,
        policy,
        rng: np.random.Generator,
        greedy: bool = False,
    ) -> Episode:
        """Run one episode; stops at a terminal state or at the horizon.

        The steps come back as the five lists they were collected in, which
        ``TrajectoryBatch.write`` assigns into a store row as they are.

        Actions come from the policy's cached tables: the greedy action, or
        ``bisect_right(cdfs[s], rng.random())``.  Start states and
        stochastic transitions are drawn the same way, by inverse CDF; each
        such draw takes one ``rng.random()`` and picks the index
        ``rng.choice(n, p=row)`` would pick from it.
        """
        table = policy.tables()
        terminal, random = self._terminal, rng.random
        states, actions, probs, rewards, next_states = [], [], [], [], []
        s = self.draw_start(rng)
        for _ in range(self.horizon):
            if terminal[s]:
                break
            a = table.greedy[s] if greedy else bisect_right(table.cdfs[s], random())
            s_next, r = self.step(s, a, rng)
            states.append(s)
            actions.append(a)
            probs.append(table.prob_rows[s][a])
            rewards.append(r)
            next_states.append(s_next)
            s = s_next
        return Episode(states, actions, probs, rewards, next_states)

    def evaluate(self, policy, episodes: int, rng: np.random.Generator) -> float:
        """Mean discounted return over greedy-action evaluation episodes."""
        total = 0.0
        for _ in range(episodes):
            total += trajectory_return(self.rollout(policy, rng, greedy=True), self.gamma)
        return total / episodes


def _check_exact_size(env: TabularEnv) -> None:
    if env.n_states * env.n_actions > _EXACT_SIZE_CAP:
        raise ValueError(
            f"exact computation refused: {env.n_states}x{env.n_actions} exceeds "
            f"{_EXACT_SIZE_CAP} state-action pairs"
        )
    if env.horizon > _EXACT_HORIZON_CAP:
        raise ValueError(f"exact computation refused: horizon {env.horizon} exceeds cap")


def _start_average(env: TabularEnv, value: np.ndarray) -> float:
    if env.start_dist is None:
        return float(value[env.start_state])
    return float(env.start_dist @ value)


def _backward_induction(env: TabularEnv, state_value) -> float:
    """Start value after ``horizon`` backups; ``state_value(s, q)`` combines state
    ``s``'s action values ``q`` into its value."""
    value = np.zeros(env.n_states)
    for _ in range(env.horizon):
        step_value = np.zeros(env.n_states)
        for s in range(env.n_states):
            if env.terminal[s]:
                continue
            step_value[s] = state_value(s, env.rewards[s] + env.gamma * env.transitions[s] @ value)
        value = step_value
    return _start_average(env, value)


def exact_policy_value(env: TabularEnv, policy) -> float:
    """Expected discounted return of a stochastic policy, by backward induction."""
    _check_exact_size(env)
    probs = policy.prob_table()
    return _backward_induction(env, lambda s, q: probs[s] @ q)


def optimal_value(env: TabularEnv) -> float:
    """Best achievable expected discounted return, by finite-horizon value iteration."""
    _check_exact_size(env)
    return _backward_induction(env, lambda s, q: np.max(q))


def chain_env(n_states: int = 5, horizon: int = 8, gamma: float = 0.99) -> TabularEnv:
    """Deterministic left/right chain; +1 for entering the rightmost (terminal) state."""
    n_actions = 2
    transitions = np.zeros((n_states, n_actions, n_states))
    rewards = np.zeros((n_states, n_actions))
    for s in range(n_states):
        transitions[s, 0, max(s - 1, 0)] = 1.0
        right = min(s + 1, n_states - 1)
        transitions[s, 1, right] = 1.0
        if right == n_states - 1 and s != n_states - 1:
            rewards[s, 1] = 1.0
    terminal = np.zeros(n_states, dtype=bool)
    terminal[n_states - 1] = True
    return TabularEnv(
        name=f"chain{n_states}",
        transitions=transitions,
        rewards=rewards,
        terminal=terminal,
        start_state=0,
        horizon=horizon,
        gamma=gamma,
    )


def gridworld_env(
    rows: int = 4,
    cols: int = 4,
    goal: tuple[int, int] | None = None,
    traps: tuple[tuple[int, int], ...] = ((1, 2),),
    horizon: int = 12,
    gamma: float = 0.99,
    step_cost: float = 0.02,
    exploring_starts: bool = True,
) -> TabularEnv:
    """Deterministic gridworld: +1 for entering the goal, -1 for entering a trap,
    minus a small per-move cost so every trajectory carries gradient signal.

    Actions are up/down/left/right; moves off the grid leave the state
    unchanged.  Goal and traps are terminal.  With ``exploring_starts``
    episodes begin uniformly over the non-terminal cells, the standard remedy
    for sparse coverage in tabular policy-gradient training.
    """
    if goal is None:
        goal = (rows - 1, cols - 1)
    for r, c in (goal, *traps):
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"cell ({r}, {c}) is outside the {rows}x{cols} grid")
    n_states = rows * cols
    moves = ((-1, 0), (1, 0), (0, -1), (0, 1))
    goal_s = goal[0] * cols + goal[1]
    trap_s = {r * cols + c for r, c in traps}
    transitions = np.zeros((n_states, len(moves), n_states))
    rewards = np.full((n_states, len(moves)), -step_cost)
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            for a, (dr, dc) in enumerate(moves):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    nr, nc = r, c
                ns = nr * cols + nc
                transitions[s, a, ns] = 1.0
                if ns == goal_s and ns != s:
                    rewards[s, a] = 1.0
                elif ns in trap_s and ns != s:
                    rewards[s, a] = -1.0
    terminal = np.zeros(n_states, dtype=bool)
    terminal[goal_s] = True
    for s in trap_s:
        terminal[s] = True
    start_dist = None
    if exploring_starts:
        start_dist = (~terminal).astype(np.float64)
        start_dist /= start_dist.sum()
    return TabularEnv(
        name=f"gridworld{rows}x{cols}",
        transitions=transitions,
        rewards=rewards,
        terminal=terminal,
        start_state=0,
        horizon=horizon,
        gamma=gamma,
        start_dist=start_dist,
    )


def two_state_bandit_env(
    rewards: tuple[float, float] = (1.0, 0.0), horizon: int = 1, gamma: float = 0.99
) -> TabularEnv:
    """One decision state, two actions with fixed rewards, then an absorbing state."""
    transitions = np.zeros((2, 2, 2))
    transitions[:, :, 1] = 1.0
    reward_table = np.zeros((2, 2))
    reward_table[0] = rewards
    terminal = np.array([False, True])
    return TabularEnv(
        name="two_state_bandit",
        transitions=transitions,
        rewards=reward_table,
        terminal=terminal,
        start_state=0,
        horizon=horizon,
        gamma=gamma,
    )


ENVIRONMENTS = {
    "chain5": lambda: chain_env(5),
    "gridworld4x4": lambda: gridworld_env(4, 4),
    "two_state_bandit": lambda: two_state_bandit_env(),
}
