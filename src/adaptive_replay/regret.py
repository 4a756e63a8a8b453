"""Closed-form competitor distributions, regret accounting, and bound checks.

For per-step losses ``f_t(p) = sum_i d_t(i) / p(i)`` the best per-step
simplex point is ``p_t*(i) ~ sqrt(d_t(i))`` at cost ``(sum_i sqrt(d_t(i)))^2``
(:func:`dynamic_competitor`, :func:`min_step_cost`).  The best fixed point
over a window is the same closed form applied to the summed losses
``sum_t d_t``; the static competitor, its cost and the ledger's prefix optima
all derive from those two functions.  Regret is reported normalized by the
squared slot count.  The closed forms are cross-checked in the test suite
against the generic simplex minimizer, which never shares code with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gradients import trajectory_gradients, variance_objective
from .sampler import SamplerConfig, SamplerState
from .store import Episode, TrajectoryBatch

SequenceGenerator = Callable[[np.random.Generator, int, int], np.ndarray]


def dynamic_competitor(d_row: np.ndarray) -> np.ndarray:
    """Best distribution for a single step: mass ~ sqrt of the per-slot losses
    (uniform when every loss is zero)."""
    d_row = np.asarray(d_row, dtype=np.float64)
    if d_row.ndim != 1:
        raise ValueError("expected a 1-d loss row")
    _validate_losses(d_row)
    roots = np.sqrt(d_row)
    total = roots.sum()
    if total == 0.0:
        return np.full(len(d_row), 1.0 / len(d_row))
    return roots / total


def static_competitor(d_matrix: np.ndarray) -> np.ndarray:
    """Best fixed distribution for a whole loss sequence: the dynamic competitor
    of the summed losses."""
    d_matrix = np.asarray(d_matrix, dtype=np.float64)
    if d_matrix.ndim != 2:
        raise ValueError("expected a (steps, slots) loss matrix")
    _validate_losses(d_matrix)
    return dynamic_competitor(d_matrix.sum(axis=0))


def min_step_cost(d: np.ndarray) -> np.ndarray:
    """min over p of each row's loss, ``(sum_i sqrt(d_t(i)))^2``; a 1-d row gives a scalar."""
    return np.sqrt(np.asarray(d, dtype=np.float64)).sum(axis=-1) ** 2


def _validate_losses(d: np.ndarray) -> None:
    if not np.all(np.isfinite(d)):
        raise ValueError("losses must be finite")
    if np.any(d < 0):
        raise ValueError("losses must be non-negative")


@dataclass
class RegretLedger:
    """Realized costs against both competitor benchmarks, with prefix series.

    ``regret_static_series[t]`` and ``regret_dynamic_series[t]`` are the
    cumulative regrets after step t (0-based), already normalized by
    ``capacity**2``; the scalars summarize the full horizon.
    """

    capacity: int
    realized: np.ndarray
    realized_cum: np.ndarray
    static_opt_cum: np.ndarray
    dynamic_opt_cum: np.ndarray

    @classmethod
    def from_sequence(cls, d_matrix: np.ndarray, realized: np.ndarray) -> "RegretLedger":
        d_matrix = np.asarray(d_matrix, dtype=np.float64)
        realized = np.asarray(realized, dtype=np.float64)
        steps, capacity = d_matrix.shape
        if realized.shape != (steps,):
            raise ValueError("realized costs must match the sequence length")
        return cls(
            capacity=capacity,
            realized=realized,
            realized_cum=np.cumsum(realized),
            static_opt_cum=min_step_cost(np.cumsum(d_matrix, axis=0)),
            dynamic_opt_cum=np.cumsum(min_step_cost(d_matrix)),
        )

    @property
    def steps(self) -> int:
        return len(self.realized)

    @property
    def regret_static_series(self) -> np.ndarray:
        return (self.realized_cum - self.static_opt_cum) / self.capacity**2

    @property
    def regret_dynamic_series(self) -> np.ndarray:
        return (self.realized_cum - self.dynamic_opt_cum) / self.capacity**2

    @property
    def cumulative_static(self) -> float:
        return float(self.regret_static_series[-1])

    @property
    def cumulative_dynamic(self) -> float:
        return float(self.regret_dynamic_series[-1])


def run_regret_experiment(
    sequence_generator: SequenceGenerator,
    sampler_config: SamplerConfig,
    T: int,
    seeds: Sequence[int],
    feedback: str = "bandit",
    batch: int = 8,
) -> list[RegretLedger]:
    """Run FTRL against a generated loss sequence, one ledger per seed.

    ``feedback="full"`` reveals the whole loss row each step; ``"bandit"``
    reveals only the sampled slots, weighted by inverse probability.  The
    sequence is generated from a stream independent of the learner's, so two
    learner configurations on the same seed face the identical sequence.
    """
    if feedback not in ("full", "bandit"):
        raise ValueError(f"unknown feedback mode {feedback!r}")
    n = sampler_config.capacity
    every_slot, certain = np.arange(n), np.ones(n)
    ledgers = []
    for seed in seeds:
        gen_stream, learner_stream = np.random.SeedSequence(int(seed)).spawn(2)
        d_matrix = sequence_generator(np.random.default_rng(gen_stream), T, n)
        _validate_losses(d_matrix)
        rng = np.random.default_rng(learner_stream)
        state = SamplerState(sampler_config)
        realized = np.empty(len(d_matrix))
        for t, row in enumerate(d_matrix):
            p = state.distribution()
            realized[t] = variance_objective(row, p)
            if feedback == "full":
                state.record_feedback(every_slot, row, certain)
            else:
                sampled = np.unique(rng.choice(n, size=batch, p=p))
                state.record_feedback(sampled, row[sampled], p[sampled])
            state.maybe_reset()
        ledgers.append(RegretLedger.from_sequence(d_matrix, realized))
    return ledgers


# --- loss sequence generators -------------------------------------------------

def stationary_sequence(low: float = 0.1, high: float = 10.0) -> SequenceGenerator:
    """One random loss row, repeated every step."""

    def generate(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
        return np.tile(rng.uniform(low, high, n), (T, 1))

    return generate


def scaled_noise_sequence(orders: float = 2.0) -> SequenceGenerator:
    """Bounded noisy rows with per-slot scales spread over ``orders`` decades."""

    def generate(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
        scales = 10.0 ** rng.uniform(0.0, orders, n)
        return scales * rng.uniform(0.0, 1.0, (T, n))

    return generate


def drifting_sequence(
    interval: int, n_replace: int, orders: float = 2.0, jitter: float = 0.5
) -> SequenceGenerator:
    """Piecewise-stationary scales; every ``interval`` steps, ``n_replace`` random
    slots get fresh scales, mimicking buffer overwriting."""

    def generate(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
        if n_replace > n:
            raise ValueError("cannot replace more slots than exist")
        scales = 10.0 ** rng.uniform(0.0, orders, n)
        out = np.empty((T, n))
        for lo in range(0, T, interval):
            if lo > 0:
                cols = rng.choice(n, size=n_replace, replace=False)
                scales[cols] = 10.0 ** rng.uniform(0.0, orders, n_replace)
            # One draw per interval reads the stream a draw per row would.
            rows = out[lo : lo + interval]
            rows[:] = scales * (1.0 - jitter + jitter * rng.uniform(0.0, 1.0, rows.shape))
        return out

    return generate


# --- loss bound checks ----------------------------------------------------------

@dataclass
class LossBoundCheck:
    """Outcome of checking the analytic per-slot loss cap and its three factors."""

    ok: bool
    max_d: float
    bound: float
    ratio_ok: bool
    score_ok: bool
    return_ok: bool
    max_ratio: float


def check_loss_bound(
    trajs: Sequence[Episode],
    target,
    gamma: float,
    beta: float,
    score_norm_cap: float,
    reward_cap: float,
    horizon: int,
) -> LossBoundCheck:
    """Check every trajectory's loss against the analytic cap.

    For policies with per-step probabilities at least ``beta``, score norms at
    most ``score_norm_cap`` and rewards bounded by ``reward_cap``, each factor
    of ``d = (omega * ||sum_t score_t|| * |R|)^2`` obeys: the importance ratio
    is at most ``beta**-horizon``, the summed score norm at most
    ``horizon * score_norm_cap``, and the absolute return at most
    ``reward_cap * (1 - gamma**horizon) / (1 - gamma)``.
    """
    ratio_bound = beta ** (-horizon)
    score_bound = horizon * score_norm_cap
    return_bound = reward_cap * (1.0 - gamma**horizon) / (1.0 - gamma)
    bound = (return_bound / beta**horizon * horizon * score_norm_cap) ** 2

    grads = trajectory_gradients(TrajectoryBatch.of(trajs), target, gamma, log_cap=np.inf)
    max_ratio = float(grads.omega.max())
    max_score = float(np.linalg.norm(grads.score, axis=1).max())
    max_return = float(np.abs(grads.returns).max())
    max_d = float(grads.d.max())

    tol = 1.0 + 1e-12
    ratio_ok = max_ratio <= ratio_bound * tol
    score_ok = max_score <= score_bound * tol
    return_ok = max_return <= return_bound * tol
    return LossBoundCheck(
        ok=bool(max_d <= bound * tol and ratio_ok and score_ok and return_ok),
        max_d=max_d,
        bound=bound,
        ratio_ok=bool(ratio_ok),
        score_ok=bool(score_ok),
        return_ok=bool(return_ok),
        max_ratio=max_ratio,
    )


def fit_loglog_slope(horizons: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(horizons)."""
    x = np.log(np.asarray(horizons, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])
