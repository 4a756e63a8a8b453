"""Closed-form competitor distributions, regret accounting, and bound checks.

For per-step losses ``f_t(p) = sum_i d_t(i) / p(i)`` the best fixed simplex
point over a window has the closed form ``p*(i) ~ sqrt(sum_t d_t(i))`` and
the best per-step point is ``p_t*(i) ~ sqrt(d_t(i))``; the corresponding
optimal costs are ``(sum_i sqrt(sum_t d_t(i)))^2`` and
``(sum_i sqrt(d_t(i)))^2``.  Regret is reported normalized by the squared
slot count.  The closed forms are cross-checked in the test suite against
the generic simplex minimizer, which never shares code with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gradients import trajectory_gradients, variance_objective
from .sampler import SamplerConfig, SamplerState
from .store import Episode, TrajectoryBatch

SequenceGenerator = Callable[[np.random.Generator, int, int], np.ndarray]


@dataclass
class CompetitorResult:
    """Competitor distribution plus a flag for degenerate (boundary) solutions."""

    p: np.ndarray
    degenerate: bool


def static_competitor(d_matrix: np.ndarray) -> CompetitorResult:
    """Best fixed distribution for a whole loss sequence: mass ~ sqrt of column sums."""
    d_matrix = np.asarray(d_matrix, dtype=np.float64)
    if d_matrix.ndim != 2:
        raise ValueError("expected a (steps, slots) loss matrix")
    _validate_losses(d_matrix)
    roots = np.sqrt(d_matrix.sum(axis=0))
    total = roots.sum()
    if total == 0.0:
        n = d_matrix.shape[1]
        return CompetitorResult(np.full(n, 1.0 / n), degenerate=True)
    p = roots / total
    return CompetitorResult(p, degenerate=bool(np.any(p == 0.0)))


def dynamic_competitor(d_row: np.ndarray) -> CompetitorResult:
    """Best distribution for a single step: mass ~ sqrt of the per-slot losses."""
    d_row = np.asarray(d_row, dtype=np.float64)
    if d_row.ndim != 1:
        raise ValueError("expected a 1-d loss row")
    return static_competitor(d_row[None, :])


def best_static_cost(d_matrix: np.ndarray) -> float:
    """min over p of the summed losses: ``(sum_i sqrt(sum_t d_t(i)))^2``."""
    d_matrix = np.asarray(d_matrix, dtype=np.float64)
    return float(np.sqrt(d_matrix.sum(axis=0)).sum() ** 2)


def min_step_cost(d_row: np.ndarray) -> float:
    """min over p of a single step's loss: ``(sum_i sqrt(d_t(i)))^2``."""
    return float(np.sqrt(np.asarray(d_row, dtype=np.float64)).sum() ** 2)


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
    static_opt: float
    dynamic_opt: np.ndarray
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
        roots = np.sqrt(d_matrix)
        col_prefix = np.cumsum(d_matrix, axis=0)
        static_opt_cum = np.sqrt(col_prefix).sum(axis=1) ** 2
        dynamic_opt = roots.sum(axis=1) ** 2
        return cls(
            capacity=capacity,
            realized=realized,
            static_opt=float(static_opt_cum[-1]),
            dynamic_opt=dynamic_opt,
            realized_cum=np.cumsum(realized),
            static_opt_cum=static_opt_cum,
            dynamic_opt_cum=np.cumsum(dynamic_opt),
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
    ledgers = []
    for seed in seeds:
        root = np.random.SeedSequence(int(seed))
        gen_stream, learner_stream = root.spawn(2)
        d_matrix = sequence_generator(
            np.random.default_rng(gen_stream), T, sampler_config.capacity
        )
        _validate_losses(d_matrix)
        ledgers.append(
            _run_single(d_matrix, sampler_config, feedback, batch, np.random.default_rng(learner_stream))
        )
    return ledgers


def _run_single(
    d_matrix: np.ndarray,
    config: SamplerConfig,
    feedback: str,
    batch: int,
    rng: np.random.Generator,
) -> RegretLedger:
    steps, capacity = d_matrix.shape
    state = SamplerState(config)
    realized = np.empty(steps)
    for t in range(steps):
        p = state.distribution()
        row = d_matrix[t]
        realized[t] = variance_objective(row, p)
        if feedback == "full":
            state.record_full(row)
        else:
            sampled = np.unique(rng.choice(capacity, size=batch, p=p))
            state.record_feedback(sampled, row[sampled], p[sampled])
        state.maybe_reset()
    return RegretLedger.from_sequence(d_matrix, realized)


# --- loss sequence generators -------------------------------------------------

def stationary_sequence(low: float = 0.1, high: float = 10.0) -> SequenceGenerator:
    """One random loss row, repeated every step."""

    def generate(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
        return np.tile(rng.uniform(low, high, n), (T, 1))

    return generate


def scaled_noise_sequence(orders: float = 2.0, base: float = 1.0) -> SequenceGenerator:
    """Bounded noisy rows with per-slot scales spread over ``orders`` decades."""

    def generate(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
        scales = base * 10.0 ** rng.uniform(0.0, orders, n)
        return scales * rng.uniform(0.0, 1.0, (T, n))

    return generate


def drifting_sequence(
    interval: int,
    n_replace: int,
    orders: float = 2.0,
    base: float = 1.0,
    jitter: float = 0.5,
) -> SequenceGenerator:
    """Piecewise-stationary scales; every ``interval`` steps, ``n_replace`` random
    slots get fresh scales, mimicking buffer overwriting."""

    def generate(rng: np.random.Generator, T: int, n: int) -> np.ndarray:
        if n_replace > n:
            raise ValueError("cannot replace more slots than exist")
        scales = base * 10.0 ** rng.uniform(0.0, orders, n)
        out = np.empty((T, n))
        for t in range(T):
            if t > 0 and t % interval == 0:
                cols = rng.choice(n, size=n_replace, replace=False)
                scales[cols] = base * 10.0 ** rng.uniform(0.0, orders, n_replace)
            out[t] = scales * (1.0 - jitter + jitter * rng.uniform(0.0, 1.0, n))
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
