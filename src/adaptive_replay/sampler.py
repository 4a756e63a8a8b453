"""Square-root FTRL accumulators and the mixed sampling distribution over buffer slots.

The sampler maintains one non-negative accumulator ``w(i)`` per buffer slot.
Each policy-update step feeds back an inverse-probability-weighted loss for
the slots that were sampled, and the sampling distribution is the closed-form
follow-the-regularized-leader solution

    p(i) = (1 - kappa) * sqrt(w(i) + nu) / sum_j sqrt(w(j) + nu) + kappa / n

i.e. the minimizer of ``sum_i w(i)/p(i) + nu * sum_i 1/p(i)`` over the
probability simplex, blended with the uniform distribution.  The uniform
mixture bounds the inverse-probability feedback terms and keeps every slot
explored.  Periodic resets (hard zeroing or multiplicative forgetting) let
the distribution track a buffer whose contents change over time.
The dense O(n) :meth:`SamplerState.distribution` serves evaluations, oracles
and analysis; a replay step reads its slots' probabilities from the store's
index (``WeightedStore.probabilities``), and ``record_feedback`` only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

RESET_HARD = "hard"
RESET_SOFT = "soft"
RESET_ANNEALED_SOFT = "annealed_soft"

_RESET_MODES = (RESET_HARD, RESET_SOFT, RESET_ANNEALED_SOFT)


@dataclass
class SamplerConfig:
    """Hyperparameters of the adaptive slot sampler.

    Parameters
    ----------
    capacity:
        Number of buffer slots the distribution ranges over.
    nu:
        Regularization constant added under the square root.  Large values
        keep the distribution close to uniform until enough feedback has
        accumulated.
    kappa:
        Uniform mixing coefficient in [0, 1].  Guarantees
        ``p(i) >= kappa / capacity`` for every slot.
    reset_period:
        Accumulators are reset every ``reset_period`` feedback steps.
    reset_mode:
        ``"hard"`` zeroes the accumulators, ``"soft"`` multiplies them by the
        forgetting factor ``rho``, ``"annealed_soft"`` interpolates the
        forgetting factor linearly from ``rho_start`` to ``rho_end`` over
        ``anneal_steps`` feedback steps (clamped afterwards).
    loss_bound:
        Optional cap on the raw per-slot loss.  When set together with
        ``kappa > 0``, feedback contributions are clamped at
        ``capacity / kappa * loss_bound``, the analytic ceiling for
        inverse-probability-weighted losses under the uniform floor.  The
        clamp only activates on numerical error; activations are counted.
    """

    capacity: int
    nu: float = 1000.0
    kappa: float = 0.1
    reset_period: int = 100
    reset_mode: str = RESET_HARD
    rho: float = 0.9
    rho_start: float = 0.8
    rho_end: float = 0.2
    anneal_steps: int | None = None
    loss_bound: float | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not np.isfinite(self.nu) or self.nu <= 0:
            raise ValueError(f"nu must be a positive finite real, got {self.nu}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.reset_period < 1:
            raise ValueError(f"reset_period must be >= 1, got {self.reset_period}")
        if self.reset_mode not in _RESET_MODES:
            raise ValueError(f"reset_mode must be one of {_RESET_MODES}, got {self.reset_mode!r}")
        for name in ("rho", "rho_start", "rho_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.reset_mode == RESET_ANNEALED_SOFT and (
            self.anneal_steps is None or self.anneal_steps < 1
        ):
            raise ValueError("annealed_soft reset requires anneal_steps >= 1")

    @property
    def feedback_clamp(self) -> float:
        """Largest admissible single-step feedback contribution, ``inf`` if uncapped."""
        if self.loss_bound is None or self.kappa <= 0.0:
            return np.inf
        return self.capacity / self.kappa * self.loss_bound


class SamplerState:
    """Mutable accumulator state.  Single-writer; reads are side-effect free."""

    def __init__(self, config: SamplerConfig, w: np.ndarray | None = None):
        self.config = config
        if w is None:
            w = np.zeros(config.capacity)
        else:
            w = np.asarray(w, dtype=np.float64).copy()
            if w.shape != (config.capacity,):
                raise ValueError(f"w must have shape ({config.capacity},), got {w.shape}")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ValueError("w entries must be non-negative and finite")
        self.w = w
        self.step = 0
        self.clamp_count = 0

    def distribution(self) -> np.ndarray:
        """Current sampling distribution over slots.

        Pure function of the state: the square-root FTRL closed form mixed
        with the uniform distribution by ``kappa``.  Sums to 1 within 1e-12
        and satisfies ``p(i) >= kappa / capacity``.
        """
        cfg = self.config
        if not np.all(np.isfinite(self.w)):
            raise ValueError("invalid state: non-finite accumulator entries")
        scores = np.sqrt(self.w + cfg.nu)
        p = (1.0 - cfg.kappa) * scores / scores.sum() + cfg.kappa / cfg.capacity
        return p

    def record_feedback(
        self,
        sampled: Iterable[int],
        d: Mapping[int, float],
        p_used: np.ndarray | Mapping[int, float],
    ) -> None:
        """Accumulate inverse-probability-weighted losses and advance the step counter.

        ``w(i) += d[i] / p_used[i]`` for each sampled slot; untouched slots keep
        their value.  ``d`` must assign a finite non-negative loss to exactly
        the sampled slots, and ``p_used`` (a dense vector or a slot -> p mapping,
        read only at the sampled slots) gives the probabilities they were drawn
        with, so the weighted contribution is an unbiased estimate of the full
        loss vector.
        """
        sampled = set(sampled)
        if set(d) != sampled:
            raise ValueError("d must be defined on exactly the sampled slots")
        clamp = self.config.feedback_clamp
        for i in sampled:
            if not 0 <= i < self.config.capacity:
                raise ValueError(f"slot index {i} out of range")
            value = float(d[i])
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"loss for slot {i} must be finite and non-negative, got {value}")
            p_i = float(p_used[i])
            if p_i <= 0.0:
                raise ValueError(f"sampled slot {i} has zero probability in p_used")
            contribution = value / p_i
            if contribution > clamp:
                contribution = clamp
                self.clamp_count += 1
            self.w[i] += contribution
        self.step += 1

    def record_full(self, d: np.ndarray) -> None:
        """Full-information feedback: add the entire loss row to the accumulators."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != self.w.shape:
            raise ValueError(f"expected {self.w.shape} losses, got {d.shape}")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("losses must be finite and non-negative")
        self.w += d
        self.step += 1

    def current_rho(self) -> float:
        """Forgetting factor in effect at the current step (annealed if configured)."""
        cfg = self.config
        if cfg.reset_mode == RESET_SOFT:
            return cfg.rho
        if cfg.reset_mode == RESET_ANNEALED_SOFT:
            frac = min(1.0, self.step / cfg.anneal_steps)
            return cfg.rho_start + frac * (cfg.rho_end - cfg.rho_start)
        return 0.0

    def maybe_reset(self) -> bool:
        """Apply the configured reset if the step counter hit the period.

        Returns True when a reset was applied.  Hard mode zeroes the
        accumulators; soft modes multiply them by the current forgetting
        factor.
        """
        cfg = self.config
        if self.step == 0 or self.step % cfg.reset_period != 0:
            return False
        if cfg.reset_mode == RESET_HARD:
            self.w[:] = 0.0
        else:
            self.w *= self.current_rho()
        return True


def lambda_ratio(p: np.ndarray, k: int) -> float:
    """Importance weight correcting non-uniform slot sampling: ``1 / (p(k) * n)``.

    Equals 1 under the uniform distribution; larger for under-sampled slots.
    """
    p = np.asarray(p)
    if p[k] <= 0.0:
        raise ValueError(f"slot {k} has zero sampling probability")
    return 1.0 / (p[k] * len(p))
