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
:meth:`SamplerState.scores` gives ``sqrt(w + nu)``, which the dense O(n)
:meth:`SamplerState.distribution` normalizes and the store's index holds; a
replay step reads its slots' p from that index (``WeightedStore.draw``), and
``WeightedStore.update_scores`` calls ``record_feedback`` for only those
slots before it refreshes their leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.anneal_steps is not None and self.anneal_steps < 1:
            raise ValueError(f"anneal_steps must be >= 1, got {self.anneal_steps}")
        if self.reset_mode == RESET_ANNEALED_SOFT and self.anneal_steps is None:
            raise ValueError("anneal_steps must be set for the annealed_soft reset")


def check_slots(slots, capacity: int) -> None:
    """Reject, by name, a slot outside ``[0, capacity)`` or a repeated one, of which a
    fancy-index write would keep one value; ``slots`` is an int (Python or numpy) or a
    1-d int array."""
    if isinstance(slots, (int, np.integer)):
        ordered, repeated = [slots], []
    elif np.ndim(slots) != 1:
        raise ValueError(f"slots must be an int or a 1-d int array, got shape {np.shape(slots)}")
    else:
        ordered = np.sort(slots)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(ordered) == 0:
        return
    lo, hi = ordered[0], ordered[-1]
    if not 0 <= lo <= hi < capacity:
        raise ValueError(f"slot index {lo if lo < 0 else hi} out of range")
    if len(repeated):
        raise ValueError(f"duplicate slot {repeated[0]} in slots")


def check_finite_non_negative(values: np.ndarray, slots, name: str) -> None:
    """Reject, by name, the first of ``values`` (an array with one entry per slot of
    ``slots``) that is negative or not finite.  Valid values pass one comparison
    chain over two reductions: a NaN fails it."""
    if not 0.0 <= values.min(initial=0.0) <= values.max(initial=0.0) < math.inf:
        i = np.argmax(~(np.isfinite(values) & (values >= 0)))
        raise ValueError(
            f"{name} for slot {np.ravel(slots)[i]} must be finite and non-negative, "
            f"got {values.ravel()[i]}"
        )


class SamplerState:
    """Mutable accumulator state and its reset count; reads are side-effect free.

    ``record_feedback``, ``maybe_reset`` and ``clear`` are the only writes to
    ``w``, ``step`` and ``resets``; no other module assigns to them.
    """

    def __init__(self, config: SamplerConfig):
        self.config = config
        self.w = np.zeros(config.capacity)
        self.step = 0
        self.resets = 0

    def distribution(self) -> np.ndarray:
        """Current sampling distribution over slots.

        Pure function of the state: the square-root FTRL closed form mixed
        with the uniform distribution by ``kappa``.  Sums to 1 within 1e-12
        and satisfies ``p(i) >= kappa / capacity``.
        """
        cfg = self.config
        if not np.all(np.isfinite(self.w)):
            raise ValueError("invalid state: non-finite accumulator entries")
        scores = self.scores()
        return (1.0 - cfg.kappa) * scores / scores.sum() + cfg.kappa / cfg.capacity

    def scores(self, slots=slice(None)):
        """Unnormalized FTRL scores ``sqrt(w + nu)`` of ``slots`` (an int, array or slice)."""
        return np.sqrt(self.w[slots] + self.config.nu)

    def record_feedback(self, slots, d, p_used) -> None:
        """Add ``d / p_used`` to the accumulators of ``slots``; advance the step counter.

        Aligned 1-d arrays: distinct in-range slots, their finite non-negative
        losses, and the probabilities they were drawn with, which makes the
        update an unbiased estimate of the full loss vector.  Full-information
        feedback is every slot at probability 1.
        """
        slots = np.asarray(slots, dtype=np.int64)
        d, p_used = np.asarray(d, dtype=np.float64), np.asarray(p_used, dtype=np.float64)
        if slots.ndim != 1 or not d.shape == p_used.shape == slots.shape:
            shapes = f"{slots.shape}, {d.shape} and {p_used.shape}"
            raise ValueError(f"slots, d and p_used must be aligned 1-d arrays, got {shapes}")
        check_slots(slots, self.config.capacity)
        check_finite_non_negative(d, slots, "loss")
        # A NaN fails the comparison, so it is rejected with the zeros.
        if not p_used.min(initial=1.0) > 0.0:
            raise ValueError(f"sampled slot {slots[np.argmax(~(p_used > 0))]} has zero probability in p_used")
        self.w[slots] += d / p_used
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

        Returns True when a reset was applied, and counts it in ``resets``.
        Hard mode zeroes the accumulators; soft modes multiply them by the
        current forgetting factor.
        """
        cfg = self.config
        if self.step == 0 or self.step % cfg.reset_period != 0:
            return False
        if cfg.reset_mode == RESET_HARD:
            self.clear()
        else:
            self.w *= self.current_rho()
        self.resets += 1
        return True

    def clear(self, slots=slice(None)) -> None:
        """Zero the accumulators of ``slots`` (an int, array or slice; all by default)."""
        self.w[slots] = 0.0

