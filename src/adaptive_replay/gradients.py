"""Importance ratios, trajectory gradients, and the variance objective.

The replay gradient estimator averages ``lambda_k * omega_k * g_k`` over a
sampled batch, where ``omega`` is the product of per-step target-to-behavior
probability ratios, ``g`` is the score-function gradient scaled by the
discounted return, and ``lambda_k = 1 / (p(k) * n)`` undoes the non-uniform
slot sampling.  The estimator's expectation is the full-buffer mean
``(1/n) sum_i omega_i g_i`` for every valid sampling distribution; only its
variance depends on ``p``, through ``f(p) = sum_i d(i) / p(i)`` with
``d(i) = ||omega_i g_i||^2``.

:func:`trajectory_gradients` is the one place that computes ``omega``, ``g``
and ``d``: it flattens the rows of a padded :class:`TrajectoryBatch` (a
gather of store rows, or ``TrajectoryBatch.of`` a list), gathers the
per-step log probabilities from the policy's log-probability table, and
segment-sums them with the policy's batched score functions, whose residuals
come from rows of the same cached table.  Every estimator in the package
consumes its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import Episode, TrajectoryBatch

RATIO_LOG_CAP = 50.0  # default clamp on a log importance ratio: omega <= e^50 ~ 5e21


@dataclass
class TrajectoryGradients:
    """Per-trajectory estimator terms for a batch of K trajectories.

    ``omega[k]`` is the importance ratio, ``score[k]`` the summed score
    function, ``returns[k]`` the discounted return, ``g[k] = score[k] *
    returns[k]`` and ``d[k] = omega[k]^2 ||g[k]||^2``.  ``cap_hits`` counts the
    log ratios clamped at the cap.
    """

    omega: np.ndarray
    score: np.ndarray
    returns: np.ndarray
    g: np.ndarray
    d: np.ndarray
    cap_hits: int


def trajectory_gradients(
    batch: TrajectoryBatch, target, gamma: float, log_cap: float = RATIO_LOG_CAP
) -> TrajectoryGradients:
    """Importance ratios, score-return gradients and losses of a batch of trajectories.

    The log ratio ``sum_t log pi(a_t|s_t) - log mu(a_t|s_t)`` is clamped at
    ``log_cap`` before exponentiating, so a long streak of near-zero behavior
    probabilities cannot overflow; transition terms do not depend on the
    policy parameters, so the trajectory score is the sum of per-step scores.
    """
    if len(batch) == 0:
        raise ValueError("cannot compute gradients of zero trajectories")
    lengths = batch.lengths
    if lengths.min() < 1:
        raise ValueError("batch holds an empty row")
    # Row-major masking keeps each row's steps in order, row after row.
    mask = np.arange(batch.width) < lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    states = batch.states[mask]
    actions = batch.actions[mask]
    behavior = batch.behavior_probs[mask]
    rewards = batch.rewards[mask]
    step = np.nonzero(mask)[1]

    log_ratio = target.log_prob_table()[states, actions] - np.log(behavior)
    log_omega = np.add.reduceat(log_ratio, starts)
    capped = log_omega > log_cap
    omega = np.exp(np.where(capped, log_cap, log_omega))
    returns = np.add.reduceat(rewards * gamma**step, starts)
    score = np.add.reduceat(target.scores(states, actions), starts, axis=0)
    g = score * returns[:, None]
    d = omega**2 * np.einsum("kp,kp->k", g, g)
    return TrajectoryGradients(omega, score, returns, g, d, int(np.count_nonzero(capped)))


def trajectory_return(traj: Episode, gamma: float) -> float:
    """Discounted return ``sum_t gamma^t r_t`` of the list ``traj.rewards``."""
    return float(traj.rewards @ gamma ** np.arange(len(traj)))


def replay_gradient(
    omega: np.ndarray, g: np.ndarray, p: np.ndarray, n: int, draws: np.ndarray
) -> np.ndarray:
    """Bias-corrected batch mean ``(1/B) sum_k omega_k g_k / (p_k n)`` over ``draws``.

    Rows of ``omega``, ``g`` and ``p`` (its probability in a buffer of ``n``)
    are slots, each weighed once.  The int array ``draws`` indexes them: its
    last axis is one batch of ``B`` draws (a slot drawn twice appears twice),
    and each leading index gives one estimate.
    """
    if draws.shape[-1] == 0:
        raise ValueError("cannot estimate a gradient from an empty batch")
    p = np.asarray(p, dtype=np.float64)
    if (p <= 0.0).any():
        raise ValueError(f"slot {int(np.argmax(p <= 0.0))} has zero probability")
    weighted = (omega / (p * n))[:, None] * g
    return weighted[draws].sum(axis=-2) / draws.shape[-1]


def variance_objective(d: np.ndarray, p: np.ndarray) -> float:
    """Per-step variance proxy ``sum_i d(i) / p(i)`` minimized by the sampler.

    Slots with zero loss contribute nothing regardless of their probability;
    a positive loss on a zero-probability slot makes the objective infinite
    and is rejected.
    """
    d = np.asarray(d, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    active = d > 0
    if np.any(p[active] <= 0.0):
        raise ValueError("positive loss on a zero-probability slot: objective is infinite")
    return float((d[active] / p[active]).sum())


def gradient_variance(grads: TrajectoryGradients, p, batch: int, repeats: int, rng) -> float:
    """Trace of the sample covariance of ``repeats`` replay gradients, each from
    ``batch`` draws under ``p``.  ``grads`` holds whole-buffer terms (one row per
    slot), so one gradient pass serves several distributions on a frozen buffer."""
    if repeats < 2:
        raise ValueError("variance estimation requires at least 2 repeats")
    n = len(p)
    draws = rng.choice(n, size=(repeats, batch), p=p)
    estimates = replay_gradient(grads.omega, grads.g, p, n, draws)
    return float(estimates.var(axis=0, ddof=1).sum())
