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
per-step log probabilities from one log-softmax table, and segment-sums them
with the policy's batched score functions.  Every estimator in the package
consumes its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .store import NotReadyError, Trajectory, TrajectoryBatch, WeightedStore
from .sampler import SamplerState


@dataclass
class GradientSample:
    """Per-trajectory quantities entering the replay estimator and the sampler feedback."""

    slot: int
    omega: float
    g: np.ndarray
    d: float


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
    batch: TrajectoryBatch, target, gamma: float, log_cap: float = 50.0
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
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
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
    return TrajectoryGradients(omega, score, returns, g, d, int(capped.sum()))


def trajectory_return(traj: Trajectory, gamma: float) -> float:
    """Discounted return ``sum_t gamma^t r_t``."""
    return float(traj.rewards @ gamma ** np.arange(len(traj)))


def score_return_grad(traj: Trajectory, target, gamma: float) -> np.ndarray:
    """Gradient of the trajectory log-probability times the discounted return."""
    return trajectory_gradients(TrajectoryBatch.of([traj]), target, gamma).g[0]


def replay_gradient(
    omega: np.ndarray, g: np.ndarray, p_drawn: np.ndarray, n: int
) -> np.ndarray:
    """Bias-corrected batch mean ``(1/|batch|) sum_k omega_k g_k / (p_k n)``.

    Row ``k`` of ``omega``, ``g`` and ``p_drawn`` belongs to the ``k``-th
    draw, ``p_k`` being the probability its slot was drawn with from a buffer
    of ``n`` slots; a slot drawn twice appears twice.
    """
    if len(omega) == 0:
        raise ValueError("cannot estimate a gradient from an empty batch")
    p_drawn = np.asarray(p_drawn, dtype=np.float64)
    if np.any(p_drawn <= 0.0):
        raise ValueError(f"draw {int(np.argmax(p_drawn <= 0.0))} has zero probability")
    lam = omega / (p_drawn * n)
    return (lam[:, None] * g).sum(axis=0) / len(omega)


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


def buffer_gradient_samples(
    store: WeightedStore, target, gamma: float, log_cap: float = 50.0
) -> list[GradientSample]:
    """One :class:`GradientSample` per filled slot, in slot order."""
    slots = np.arange(store.occupancy)
    grads = trajectory_gradients(store.take(slots), target, gamma, log_cap=log_cap)
    return [
        GradientSample(slot, float(omega), g, float(d))
        for slot, omega, g, d in zip(slots.tolist(), grads.omega, grads.g, grads.d)
    ]


def full_buffer_mean(samples: Sequence[GradientSample]) -> np.ndarray:
    """The p-independent expectation of the replay gradient: ``(1/n) sum_i omega_i g_i``."""
    return np.mean([sample.omega * sample.g for sample in samples], axis=0)


def empirical_gradient_variance(
    store: WeightedStore,
    sampler: SamplerState,
    target,
    gamma: float,
    batch: int,
    repeats: int,
    rng: np.random.Generator,
    p: np.ndarray | None = None,
) -> float:
    """Summed per-coordinate sample variance of the replay gradient at fixed parameters.

    Draws ``repeats`` independent batches under ``p`` (the sampler's current
    distribution unless given), computes the bias-corrected gradient for
    each, and returns the trace of the sample covariance.  Pure read: the
    store, sampler and policy are not modified.
    """
    if not store.warmed_up:
        raise NotReadyError("variance probe requires a full buffer")
    if p is None:
        p = sampler.distribution()
    grads = trajectory_gradients(store, target, gamma)
    return gradient_variance(grads, p, batch, repeats, rng)


def gradient_variance(grads: TrajectoryGradients, p, batch: int, repeats: int, rng) -> float:
    """:func:`empirical_gradient_variance` from whole-buffer terms (one row per
    slot), so one gradient pass serves several distributions on a frozen buffer."""
    if repeats < 2:
        raise ValueError("variance estimation requires at least 2 repeats")
    p = np.asarray(p, dtype=np.float64)
    n = len(p)
    weighted = (grads.omega / (p * n))[:, None] * grads.g
    indices = rng.choice(n, size=(repeats, batch), p=p)
    estimates = weighted[indices].mean(axis=1)
    return float(estimates.var(axis=0, ddof=1).sum())
