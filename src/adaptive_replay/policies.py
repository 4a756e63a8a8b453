"""Softmax-linear policies with closed-form, batched score functions.

One implementation covers both families: logits are linear in fixed state
features, ``logits(s) = features[s] @ weights``, and the tabular policy is the
identity-features case (one logit per state-action pair).  The score function
of a step, ``grad log pi(a|s) = features[s] (x) (onehot(a) - pi(s))``, is
produced for whole batches of steps by :meth:`LinearSoftmaxPolicy.scores`, in flat
parameter coordinates, so trajectory-level gradients are segment sums.  On a
replay step's small batch (a few dozen steps) the cost is numpy's calls, not
arithmetic, so the tabular policy builds its rows with fewer: it places each
step's residual in its state's row of a zeroed array, the identity outer
product without the feature gather and the multiplications.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

_NOT_FINITE = "policy probabilities are not finite: the weights hold NaN or inf"


def cdf_rows(probs: np.ndarray) -> list:
    """Running sums along the last axis divided by their last entry, as lists.

    Entry for entry the CDF ``Generator.choice(n, p=row)`` builds, so
    ``bisect_right(cdf, rng.random())`` draws the index ``choice`` would
    draw from the same random number.
    """
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf.tolist()


class PolicyTables(NamedTuple):
    """Everything derived from one parameter setting; every probability in ``[0, 1]``.

    :meth:`LinearSoftmaxPolicy.tables` is the one way to read them.
    ``probs`` (``pi(a|s)``) and ``log_probs`` (``log pi(a|s)``) are
    read-only ``(n_states, n_actions)`` arrays.  The rest are Python lists
    for per-step rollouts: ``prob_rows[s][a] = pi(a|s)``, ``cdfs[s]`` is the
    :func:`cdf_rows` row of ``probs[s]`` and ``greedy[s]`` the index of the
    largest logit of ``s``.
    A probability that underflowed to 0 (a -inf logit or a gap past ~745) is
    never drawn: its ``cdfs`` entry equals the one before it (or 0).
    """

    probs: np.ndarray
    log_probs: np.ndarray
    prob_rows: list[list[float]]
    cdfs: list[list[float]]
    greedy: list[int]


class LinearSoftmaxPolicy:
    """Logits are linear in fixed state features: ``logits(s) = features[s] @ weights``.

    Probabilities are read through :meth:`tables` only, for example
    ``policy.tables().probs``.  The :class:`PolicyTables` are computed once
    per parameter setting and kept until :meth:`set_params` or
    :meth:`copy`; change ``weights`` through ``set_params`` only.
    """

    def __init__(
        self,
        features: np.ndarray,
        n_actions: int,
        weights: np.ndarray | None = None,
    ):
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a (n_states, n_features) matrix")
        self.n_states, self.n_features = self.features.shape
        self.n_actions = int(n_actions)
        if weights is None:
            weights = np.zeros((self.n_features, self.n_actions))
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        if self.weights.shape != (self.n_features, self.n_actions):
            raise ValueError("weights shape must be (n_features, n_actions)")
        self._cache: PolicyTables | None = None

    def get_params(self) -> np.ndarray:
        return self.weights.ravel().copy()

    def set_params(self, params: np.ndarray) -> None:
        # A copy, so a later write into the caller's array cannot leave the
        # cached tables describing other weights.
        self.weights = np.array(params, dtype=np.float64).reshape(self.weights.shape)
        self._cache = None

    def tables(self) -> PolicyTables:
        """Every table derived from the weights, built on first use after a change."""
        if self._cache is None:
            logits = self._logits()
            top = logits.max(axis=1, keepdims=True)
            # A NaN or +inf logit, or a row of -inf, leaves its row's maximum
            # not finite, and the subtraction would warn on it (inf - inf).
            if not np.isfinite(top).all():
                raise ValueError(_NOT_FINITE)
            z = logits - top
            e = np.exp(z)
            total = e.sum(axis=1, keepdims=True)
            probs = e / total
            log_probs = z - np.log(total)
            probs.flags.writeable = log_probs.flags.writeable = False
            self._cache = PolicyTables(
                probs, log_probs, probs.tolist(), cdf_rows(probs), logits.argmax(axis=1).tolist()
            )
        return self._cache

    def _logits(self) -> np.ndarray:
        # A non-finite weight times a zero feature (0 * inf) would warn in the matmul.
        if not np.isfinite(self.weights).all():
            raise ValueError(_NOT_FINITE)
        return self.features @ self.weights

    def scores(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step score functions ``grad log pi(a_t|s_t)``, one flat row per step."""
        states, residual = self._residuals(states, actions)
        phi = self.features[states]
        return (phi[:, :, None] * residual[:, None, :]).reshape(len(states), -1)

    def _residuals(self, states, actions) -> tuple[np.ndarray, np.ndarray]:
        """``states`` as ints and each step's ``onehot(a_t) - pi(s_t)``, from the log table."""
        states = np.asarray(states, dtype=np.int64)
        residual = -np.exp(self.tables().log_probs[states])
        residual[np.arange(len(states)), actions] += 1.0
        return states, residual

    def max_score_norm(self) -> float:
        """Largest ``||grad log pi(a|s)||`` over all (state, action) pairs.

        The score is an outer product, so its norm is
        ``||features[s]|| * ||onehot(a) - pi(s)||`` with
        ``||onehot(a) - pi(s)||^2 = pi(s) . pi(s) - 2 pi(a|s) + 1``.
        """
        pi = np.exp(self.tables().log_probs)
        residual_sq = (pi * pi).sum(axis=1, keepdims=True) - 2.0 * pi + 1.0
        feature_sq = (self.features**2).sum(axis=1, keepdims=True)
        return float(np.sqrt((feature_sq * residual_sq).max()))

    def copy(self) -> "LinearSoftmaxPolicy":
        clone = copy.copy(self)
        clone.weights = self.weights.copy()
        clone._cache = None
        return clone


class TabularSoftmaxPolicy(LinearSoftmaxPolicy):
    """One logit per (state, action): identity features, so ``weights`` is the logit table."""

    def __init__(self, n_states: int, n_actions: int, logits: np.ndarray | None = None):
        if logits is not None and np.shape(logits) != (n_states, n_actions):
            raise ValueError("logits shape must be (n_states, n_actions)")
        super().__init__(np.eye(int(n_states)), n_actions, logits)

    def _logits(self) -> np.ndarray:
        # ``weights`` is the logit table: the identity matmul would give the
        # same finite bits, but turns an infinite logit's column NaN (0 * inf).
        return self.weights

    def scores(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """The base class's rows, built by placement: step ``t``'s residual goes into
        row ``states[t]`` of a zeroed ``(steps, n_states, n_actions)`` array.  Entry for
        entry it equals the identity outer product, except that a zero is never -0.0."""
        states, residual = self._residuals(states, actions)
        out = np.zeros((len(states), self.n_states, self.n_actions))
        out[np.arange(len(states)), states] = residual
        return out.reshape(len(states), -1)
