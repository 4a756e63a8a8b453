"""Softmax-linear policies with closed-form, batched score functions.

One implementation covers both families: logits are linear in fixed state
features, ``logits(s) = features[s] @ weights``, and the tabular policy is the
identity-features case (one logit per state-action pair).  Every action gets
strictly positive probability.  The score function of a step,
``grad log pi(a|s) = features[s] (x) (onehot(a) - pi(s))``, is produced for
whole batches of steps by :meth:`LinearSoftmaxPolicy.scores`, in flat
parameter coordinates, so trajectory-level gradients are segment sums.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np


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
    """Everything derived from one parameter setting; every probability in ``(0, 1]``.

    ``probs`` and ``log_probs`` are read-only ``(n_states, n_actions)``
    arrays.  The rest are Python lists for per-step rollouts:
    ``prob_rows[s][a] = pi(a|s)``, ``cdfs[s]`` is the :func:`cdf_rows` row
    of ``probs[s]`` and ``greedy[s]`` the index of the largest logit of ``s``.
    """

    probs: np.ndarray
    log_probs: np.ndarray
    prob_rows: list[list[float]]
    cdfs: list[list[float]]
    greedy: list[int]


class LinearSoftmaxPolicy:
    """Logits are linear in fixed state features: ``logits(s) = features[s] @ weights``.

    The :class:`PolicyTables` are computed once per parameter setting and
    kept until :meth:`set_params` or :meth:`copy`; change ``weights``
    through ``set_params`` only.
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
            logits = self.features @ self.weights
            z = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(z)
            total = e.sum(axis=1, keepdims=True)
            probs = e / total
            if not np.isfinite(probs).all():
                raise ValueError("policy probabilities are not finite: the weights hold NaN or inf")
            # Rollouts record these as behavior probabilities, which importance
            # ratios divide by; a logit gap past ~745 underflows one to 0.
            if not (probs > 0).all():
                raise ValueError("policy probabilities must lie in (0, 1]: one underflowed to 0")
            log_probs = z - np.log(total)
            probs.flags.writeable = log_probs.flags.writeable = False
            self._cache = PolicyTables(
                probs, log_probs, probs.tolist(), cdf_rows(probs), logits.argmax(axis=1).tolist()
            )
        return self._cache

    def prob_table(self) -> np.ndarray:
        """``pi(a|s)`` for every (state, action), shape ``(n_states, n_actions)``."""
        return self.tables().probs

    def log_prob_table(self) -> np.ndarray:
        """``log pi(a|s)`` for every (state, action), shape ``(n_states, n_actions)``."""
        return self.tables().log_probs

    def scores(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step score functions ``grad log pi(a_t|s_t)``, one flat row per step."""
        states = np.asarray(states, dtype=np.int64)
        residual = -np.exp(self.log_prob_table()[states])
        residual[np.arange(len(states)), actions] += 1.0
        phi = self.features[states]
        return (phi[:, :, None] * residual[:, None, :]).reshape(len(states), -1)

    def max_score_norm(self) -> float:
        """Largest ``||grad log pi(a|s)||`` over all (state, action) pairs.

        The score is an outer product, so its norm is
        ``||features[s]|| * ||onehot(a) - pi(s)||`` with
        ``||onehot(a) - pi(s)||^2 = pi(s) . pi(s) - 2 pi(a|s) + 1``.
        """
        pi = np.exp(self.log_prob_table())
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
