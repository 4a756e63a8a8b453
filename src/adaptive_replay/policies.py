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

import numpy as np


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of one state's logits; the per-step path of every rollout."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class LinearSoftmaxPolicy:
    """Logits are linear in fixed state features: ``logits(s) = features[s] @ weights``."""

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

    @property
    def n_params(self) -> int:
        return self.weights.size

    def get_params(self) -> np.ndarray:
        return self.weights.ravel().copy()

    def set_params(self, params: np.ndarray) -> None:
        self.weights = np.asarray(params, dtype=np.float64).reshape(self.weights.shape)

    def action_probs(self, state: int) -> np.ndarray:
        return _softmax(self.features[state].dot(self.weights))

    def prob(self, state: int, action: int) -> float:
        return float(self.action_probs(state)[action])

    def log_prob(self, state: int, action: int) -> float:
        return float(_log_softmax(self.features[state].dot(self.weights))[action])

    def log_prob_table(self) -> np.ndarray:
        """``log pi(a|s)`` for every (state, action), shape ``(n_states, n_actions)``."""
        return _log_softmax(self.features @ self.weights)

    def scores(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step score functions ``grad log pi(a_t|s_t)``, one flat row per step."""
        states = np.asarray(states, dtype=np.int64)
        phi = self.features[states]
        residual = -np.exp(_log_softmax(phi @ self.weights))
        residual[np.arange(len(states)), actions] += 1.0
        return (phi[:, :, None] * residual[:, None, :]).reshape(len(states), -1)

    def sample_action(self, state: int, rng: np.random.Generator) -> int:
        return int(rng.choice(self.n_actions, p=self.action_probs(state)))

    def greedy_action(self, state: int) -> int:
        return int(np.argmax(self.features[state].dot(self.weights)))

    def min_action_prob(self) -> float:
        """Smallest probability over all (state, action) pairs."""
        return float(np.exp(self.log_prob_table()).min())

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
        return clone


class TabularSoftmaxPolicy(LinearSoftmaxPolicy):
    """One logit per (state, action): identity features, so ``weights`` is the logit table."""

    def __init__(self, n_states: int, n_actions: int, logits: np.ndarray | None = None):
        if logits is not None and np.shape(logits) != (n_states, n_actions):
            raise ValueError("logits shape must be (n_states, n_actions)")
        super().__init__(np.eye(int(n_states)), n_actions, logits)

    @property
    def logits(self) -> np.ndarray:
        return self.weights
