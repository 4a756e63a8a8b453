"""Softmax policy families: probabilities, score functions, measured bounds."""

from bisect import bisect_right
from dataclasses import fields

import numpy as np
import pytest

from adaptive_replay.gradients import TrajectoryGradients, trajectory_gradients
from adaptive_replay.policies import LinearSoftmaxPolicy, TabularSoftmaxPolicy
from adaptive_replay.store import Episode, TrajectoryBatch


def finite_difference_log_prob_grad(policy, state, action, h=1e-6):
    params = policy.get_params()
    grad = np.empty_like(params)
    probe = policy.copy()
    for i in range(len(params)):
        shifted = params.copy()
        shifted[i] += h
        probe.set_params(shifted)
        up = probe.log_prob_table()[state, action]
        shifted[i] -= 2 * h
        probe.set_params(shifted)
        down = probe.log_prob_table()[state, action]
        grad[i] = (up - down) / (2 * h)
    return grad


def random_tabular(rng, n_states=4, n_actions=3):
    return TabularSoftmaxPolicy(
        n_states, n_actions, logits=rng.uniform(-2, 2, (n_states, n_actions))
    )


def random_linear(rng, n_states=6, n_features=3, n_actions=3):
    return LinearSoftmaxPolicy(
        features=rng.normal(size=(n_states, n_features)),
        n_actions=n_actions,
        weights=rng.uniform(-1, 1, (n_features, n_actions)),
    )


@pytest.mark.parametrize("factory", [random_tabular, random_linear])
class TestBothFamilies:
    def test_probabilities_positive_and_normalized(self, factory):
        policy = factory(np.random.default_rng(0))
        for s in range(policy.n_states):
            probs = policy.prob_table()[s]
            assert np.all(probs > 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_log_prob_consistent_with_prob(self, factory):
        policy = factory(np.random.default_rng(1))
        assert policy.log_prob_table() == pytest.approx(np.log(policy.prob_table()))

    def test_score_function_matches_finite_differences(self, factory):
        rng = np.random.default_rng(2)
        policy = factory(rng)
        for _ in range(10):
            s = int(rng.integers(policy.n_states))
            a = int(rng.integers(policy.n_actions))
            np.testing.assert_allclose(
                policy.scores([s], [a])[0],
                finite_difference_log_prob_grad(policy, s, a),
                atol=1e-6,
            )

    def test_param_roundtrip(self, factory):
        policy = factory(np.random.default_rng(3))
        params = policy.get_params()
        policy.set_params(params * 2.0)
        np.testing.assert_allclose(policy.get_params(), params * 2.0)

    def test_max_score_norm_is_global_maximum(self, factory):
        policy = factory(np.random.default_rng(5))
        norms = [
            np.linalg.norm(policy.scores([s], [a])[0])
            for s in range(policy.n_states)
            for a in range(policy.n_actions)
        ]
        assert policy.max_score_norm() == pytest.approx(max(norms), rel=1e-9)


class TestTabularSpecifics:
    def test_equal_logits_give_uniform(self):
        policy = TabularSoftmaxPolicy(2, 2)
        np.testing.assert_allclose(policy.prob_table()[0], [0.5, 0.5])

    def test_score_is_onehot_minus_distribution(self):
        policy = TabularSoftmaxPolicy(1, 2)
        np.testing.assert_allclose(policy.scores([0], [0])[0], [0.5, -0.5])

    def test_greedy_action(self):
        policy = TabularSoftmaxPolicy(1, 3, logits=np.array([[0.0, 2.0, 1.0]]))
        assert policy.tables().greedy[0] == 1

    def test_sampling_follows_distribution(self):
        # Rollouts draw ``bisect_right(cdfs[s], rng.random())``.
        rng = np.random.default_rng(6)
        policy = TabularSoftmaxPolicy(1, 2, logits=np.array([[np.log(3.0), 0.0]]))
        cdf = policy.tables().cdfs[0]
        draws = np.array([bisect_right(cdf, rng.random()) for _ in range(20_000)])
        assert np.mean(draws == 0) == pytest.approx(0.75, abs=0.01)

    @pytest.mark.parametrize("seed", range(8))
    def test_placed_rows_equal_identity_features(self, seed):
        # The override against the base class on identity features: scores
        # and every trajectory_gradients field, on batches of 1-12 step rows
        # over 5 states, so rows revisit states.
        rng = np.random.default_rng(60 + seed)
        n_states, n_actions = 5, 3
        logits = rng.uniform(-3, 3, (n_states, n_actions))
        tabular = TabularSoftmaxPolicy(n_states, n_actions, logits)
        linear = LinearSoftmaxPolicy(np.eye(n_states), n_actions, logits)
        lengths = rng.integers(1, 13, rng.integers(1, 9))
        episodes = [
            Episode(
                rng.integers(0, n_states, n).tolist(), rng.integers(0, n_actions, n).tolist(),
                rng.uniform(0.1, 1.0, n).tolist(), rng.normal(size=n).tolist(),
                rng.integers(0, n_states, n).tolist(),
            )
            for n in lengths
        ]
        states = np.concatenate([e.states for e in episodes])
        actions = np.concatenate([e.actions for e in episodes])
        assert len(np.unique(states)) < len(states)
        np.testing.assert_array_equal(
            tabular.scores(states, actions), linear.scores(states, actions)
        )
        batch = TrajectoryBatch.of(episodes)
        got, want = (trajectory_gradients(batch, policy, 0.9) for policy in (tabular, linear))
        for field in fields(TrajectoryGradients):
            np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))


def test_nan_is_named_before_an_underflow():
    # One minimum test passes valid tables; on failure the NaN check still
    # comes first, as when each check ran on its own.
    policy = TabularSoftmaxPolicy(2, 2, logits=np.array([[np.nan, 0.0], [0.0, 800.0]]))
    with pytest.raises(ValueError, match="probabilities are not finite"):
        policy.tables()


def test_infinite_logit_is_named_not_a_matmul_warning():
    # The tabular logits are the weights themselves: an identity matmul would
    # turn the -inf column NaN with a RuntimeWarning, which the suite makes an
    # error.  The zero probability it gives is rejected by name.
    policy = TabularSoftmaxPolicy(2, 2, logits=[[0.0, 1.0], [-np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"policy probabilities must lie in \(0, 1\]"):
        policy.tables()


# Each would otherwise meet inf - inf or 0 * inf, whose RuntimeWarning the
# suite turns into the error raised.
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: TabularSoftmaxPolicy(2, 2, logits=[[0.0, 1.0], [np.inf, 0.0]]),
                     id="tabular-plus-inf"),
        pytest.param(lambda: TabularSoftmaxPolicy(2, 2, logits=[[0.0, 1.0], [-np.inf, -np.inf]]),
                     id="tabular-row-of-minus-inf"),
        pytest.param(lambda: LinearSoftmaxPolicy(np.eye(2), 2, weights=[[0.0, 1.0], [np.inf, 0.0]]),
                     id="linear-inf-weight"),
    ],
)
def test_non_finite_weights_are_named_without_a_warning(build):
    message = "policy probabilities are not finite: the weights hold NaN or inf"
    with pytest.raises(ValueError, match=message):
        build().tables()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: LinearSoftmaxPolicy(np.ones(4), 2),
                     r"features must be a \(n_states, n_features\) matrix", id="features-1d"),
        pytest.param(lambda: LinearSoftmaxPolicy(np.ones((4, 3)), 2, weights=np.zeros((2, 3))),
                     r"weights shape must be \(n_features, n_actions\)", id="weights-shape"),
        pytest.param(lambda: TabularSoftmaxPolicy(4, 2, logits=np.zeros((2, 4))),
                     r"logits shape must be \(n_states, n_actions\)", id="logits-shape"),
    ],
)
def test_wrong_shapes_rejected_by_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()
