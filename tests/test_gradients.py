"""Importance ratios, trajectory gradients, estimators, and the variance objective."""

import numpy as np
import pytest

from adaptive_replay import gradients
from adaptive_replay.gradients import (
    gradient_variance,
    replay_gradient,
    trajectory_gradients,
    trajectory_return,
    variance_objective,
)
from adaptive_replay.policies import LinearSoftmaxPolicy, TabularSoftmaxPolicy
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.simplex import minimize_on_simplex
from adaptive_replay.store import Trajectory, TrajectoryBatch, WeightedStore


def traj_from(states, actions, probs, rewards):
    states = np.asarray(states)
    return Trajectory(
        states=states,
        actions=np.asarray(actions),
        behavior_probs=np.asarray(probs, dtype=float),
        rewards=np.asarray(rewards, dtype=float),
        next_states=np.roll(states, -1),
    )


def random_policy(rng, n_states=4, n_actions=3):
    return TabularSoftmaxPolicy(
        n_states, n_actions, logits=rng.uniform(-1.5, 1.5, (n_states, n_actions))
    )


def random_traj(rng, policy, length):
    states = rng.integers(0, policy.n_states, length)
    actions = rng.integers(0, policy.n_actions, length)
    return Trajectory(
        states=states,
        actions=actions,
        behavior_probs=rng.uniform(0.2, 1.0, length),
        rewards=rng.normal(size=length),
        next_states=rng.integers(0, policy.n_states, length),
    )


def with_rewards(traj, rewards):
    """``traj`` with other rewards, as a new record: records are not edited in place."""
    return Trajectory(traj.states, traj.actions, traj.behavior_probs, rewards, traj.next_states)


def importance_ratio(traj, policy, log_cap=50.0):
    return trajectory_gradients(TrajectoryBatch.of([traj]), policy, 0.9, log_cap=log_cap).omega[0]


def score_return_grad(traj, policy, gamma):
    return trajectory_gradients(TrajectoryBatch.of([traj]), policy, gamma).g[0]


class TestImportanceRatio:
    def test_identical_policies_give_one(self):
        rng = np.random.default_rng(0)
        policy = random_policy(rng)
        states = rng.integers(0, 4, 5)
        actions = rng.integers(0, 3, 5)
        probs = policy.prob_table()[states, actions]
        traj = traj_from(states, actions, probs, np.zeros(5))
        assert importance_ratio(traj, policy) == pytest.approx(1.0)

    def test_product_of_per_step_ratios(self):
        # Per-step target probabilities 0.5 each; behavior 0.25 and 1.0 gives
        # ratios 2.0 and 0.5, whose product is 1.
        policy = TabularSoftmaxPolicy(1, 2)
        traj = traj_from([0, 0], [0, 1], [0.25, 1.0], [0.0, 0.0])
        assert importance_ratio(traj, policy) == pytest.approx(1.0)

    def test_three_doubling_steps(self):
        policy = TabularSoftmaxPolicy(1, 2)  # target prob 0.5 everywhere
        traj = traj_from([0, 0, 0], [0, 0, 0], [0.25, 0.25, 0.25], [0.0] * 3)
        assert importance_ratio(traj, policy) == pytest.approx(8.0)

    def test_cap_activates_and_counts(self):
        policy = TabularSoftmaxPolicy(1, 2)
        traj = traj_from([0], [0], [1e-8], [0.0])
        grads = trajectory_gradients(TrajectoryBatch.of([traj]), policy, 0.9, log_cap=5.0)
        assert grads.omega[0] == pytest.approx(np.exp(5.0))
        assert grads.cap_hits == 1


class TestScoreReturnGrad:
    def test_zero_rewards_give_zero_vector(self):
        rng = np.random.default_rng(1)
        policy = random_policy(rng)
        traj = with_rewards(random_traj(rng, policy, 4), np.zeros(4))
        np.testing.assert_array_equal(score_return_grad(traj, policy, 0.9), np.zeros(12))

    def test_single_step_equal_logits(self):
        policy = TabularSoftmaxPolicy(1, 2)
        traj = traj_from([0], [0], [0.5], [1.0])
        np.testing.assert_allclose(score_return_grad(traj, policy, 0.9), [0.5, -0.5])

    def test_discounted_return(self):
        traj = traj_from([0, 0, 0], [0, 0, 0], [0.5] * 3, [1.0, 2.0, 4.0])
        assert trajectory_return(traj, 0.5) == pytest.approx(1.0 + 1.0 + 1.0)

    def test_matches_finite_differences_on_random_instances(self):
        # Central finite differences of log p(traj) * R are the oracle.
        rng = np.random.default_rng(2)
        for _ in range(100):
            policy = random_policy(rng)
            traj = random_traj(rng, policy, int(rng.integers(1, 6)))
            gamma = float(rng.uniform(0.5, 0.99))
            analytic = score_return_grad(traj, policy, gamma)
            ret = trajectory_return(traj, gamma)
            h = 1e-6
            params = policy.get_params()
            probe = policy.copy()
            fd = np.empty_like(params)
            for i in range(len(params)):
                shifted = params.copy()
                shifted[i] += h
                probe.set_params(shifted)
                up = sum(probe.log_prob_table()[traj.states, traj.actions])
                shifted[i] -= 2 * h
                probe.set_params(shifted)
                down = sum(probe.log_prob_table()[traj.states, traj.actions])
                fd[i] = (up - down) / (2 * h) * ret
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - fd)) / scale < 1e-5


class TestReplayGradient:
    def test_uniform_full_coverage_equals_buffer_mean(self):
        rng = np.random.default_rng(3)
        policy = random_policy(rng)
        n = 6
        trajs = [random_traj(rng, policy, 3) for _ in range(n)]
        grads = trajectory_gradients(TrajectoryBatch.of(trajs), policy, 0.9)
        p = np.full(n, 1.0 / n)
        estimate = replay_gradient(grads.omega, grads.g, p, n, np.arange(n))
        np.testing.assert_allclose(
            estimate, (grads.omega[:, None] * grads.g).mean(axis=0), rtol=1e-12
        )

    def test_single_slot_buffer_is_exact(self):
        rng = np.random.default_rng(4)
        policy = random_policy(rng)
        grads = trajectory_gradients(TrajectoryBatch.of([random_traj(rng, policy, 3)]), policy, 0.9)
        drawn = np.zeros(3, dtype=np.int64)
        estimate = replay_gradient(grads.omega, grads.g, np.ones(1), 1, drawn)
        np.testing.assert_allclose(estimate, grads.omega[0] * grads.g[0], rtol=1e-12)

    def test_monte_carlo_mean_is_p_free(self):
        rng = np.random.default_rng(5)
        policy = random_policy(rng)
        n, batch, repeats = 8, 4, 40_000
        trajs = [random_traj(rng, policy, 3) for _ in range(n)]
        grads = trajectory_gradients(TrajectoryBatch.of(trajs), policy, 0.9)
        weighted = grads.omega[:, None] * grads.g
        target = weighted.mean(axis=0)
        for p in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n) + 1.0)):
            lam = 1.0 / (p * n)
            rows = weighted * lam[:, None]
            idx = rng.choice(n, size=(repeats, batch), p=p)
            estimates = rows[idx].mean(axis=1)
            sem = estimates.std(axis=0, ddof=1) / np.sqrt(repeats)
            assert np.all(np.abs(estimates.mean(axis=0) - target) <= 3.5 * sem + 1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            replay_gradient(
                np.empty(0), np.empty((0, 2)), np.empty(0), 1, np.empty(0, dtype=np.int64)
            )


def enumerate_exact_gradient(env, policy):
    """Exhaustive oracle: sum p(traj) * grad log p(traj) * R(traj) over every
    realizable trajectory (deterministic transitions, H <= 4).  Enumeration
    stops at terminal states so each trajectory is counted exactly once."""
    total = np.zeros(policy.weights.size)

    def recurse(s, depth, prob, score, ret, discount):
        nonlocal total
        if env.terminal[s] or depth == env.horizon:
            total += prob * score * ret
            return
        for a in range(env.n_actions):
            pi = policy.prob_table()[s, a]
            recurse(
                int(np.argmax(env.transitions[s, a])),
                depth + 1,
                prob * pi,
                score + policy.scores([s], [a])[0],
                ret + discount * env.rewards[s, a],
                discount * env.gamma,
            )

    recurse(env.start_state, 0, 1.0, np.zeros(policy.weights.size), 0.0, 1.0)
    return total


def onpolicy_gradient(trajs, policy, gamma):
    """Monte Carlo policy gradient from on-policy rollouts: the mean score-return gradient."""
    return trajectory_gradients(TrajectoryBatch.of(trajs), policy, gamma).g.mean(axis=0)


class TestOnPolicyGradient:
    def test_matches_exhaustive_enumeration_oracle(self):
        from adaptive_replay.envs import chain_env

        env = chain_env(3, horizon=4, gamma=0.9)
        rng = np.random.default_rng(23)
        policy = TabularSoftmaxPolicy(
            env.n_states, env.n_actions, logits=rng.uniform(-1, 1, (env.n_states, env.n_actions))
        )
        exact = enumerate_exact_gradient(env, policy)
        episodes = 10_000
        per_traj = np.empty((episodes, policy.weights.size))
        for i in range(episodes):
            traj = env.rollout(policy, rng)
            per_traj[i] = score_return_grad(traj, policy, env.gamma)
        sem = per_traj.std(axis=0, ddof=1) / np.sqrt(episodes)
        estimate = onpolicy_gradient(
            [env.rollout(policy, rng) for _ in range(episodes)], policy, env.gamma
        )
        # Both the one-trajectory calls and the batched mean must agree with
        # the enumeration within Monte Carlo error.
        tol = 3.0 * np.maximum(sem, 1e-12)
        assert np.all(np.abs(per_traj.mean(axis=0) - exact) <= tol)
        assert np.all(np.abs(estimate - exact) <= np.maximum(3.5 * sem, 1e-9))

    def test_replay_mean_matches_onpolicy_mean_for_current_policy_buffer(self):
        # Buffer filled with current-policy rollouts: every importance ratio
        # is exactly 1 and the replay estimator agrees with the on-policy one.
        from adaptive_replay.envs import chain_env

        env = chain_env(3, horizon=4, gamma=0.9)
        rng = np.random.default_rng(22)
        policy = TabularSoftmaxPolicy(
            env.n_states, env.n_actions, logits=rng.uniform(-1, 1, (env.n_states, env.n_actions))
        )
        trajs = [env.rollout(policy, rng) for _ in range(64)]
        grads = trajectory_gradients(TrajectoryBatch.of(trajs), policy, env.gamma)
        assert np.allclose(grads.omega, 1.0)
        onpolicy = onpolicy_gradient(trajs, policy, env.gamma)
        p = np.full(64, 1.0 / 64)
        repeats, batch = 30_000, 8
        rows = (grads.omega / (p * 64))[:, None] * grads.g
        idx = rng.choice(64, size=(repeats, batch), p=p)
        estimates = rows[idx].mean(axis=1)
        sem = estimates.std(axis=0, ddof=1) / np.sqrt(repeats)
        assert np.all(np.abs(estimates.mean(axis=0) - onpolicy) <= 3.5 * sem + 1e-12)

    def test_single_trajectory(self):
        # A trajectory's row does not depend on the batch it is computed in.
        rng = np.random.default_rng(6)
        policy = random_policy(rng)
        trajs = [random_traj(rng, policy, int(rng.integers(1, 5))) for _ in range(4)]
        batched = trajectory_gradients(TrajectoryBatch.of(trajs), policy, 0.9).g
        for traj, row in zip(trajs, batched):
            np.testing.assert_allclose(row, score_return_grad(traj, policy, 0.9))

    def test_zero_rewards(self):
        rng = np.random.default_rng(7)
        policy = random_policy(rng)
        trajs = [with_rewards(random_traj(rng, policy, 3), np.zeros(3)) for _ in range(4)]
        np.testing.assert_array_equal(onpolicy_gradient(trajs, policy, 0.9), np.zeros(12))

    def test_empty_list_rejected(self):
        policy = TabularSoftmaxPolicy(2, 2)
        with pytest.raises(ValueError, match="zero trajectories"):
            trajectory_gradients(TrajectoryBatch.of([]), policy, 0.9)


class TestVarianceObjective:
    def test_direct_arithmetic(self):
        assert variance_objective([1.0, 3.0], [0.5, 0.5]) == pytest.approx(8.0)

    def test_all_zero_losses(self):
        assert variance_objective([0.0, 0.0], [0.5, 0.5]) == 0.0

    def test_zero_loss_tolerates_zero_probability(self):
        assert variance_objective([0.0, 2.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_positive_loss_on_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            variance_objective([1.0, 1.0], [0.0, 1.0])

    def test_sqrt_allocation_is_the_minimizer(self):
        d = np.array([4.0, 1.0])
        optimum = np.array([2.0 / 3.0, 1.0 / 3.0])
        assert variance_objective(d, optimum) == pytest.approx(9.0)
        oracle = minimize_on_simplex(
            lambda p: variance_objective(d, p), 2, grad=lambda p: -d / p**2
        )
        np.testing.assert_allclose(oracle, optimum, atol=1e-7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            q = rng.dirichlet([1.0, 1.0])
            assert variance_objective(d, q) >= 9.0 - 1e-9

    def test_convexity_probe(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            d = rng.uniform(0, 5, n)
            p1 = rng.dirichlet(np.ones(n))
            p2 = rng.dirichlet(np.ones(n))
            alpha = float(rng.uniform(0, 1))
            blend = alpha * p1 + (1 - alpha) * p2
            assert variance_objective(d, blend) <= (
                alpha * variance_objective(d, p1)
                + (1 - alpha) * variance_objective(d, p2)
                + 1e-9
            )


def reference_gradients(trajs, policy, gamma, log_cap):
    """The per-step scalar loop: softmax rows and outer-product scores, one step at a time.

    Written from the softmax-linear definition alone (features, weights), so
    it shares no code with the package.  Returns omega, g, d and the number
    of capped log ratios.
    """
    omegas, gs, hits = [], [], 0
    for traj in trajs:
        log_ratio = 0.0
        score = np.zeros((policy.n_features, policy.n_actions))
        ret = 0.0
        for t in range(len(traj)):
            s, a = int(traj.states[t]), int(traj.actions[t])
            logits = policy.features[s] @ policy.weights
            logits = logits - logits.max()
            pi = np.exp(logits) / np.exp(logits).sum()
            log_ratio += np.log(pi[a]) - np.log(traj.behavior_probs[t])
            residual = -pi
            residual[a] += 1.0
            score += np.outer(policy.features[s], residual)
            ret += gamma**t * traj.rewards[t]
        if log_ratio > log_cap:
            log_ratio = log_cap
            hits += 1
        omegas.append(np.exp(log_ratio))
        gs.append(score.ravel() * ret)
    omega, g = np.array(omegas), np.array(gs)
    return omega, g, omega**2 * (g**2).sum(axis=1), hits


def random_linear_policy(rng, n_states=5, n_features=3, n_actions=3):
    return LinearSoftmaxPolicy(
        features=rng.normal(size=(n_states, n_features)),
        n_actions=n_actions,
        weights=rng.uniform(-1, 1, (n_features, n_actions)),
    )


class TestBatchedAgainstScalarReference:
    @pytest.mark.parametrize("factory", [random_policy, random_linear_policy])
    def test_matches_per_step_loop(self, factory):
        rng = np.random.default_rng(14)
        for _ in range(100):
            policy = factory(rng)
            trajs = [
                random_traj(rng, policy, int(rng.integers(1, 13)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            gamma = float(rng.uniform(0.5, 0.99))
            grads = trajectory_gradients(TrajectoryBatch.of(trajs), policy, gamma)
            omega, g, d, hits = reference_gradients(trajs, policy, gamma, 50.0)
            np.testing.assert_allclose(grads.omega, omega, rtol=1e-12)
            np.testing.assert_allclose(grads.g, g, rtol=1e-12)
            np.testing.assert_allclose(grads.d, d, rtol=1e-12)
            assert grads.cap_hits == hits == 0

    def test_loss_is_squared_weighted_norm(self):
        rng = np.random.default_rng(15)
        policy = random_policy(rng)
        trajs = [random_traj(rng, policy, int(rng.integers(1, 13))) for _ in range(50)]
        grads = trajectory_gradients(TrajectoryBatch.of(trajs), policy, 0.9)
        for omega, g, d in zip(grads.omega, grads.g, grads.d):
            assert d == pytest.approx(omega**2 * float(g @ g), rel=1e-12)

    def test_cap_hits_match_reference(self):
        # A cap at the median log ratio clamps exactly half of the batch.
        rng = np.random.default_rng(16)
        policy = random_policy(rng)
        trajs = [random_traj(rng, policy, int(rng.integers(1, 13))) for _ in range(40)]
        log_cap = float(np.median(np.log(reference_gradients(trajs, policy, 0.9, np.inf)[0])))
        grads = trajectory_gradients(TrajectoryBatch.of(trajs), policy, 0.9, log_cap=log_cap)
        omega, g, d, hits = reference_gradients(trajs, policy, 0.9, log_cap)
        assert grads.cap_hits == hits == 20
        np.testing.assert_allclose(grads.omega, omega, rtol=1e-12)
        np.testing.assert_allclose(grads.d, d, rtol=1e-12)

    def test_store_rows_match_reference_as_width_grows(self):
        # Short trajectories go in first, so every later, longer insert widens
        # the columns the earlier rows sit in.
        rng = np.random.default_rng(17)
        policy = random_policy(rng)
        trajs = [random_traj(rng, policy, length) for length in (1, 1, 2, 3, 3, 5, 8, 12)]
        store = WeightedStore(len(trajs), kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=len(trajs)))
        widths = []
        for traj in trajs:
            store.insert(traj, sampler)
            widths.append(store.width)
        assert widths == [1, 1, 2, 3, 3, 5, 8, 12]
        omega, g, d, _ = reference_gradients(trajs, policy, 0.9, 50.0)
        backwards = np.arange(len(trajs))[::-1]
        for batch, order in ((store, np.arange(len(trajs))), (store.take(backwards), backwards)):
            grads = trajectory_gradients(batch, policy, 0.9)
            np.testing.assert_allclose(grads.omega, omega[order], rtol=1e-12)
            np.testing.assert_allclose(grads.g, g[order], rtol=1e-12)
            np.testing.assert_allclose(grads.d, d[order], rtol=1e-12)

    def test_overwritten_slot_reads_no_stale_padding(self):
        # A shorter trajectory overwrites a longer one: the cells past its
        # length still hold the old steps and must not reach the gradient.
        rng = np.random.default_rng(18)
        policy = random_policy(rng)
        store = WeightedStore(4, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=4))
        for _ in range(4):
            store.insert(random_traj(rng, policy, 12), sampler)
        for length in (1, 2, 5, 11):
            short = random_traj(rng, policy, length)
            slot = store.insert(short, sampler)
            fresh = trajectory_gradients(TrajectoryBatch.of([short]), policy, 0.9)
            for row, batch in ((0, store.take(np.array([slot]))), (slot, store)):
                grads = trajectory_gradients(batch, policy, 0.9)
                assert grads.omega[row] == fresh.omega[0]
                np.testing.assert_array_equal(grads.g[row], fresh.g[0])
                assert grads.d[row] == fresh.d[0]

    def test_unfilled_slot_rejected(self):
        rng = np.random.default_rng(19)
        policy = random_policy(rng)
        store = WeightedStore(2, kappa=0.1)
        store.insert(random_traj(rng, policy, 3), SamplerState(SamplerConfig(capacity=2)))
        with pytest.raises(ValueError, match="empty row"):
            trajectory_gradients(store, policy, 0.9)


class TestEmpiricalVariance:
    def _filled_store(self, rng, capacity, policy, reward_scale=None):
        store = WeightedStore(capacity, kappa=0.0)
        sampler = SamplerState(SamplerConfig(capacity=capacity, nu=1.0, kappa=0.0))
        for i in range(capacity):
            traj = random_traj(rng, policy, 3)
            if reward_scale is not None:
                traj = with_rewards(traj, np.multiply(traj.rewards, reward_scale[i]))
            store.insert(traj, sampler)
        return store, sampler

    def test_single_slot_estimator_is_deterministic(self):
        rng = np.random.default_rng(10)
        policy = random_policy(rng)
        store, sampler = self._filled_store(rng, 1, policy)
        grads = trajectory_gradients(store, policy, 0.9)
        value = gradient_variance(grads, sampler.distribution(), 3, 50, rng)
        assert value == pytest.approx(0.0, abs=1e-18)

    def test_matches_analytic_single_sample_variance(self):
        # For batch size 1: trace of Cov = sum_i d(i)/(p(i) n^2) - ||mean||^2.
        rng = np.random.default_rng(11)
        policy = random_policy(rng)
        n = 6
        store, sampler = self._filled_store(rng, n, policy)
        sampler.w[:] = rng.uniform(0, 20, n)
        p = sampler.distribution()
        grads = trajectory_gradients(store, policy, 0.9)
        d = grads.d
        mean = np.mean(grads.omega[:, None] * grads.g, axis=0)
        analytic = float(np.sum(d / (p * n**2)) - mean @ mean)
        repeats = 200_000
        estimate = gradient_variance(grads, p, 1, repeats, np.random.default_rng(0))
        # 3 sigma via the variance of the per-repeat squared deviations.
        rows = (grads.omega / (p * n))[:, None] * grads.g
        idx = np.random.default_rng(1).choice(n, size=repeats, p=p)
        sq = ((rows[idx] - mean) ** 2).sum(axis=1)
        sem = sq.std(ddof=1) / np.sqrt(repeats)
        assert abs(estimate - analytic) <= 3.0 * sem

    @pytest.mark.parametrize("batch", [1, 4, 8, 13])
    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "uniform"])
    def test_probe_is_the_sample_variance_of_replay_gradients(self, batch, learned, monkeypatch):
        # The probe measures the estimator the update runs: one replay_gradient
        # call over all its repeats, equal bit for bit to a call per repeat.
        rng = np.random.default_rng(14)
        policy = random_policy(rng)
        n, repeats = 12, 300
        scales = 10.0 ** np.linspace(0, 1.5, n)
        store, sampler = self._filled_store(rng, n, policy, reward_scale=scales)
        grads = trajectory_gradients(store, policy, 0.9)
        sampler.w[:] = grads.d * 50.0
        p = sampler.distribution() if learned else np.full(n, 1.0 / n)
        draws = np.random.default_rng(15).choice(n, size=(repeats, batch), p=p)
        loop = np.array([replay_gradient(grads.omega, grads.g, p, n, row) for row in draws])
        calls = []

        def spy(*args):
            calls.append(args[-1].shape)
            return replay_gradient(*args)

        monkeypatch.setattr(gradients, "replay_gradient", spy)
        value = gradient_variance(grads, p, batch, repeats, np.random.default_rng(15))
        assert calls == [(repeats, batch)]
        assert value == float(loop.var(axis=0, ddof=1).sum())

    def test_requires_two_repeats(self):
        rng = np.random.default_rng(12)
        policy = random_policy(rng)
        store, sampler = self._filled_store(rng, 2, policy)
        with pytest.raises(ValueError, match="repeats"):
            gradient_variance(
                trajectory_gradients(store, policy, 0.9), sampler.distribution(), 2, 1, rng
            )

    def test_learned_distribution_beats_uniform_on_spread_losses(self):
        rng = np.random.default_rng(13)
        policy = random_policy(rng)
        n = 12
        scales = 10.0 ** np.linspace(0, 1.5, n)
        store, sampler = self._filled_store(rng, n, policy, reward_scale=scales)
        grads = trajectory_gradients(store, policy, 0.9)
        d = grads.d
        sampler.w[:] = d * 50.0
        learned = sampler.distribution()
        uniform = np.full(n, 1.0 / n)
        seed = 99
        var_learned = gradient_variance(grads, learned, 2, 4000, np.random.default_rng(seed))
        var_uniform = gradient_variance(grads, uniform, 2, 4000, np.random.default_rng(seed))
        assert var_learned < var_uniform
