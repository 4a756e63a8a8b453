"""Toy MDPs: exact values against Monte Carlo, rollout semantics, size caps."""

import numpy as np
import pytest

from adaptive_replay.envs import (
    TabularEnv,
    chain_env,
    exact_policy_value,
    gridworld_env,
    optimal_value,
    two_state_bandit_env,
)
from adaptive_replay.gradients import trajectory_return
from adaptive_replay.policies import TabularSoftmaxPolicy


def reference_rollout(env, policy, rng, greedy=False):
    """Per-step ``sample_action`` (or ``greedy_action``) then ``prob``: two
    softmax evaluations per step, the path ``rollout`` must reproduce."""
    states, actions, probs, rewards, next_states = [], [], [], [], []
    s = env.draw_start(rng)
    for _ in range(env.horizon):
        if env.terminal[s]:
            break
        a = policy.greedy_action(s) if greedy else policy.sample_action(s, rng)
        s_next, r = env.step(s, a, rng)
        states.append(s)
        actions.append(a)
        probs.append(policy.prob(s, a))
        rewards.append(r)
        next_states.append(s_next)
        s = s_next
    return states, actions, probs, rewards, next_states


def mc_value(env, policy, episodes, rng):
    total = 0.0
    for _ in range(episodes):
        traj = env.rollout(policy, rng)
        total += trajectory_return(traj, env.gamma)
    return total / episodes


class TestBandit:
    def test_uniform_policy_value(self):
        env = two_state_bandit_env(rewards=(1.0, 0.0), horizon=1)
        policy = TabularSoftmaxPolicy(2, 2)
        assert exact_policy_value(env, policy) == pytest.approx(0.5)

    def test_optimal_value(self):
        env = two_state_bandit_env(rewards=(1.0, 0.0), horizon=1)
        assert optimal_value(env) == pytest.approx(1.0)

    def test_zero_reward_env(self):
        env = two_state_bandit_env(rewards=(0.0, 0.0), horizon=1)
        policy = TabularSoftmaxPolicy(2, 2)
        assert exact_policy_value(env, policy) == 0.0
        assert optimal_value(env) == 0.0


class TestChain:
    def test_optimal_is_discounted_shortest_path(self):
        env = chain_env(5, horizon=8, gamma=0.99)
        assert optimal_value(env) == pytest.approx(0.99**3)

    def test_always_right_policy_is_optimal(self):
        env = chain_env(5)
        policy = TabularSoftmaxPolicy(5, 2, logits=np.tile([0.0, 50.0], (5, 1)))
        assert exact_policy_value(env, policy) == pytest.approx(optimal_value(env))

    def test_rollout_terminates_at_goal(self):
        env = chain_env(5)
        policy = TabularSoftmaxPolicy(5, 2, logits=np.tile([0.0, 50.0], (5, 1)))
        traj = env.rollout(policy, np.random.default_rng(0))
        assert len(traj) == 4
        assert traj.rewards[-1] == 1.0
        assert env.terminal[traj.next_states[-1]]


class TestRollout:
    @pytest.mark.parametrize("greedy", [False, True])
    def test_matches_sample_action_and_prob_reference(self, greedy):
        transitions = np.zeros((3, 2, 3))
        transitions[0, 0] = [0.1, 0.6, 0.3]
        transitions[0, 1] = [0.5, 0.0, 0.5]
        transitions[1, :] = [0.3, 0.3, 0.4]
        transitions[2, :, 2] = 1.0
        coin = TabularEnv(
            name="coin3",
            transitions=transitions,
            rewards=np.array([[1.0, -1.0], [0.5, 0.0], [0.0, 0.0]]),
            terminal=np.array([False, False, True]),
            start_state=0,
            horizon=7,
        )
        for env in (gridworld_env(4, 4), chain_env(5), two_state_bandit_env(), coin):
            rng = np.random.default_rng(21)
            policy = TabularSoftmaxPolicy(
                env.n_states, env.n_actions,
                logits=rng.normal(scale=2.0, size=(env.n_states, env.n_actions)),
            )
            fast, slow = np.random.default_rng(22), np.random.default_rng(22)
            for _ in range(200):
                traj = env.rollout(policy, fast, greedy=greedy)
                expected = reference_rollout(env, policy, slow, greedy=greedy)
                for got, want in zip(
                    (traj.states, traj.actions, traj.behavior_probs, traj.rewards,
                     traj.next_states),
                    expected,
                ):
                    np.testing.assert_array_equal(got, np.array(want))
            assert fast.random() == slow.random(), env.name


class TestGridworld:
    def test_optimal_fixed_start_no_costs(self):
        env = gridworld_env(4, 4, traps=(), step_cost=0.0, exploring_starts=False)
        assert optimal_value(env) == pytest.approx(0.99**5)

    def test_exploring_starts_average_over_cells(self):
        env = gridworld_env(4, 4)
        assert env.start_dist is not None
        assert abs(env.start_dist.sum() - 1.0) < 1e-12
        assert np.all(env.start_dist[env.terminal] == 0.0)

    def test_trap_is_terminal_with_penalty(self):
        env = gridworld_env(4, 4, traps=((1, 2),), exploring_starts=False)
        trap_state = 1 * 4 + 2
        assert env.terminal[trap_state]
        above = 0 * 4 + 2
        down = 1
        assert env.rewards[above, down] == -1.0

    def test_reward_bound(self):
        env = gridworld_env(4, 4)
        assert env.reward_bound == 1.0


class TestExactAgainstMonteCarlo:
    def test_dp_matches_mc_within_3_sigma(self):
        env = gridworld_env(3, 3, traps=(), horizon=6)
        rng = np.random.default_rng(42)
        policy = TabularSoftmaxPolicy(
            env.n_states, env.n_actions, logits=rng.uniform(-1, 1, (env.n_states, env.n_actions))
        )
        exact = exact_policy_value(env, policy)
        episodes = 100_000
        returns = np.empty(episodes)
        for i in range(episodes):
            returns[i] = trajectory_return(env.rollout(policy, rng), env.gamma)
        sem = returns.std(ddof=1) / np.sqrt(episodes)
        assert abs(returns.mean() - exact) <= 3.0 * sem

    def test_stochastic_transitions_supported(self):
        transitions = np.zeros((2, 2, 2))
        transitions[0, 0] = [0.7, 0.3]
        transitions[0, 1] = [0.2, 0.8]
        transitions[1, :, 1] = 1.0
        env = TabularEnv(
            name="coin",
            transitions=transitions,
            rewards=np.array([[1.0, 2.0], [0.0, 0.0]]),
            terminal=np.array([False, True]),
            start_state=0,
            horizon=3,
            gamma=0.9,
        )
        assert not env.deterministic
        policy = TabularSoftmaxPolicy(2, 2)
        exact = exact_policy_value(env, policy)
        rng = np.random.default_rng(7)
        episodes = 200_000
        returns = np.empty(episodes)
        for i in range(episodes):
            returns[i] = trajectory_return(env.rollout(policy, rng), env.gamma)
        sem = returns.std(ddof=1) / np.sqrt(episodes)
        assert abs(returns.mean() - exact) <= 3.0 * sem


class TestSizeCaps:
    def test_state_action_cap_enforced(self):
        env = gridworld_env(6, 6, traps=())  # 36 states x 4 actions > 100
        policy = TabularSoftmaxPolicy(env.n_states, env.n_actions)
        with pytest.raises(ValueError, match="exceeds"):
            exact_policy_value(env, policy)

    def test_horizon_cap_enforced(self):
        env = chain_env(5, horizon=17)
        policy = TabularSoftmaxPolicy(5, 2)
        with pytest.raises(ValueError, match="horizon"):
            exact_policy_value(env, policy)


class TestValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TabularEnv(
                name="bad",
                transitions=np.zeros((2, 1, 2)),
                rewards=np.zeros((2, 1)),
                terminal=np.array([False, True]),
                start_state=0,
                horizon=2,
            )

    def test_start_cannot_be_terminal(self):
        transitions = np.zeros((2, 1, 2))
        transitions[:, :, 1] = 1.0
        with pytest.raises(ValueError, match="terminal"):
            TabularEnv(
                name="bad",
                transitions=transitions,
                rewards=np.zeros((2, 1)),
                terminal=np.array([True, False]),
                start_state=0,
                horizon=2,
            )
