"""Toy MDPs: exact values against Monte Carlo, rollout semantics, size caps."""

import numpy as np
import pytest

from adaptive_replay.envs import (
    ENVIRONMENTS,
    TabularEnv,
    chain_env,
    exact_policy_value,
    gridworld_env,
    optimal_value,
    two_state_bandit_env,
)
from adaptive_replay.gradients import trajectory_return
from adaptive_replay.policies import TabularSoftmaxPolicy
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.store import Trajectory, TrajectoryBatch, WeightedStore
from adaptive_replay.training import MODES, TrainingConfig, run_training


def reference_rollout(env, policy, rng, greedy=False):
    """Per step, a fresh softmax of ``features[s] @ weights`` computed here,
    then ``rng.choice`` over it (or its argmax) and its value at the action,
    sharing nothing with the policy's cached tables: the draws and
    probabilities ``rollout`` must reproduce."""
    states, actions, probs, rewards, next_states = [], [], [], [], []
    s = env.draw_start(rng)
    for _ in range(env.horizon):
        if env.terminal[s]:
            break
        logits = policy.features[s] @ policy.weights
        e = np.exp(logits - logits.max())
        pi = e / e.sum()
        a = int(np.argmax(logits)) if greedy else int(rng.choice(len(pi), p=pi))
        s_next, r = env.step(s, a, rng)
        states.append(s)
        actions.append(a)
        probs.append(pi[a])
        rewards.append(r)
        next_states.append(s_next)
        s = s_next
    return states, actions, probs, rewards, next_states


def reference_trajectory(env, policy, rng, greedy=False):
    columns = reference_rollout(env, policy, rng, greedy=greedy)
    return Trajectory(*(np.array(column) for column in columns))


def coin_env():
    """Stochastic transitions, one of them with a zero-probability entry."""
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0] = [0.1, 0.6, 0.3]
    transitions[0, 1] = [0.5, 0.0, 0.5]
    transitions[1, :] = [0.3, 0.3, 0.4]
    transitions[2, :, 2] = 1.0
    return TabularEnv(
        name="coin3",
        transitions=transitions,
        rewards=np.array([[1.0, -1.0], [0.5, 0.0], [0.0, 0.0]]),
        terminal=np.array([False, False, True]),
        start_state=0,
        horizon=7,
    )


def rollout_envs():
    return (gridworld_env(4, 4), chain_env(5), two_state_bandit_env(), coin_env())


def random_logits_policy(env, rng):
    return TabularSoftmaxPolicy(
        env.n_states, env.n_actions,
        logits=rng.normal(scale=2.0, size=(env.n_states, env.n_actions)),
    )


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
        for env in rollout_envs():
            rng = np.random.default_rng(21)
            policy = random_logits_policy(env, rng)
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

    @pytest.mark.parametrize("greedy", [False, True])
    def test_store_rows_equal_rows_of_reference_trajectories(self, greedy):
        # The rollout's lists go into store rows unconverted; the rows must
        # equal those TrajectoryBatch.of builds from checked Trajectory records.
        shorter = 0
        for env in rollout_envs():
            policy = random_logits_policy(env, np.random.default_rng(31))
            fast, slow = np.random.default_rng(32), np.random.default_rng(32)
            n = 40
            store = WeightedStore(n, kappa=0.1)
            sampler = SamplerState(SamplerConfig(capacity=n))
            expected = []
            for _ in range(n):
                store.insert(env.rollout(policy, fast, greedy=greedy), sampler)
                expected.append(reference_trajectory(env, policy, slow, greedy=greedy))
            want = TrajectoryBatch.of(expected)
            np.testing.assert_array_equal(store.lengths, want.lengths, err_msg=env.name)
            for name in ("states", "actions", "behavior_probs", "rewards", "next_states"):
                got, ref = getattr(store, name), getattr(want, name)
                assert got.dtype == ref.dtype, (env.name, name)
                np.testing.assert_array_equal(got, ref, err_msg=f"{env.name} {name}")

            # One slot rewritten in turn: a shorter episode leaves the longer
            # one's steps as padding past its length, which readers mask.
            single = WeightedStore(1, kappa=0.1)
            for _ in range(n):
                previous = single.lengths[0]
                single.insert(env.rollout(policy, fast, greedy=greedy), sampler)
                ref = TrajectoryBatch.of([reference_trajectory(env, policy, slow, greedy=greedy)])
                length = ref.lengths[0]
                shorter += length < previous
                assert single.lengths[0] == length
                for name in ("states", "actions", "behavior_probs", "rewards", "next_states"):
                    np.testing.assert_array_equal(
                        getattr(single, name)[0, :length], getattr(ref, name)[0],
                        err_msg=f"{env.name} {name}",
                    )
        assert shorter > 0


class TestCachedPolicyTables:
    """``rollout`` reads a table the policy caches per parameter setting; it
    must never outlive the weights it was built from."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("env_name", sorted(ENVIRONMENTS))
    def test_training_traces_equal_reference_rollout_traces(self, monkeypatch, env_name, mode):
        config = TrainingConfig(
            total_steps=120, batch_size=4, buffer_capacity=16, learning_rate=0.5,
            selection_mode=mode, seed=3, eval_every=30, eval_episodes=5,
            probe_every=60, probe_repeats=20,
            updates_per_episode=2 if mode == "adaptive_epoch" else 1,
        )
        fast = run_training(ENVIRONMENTS[env_name](), config)

        monkeypatch.setattr(TabularEnv, "rollout", reference_trajectory)
        slow = run_training(ENVIRONMENTS[env_name](), config)
        for name in ("steps", "returns", "probes", "probes_uniform", "entropies", "reset_counts"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name), err_msg=name)
        assert fast.ratio_cap_hits == slow.ratio_cap_hits

    def test_write_into_set_params_argument_leaves_rollouts_unchanged(self):
        env = gridworld_env(4, 4)
        params = np.random.default_rng(4).normal(scale=2.0, size=env.n_states * env.n_actions)
        original = params.copy()
        policy = TabularSoftmaxPolicy(env.n_states, env.n_actions)
        policy.set_params(params)
        params[:] = 0.0
        fresh = TabularSoftmaxPolicy(
            env.n_states, env.n_actions, logits=original.reshape(env.n_states, env.n_actions)
        )
        np.testing.assert_array_equal(policy.get_params(), original)
        for greedy in (False, True):
            rng, fresh_rng = np.random.default_rng(9), np.random.default_rng(9)
            for _ in range(50):
                got = env.rollout(policy, rng, greedy=greedy)
                want = env.rollout(fresh, fresh_rng, greedy=greedy)
                np.testing.assert_array_equal(got.actions, want.actions)
                np.testing.assert_array_equal(got.behavior_probs, want.behavior_probs)

    def test_cached_arrays_are_read_only(self):
        policy = TabularSoftmaxPolicy(3, 2)
        for table in (policy.prob_table(), policy.log_prob_table(), policy.prob_table()[0]):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_nan_weights_rejected_by_name(self):
        env = chain_env(5)
        policy = TabularSoftmaxPolicy(5, 2)
        params = policy.get_params()
        params[3] = np.nan  # state 1; episodes start in state 0
        policy.set_params(params)
        with pytest.raises(ValueError, match="probabilities are not finite"):
            env.rollout(policy, np.random.default_rng(0))

    def test_underflowed_probability_rejected_by_name(self):
        # A logit gap past ~745 makes exp underflow, so a probability is 0.
        env = chain_env(5)
        policy = TabularSoftmaxPolicy(5, 2, logits=np.tile([0.0, 800.0], (5, 1)))
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            policy.tables()
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            env.rollout(policy, np.random.default_rng(0), greedy=True)


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

    def test_negative_transition_entry_rejected(self):
        transitions = np.zeros((2, 2, 2))
        transitions[0, 0] = [1.5, -0.5]
        transitions[0, 1, 1] = 1.0
        transitions[1, :, 1] = 1.0
        with pytest.raises(ValueError, match="transition probabilities must be non-negative"):
            TabularEnv(
                name="bad",
                transitions=transitions,
                rewards=np.zeros((2, 2)),
                terminal=np.array([False, True]),
                start_state=0,
                horizon=2,
            )

    def test_negative_start_entry_rejected(self):
        transitions = np.zeros((3, 1, 3))
        transitions[:, :, 2] = 1.0
        with pytest.raises(ValueError, match="start distribution must be non-negative"):
            TabularEnv(
                name="bad",
                transitions=transitions,
                rewards=np.zeros((3, 1)),
                terminal=np.array([False, False, True]),
                start_state=0,
                horizon=2,
                start_dist=np.array([1.5, -0.5, 0.0]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, bad):
        transitions = np.zeros((2, 2, 2))
        transitions[:, :, 1] = 1.0
        rewards = np.zeros((2, 2))
        rewards[0, 1] = bad
        with pytest.raises(ValueError, match="rewards must be finite"):
            TabularEnv(
                name="bad",
                transitions=transitions,
                rewards=rewards,
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


def three_state_env(**overrides):
    """A one-action env whose every move ends in terminal state 2."""
    transitions = np.zeros((3, 1, 3))
    transitions[:, :, 2] = 1.0
    fields = dict(
        name="three", transitions=transitions, rewards=np.zeros((3, 1)),
        terminal=np.array([False, False, True]), start_state=0, horizon=2,
    )
    return TabularEnv(**{**fields, **overrides})


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: three_state_env(start_dist=np.array([0.5, 0.4, 0.0])),
                     "start distribution must sum to 1", id="start-sum"),
        pytest.param(lambda: three_state_env(start_dist=np.array([0.5, 0.0, 0.5])),
                     "start distribution must not touch terminal states", id="start-terminal"),
        pytest.param(lambda: three_state_env(gamma=0.0), r"gamma must lie in \(0, 1\)",
                     id="gamma-0"),
        pytest.param(lambda: three_state_env(gamma=1.0), r"gamma must lie in \(0, 1\)",
                     id="gamma-1"),
        pytest.param(lambda: three_state_env(horizon=0), "horizon must be >= 1", id="horizon-0"),
        pytest.param(lambda: gridworld_env(3, 3, goal=(3, 0)),
                     r"cell \(3, 0\) is outside the 3x3 grid", id="goal-outside"),
        pytest.param(lambda: gridworld_env(3, 3, traps=((0, -1),)),
                     r"cell \(0, -1\) is outside the 3x3 grid", id="trap-outside"),
    ],
)
def test_invalid_env_rejected_by_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"rewards": np.zeros((4, 1))},
                     r"rewards must have shape \(3, 1\), got \(4, 1\)", id="reward-extra-row"),
        pytest.param({"terminal": np.array([False, True])},
                     r"terminal must have shape \(3,\), got \(2,\)", id="terminal-short"),
        pytest.param({"start_dist": np.array([0.5, 0.5])},
                     r"start_dist must have shape \(3,\), got \(2,\)", id="start-dist-short"),
        pytest.param({"start_state": -2},
                     r"start_state must lie in \[0, 3\), got -2", id="start-negative"),
        pytest.param({"start_state": 3},
                     r"start_state must lie in \[0, 3\), got 3", id="start-past-end"),
        pytest.param({"transitions": np.ones((3, 1))},
                     r"transitions must have shape \(S, A, S\), got \(3, 1\)", id="transitions-2d"),
        pytest.param({"transitions": np.full((3, 1, 2), 0.5)},
                     r"transitions must have shape \(S, A, S\), got \(3, 1, 2\)",
                     id="transitions-not-square"),
    ],
)
def test_mismatched_table_shapes_rejected_by_name(overrides, message):
    # Each table is valid on its own; only its shape against transitions is wrong.
    with pytest.raises(ValueError, match=message):
        three_state_env(**overrides)
