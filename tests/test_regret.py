"""Competitor closed forms against the numeric oracle, ledgers, and bound checks."""

import numpy as np
import pytest

from adaptive_replay.envs import chain_env
from adaptive_replay.policies import TabularSoftmaxPolicy
from adaptive_replay.regret import (
    RegretLedger,
    best_static_cost,
    check_loss_bound,
    drifting_sequence,
    dynamic_competitor,
    fit_loglog_slope,
    min_step_cost,
    run_regret_experiment,
    scaled_noise_sequence,
    static_competitor,
    stationary_sequence,
)
from adaptive_replay.sampler import SamplerConfig
from adaptive_replay.simplex import minimize_on_simplex
from adaptive_replay.store import Trajectory


class TestStaticCompetitor:
    def test_single_step_sqrt_rule(self):
        result = static_competitor(np.array([[4.0, 1.0]]))
        np.testing.assert_allclose(result.p, [2.0 / 3.0, 1.0 / 3.0])
        assert not result.degenerate

    def test_equal_column_sums_give_uniform(self):
        d = np.array([[1.0, 3.0], [3.0, 1.0]])
        np.testing.assert_allclose(static_competitor(d).p, [0.5, 0.5])

    def test_all_zero_matrix_flagged_uniform(self):
        result = static_competitor(np.zeros((3, 4)))
        assert result.degenerate
        np.testing.assert_allclose(result.p, np.full(4, 0.25))

    def test_matches_numeric_minimizer_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(0.05, 10.0, size=(20, 10))
            closed = static_competitor(d).p
            sums = d.sum(axis=0)
            oracle = minimize_on_simplex(
                lambda p: float(np.sum(sums / p)), 10, grad=lambda p: -sums / p**2
            )
            np.testing.assert_allclose(closed, oracle, atol=1e-6)

    def test_best_static_cost_closed_form(self):
        d = np.array([[4.0, 1.0]])
        assert best_static_cost(d) == pytest.approx(9.0)
        assert variance_cost(d.sum(axis=0), static_competitor(d).p) == pytest.approx(9.0)


def variance_cost(d_row, p):
    return float(np.sum(np.asarray(d_row) / np.asarray(p)))


class TestDynamicCompetitor:
    def test_sqrt_rule(self):
        result = dynamic_competitor(np.array([4.0, 1.0]))
        np.testing.assert_allclose(result.p, [2.0 / 3.0, 1.0 / 3.0])

    def test_one_nonzero_entry_concentrates_and_flags(self):
        result = dynamic_competitor(np.array([0.0, 5.0, 0.0]))
        np.testing.assert_allclose(result.p, [0.0, 1.0, 0.0])
        assert result.degenerate

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.uniform(0.05, 10.0, size=12)
            closed = dynamic_competitor(d).p
            oracle = minimize_on_simplex(
                lambda p: float(np.sum(d / p)), 12, grad=lambda p: -d / p**2
            )
            np.testing.assert_allclose(closed, oracle, atol=1e-6)

    def test_min_step_cost_matches_direct_evaluation(self):
        d = np.array([1.0, 3.0, 0.2])
        assert min_step_cost(d) == pytest.approx(variance_cost(d, dynamic_competitor(d).p))

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError, match="non-negative"):
            dynamic_competitor(np.array([1.0, -0.5]))


class TestLedger:
    def test_invariants_on_random_runs(self):
        config = SamplerConfig(capacity=8, nu=1.0, kappa=0.2, reset_period=25)
        ledgers = run_regret_experiment(
            scaled_noise_sequence(orders=1.5), config, T=200, seeds=range(5), feedback="bandit"
        )
        for ledger in ledgers:
            assert ledger.cumulative_dynamic >= ledger.cumulative_static >= 0.0
            assert ledger.steps == 200
            assert np.all(np.diff(ledger.realized_cum) > 0)

    def test_stationary_full_information_regret_rate_decreases(self):
        config = SamplerConfig(capacity=8, nu=1.0, kappa=0.0, reset_period=10**9)
        (ledger,) = run_regret_experiment(
            stationary_sequence(), config, T=2000, seeds=[3], feedback="full"
        )
        series = ledger.regret_static_series
        assert series[1999] / 2000 < series[499] / 500 < series[99] / 100

    def test_paired_sequences_across_configs(self):
        # Two samplers on the same seed must face the identical loss sequence.
        gen = drifting_sequence(interval=10, n_replace=2)
        a = run_regret_experiment(
            gen, SamplerConfig(capacity=8, nu=1.0, kappa=0.1, reset_period=5),
            T=100, seeds=[7],
        )[0]
        b = run_regret_experiment(
            gen, SamplerConfig(capacity=8, nu=1.0, kappa=0.1, reset_period=50),
            T=100, seeds=[7],
        )[0]
        assert a.static_opt == pytest.approx(b.static_opt)
        np.testing.assert_allclose(a.dynamic_opt, b.dynamic_opt)

    def test_from_sequence_validates_shapes(self):
        with pytest.raises(ValueError, match="match"):
            RegretLedger.from_sequence(np.ones((5, 3)), np.ones(4))

    def test_unknown_feedback_rejected(self):
        with pytest.raises(ValueError, match="feedback"):
            run_regret_experiment(
                stationary_sequence(), SamplerConfig(capacity=4), 10, [0], feedback="nope"
            )


class TestSequenceGenerators:
    def test_stationary_rows_identical(self):
        rows = stationary_sequence()(np.random.default_rng(0), 50, 6)
        assert rows.shape == (50, 6)
        assert np.all(rows == rows[0])

    def test_drifting_replaces_columns_on_interval(self):
        gen = drifting_sequence(interval=10, n_replace=2, jitter=0.0)
        rows = gen(np.random.default_rng(1), 30, 8)
        assert np.all(rows[0] == rows[9])
        changed = np.sum(rows[10] != rows[9])
        assert 1 <= changed <= 2

    def test_scaled_noise_bounded(self):
        rows = scaled_noise_sequence(orders=2.0)(np.random.default_rng(2), 100, 5)
        assert np.all(rows >= 0)
        assert np.all(np.isfinite(rows))


class TestLossBound:
    def test_hand_computed_bound(self):
        # horizon 1, reward cap 1, beta 0.5, score cap 2: bound is (1/0.5*1*2)^2 = 16.
        policy = TabularSoftmaxPolicy(1, 2)
        trajs = [
            Trajectory(
                states=np.array([0]),
                actions=np.array([a]),
                behavior_probs=np.array([0.5]),
                rewards=np.array([r]),
                next_states=np.array([0]),
            )
            for a, r in ((0, 1.0), (1, -1.0), (0, 0.5))
        ]
        check = check_loss_bound(
            trajs, policy, gamma=0.9, beta=0.5, score_norm_cap=2.0, reward_cap=1.0, horizon=1
        )
        assert check.bound == pytest.approx(16.0)
        assert check.ok
        assert check.max_d <= 16.0

    def test_on_policy_ratio_component_trivially_holds(self):
        rng = np.random.default_rng(3)
        env = chain_env(4, horizon=4)
        policy = TabularSoftmaxPolicy(env.n_states, env.n_actions)
        trajs = [env.rollout(policy, rng) for _ in range(50)]
        beta = float(np.exp(policy.log_prob_table()).min())
        check = check_loss_bound(
            trajs, policy, env.gamma, beta=beta,
            score_norm_cap=policy.max_score_norm(), reward_cap=env.reward_bound,
            horizon=env.horizon,
        )
        assert check.ratio_ok
        assert check.max_ratio <= 1.0 + 1e-9  # on-policy ratios are exactly 1

    def test_random_off_policy_trajectories_never_violate(self):
        rng = np.random.default_rng(4)
        n_states, n_actions, horizon = 4, 3, 6
        target = TabularSoftmaxPolicy(
            n_states, n_actions, logits=rng.uniform(-1, 1, (n_states, n_actions))
        )
        behavior = TabularSoftmaxPolicy(
            n_states, n_actions, logits=rng.uniform(-1, 1, (n_states, n_actions))
        )
        beta = min(float(np.exp(p.log_prob_table()).min()) for p in (target, behavior))
        table = behavior.prob_table()
        trajs = []
        for _ in range(500):
            length = int(rng.integers(1, horizon + 1))
            states = rng.integers(0, n_states, length)
            actions = np.array(
                [rng.choice(n_actions, p=table[s]) for s in states], dtype=np.int64
            )
            probs = table[states, actions]
            trajs.append(
                Trajectory(
                    states=states,
                    actions=actions,
                    behavior_probs=probs,
                    rewards=rng.uniform(-2, 2, length),
                    next_states=rng.integers(0, n_states, length),
                )
            )
        check = check_loss_bound(
            trajs, target, gamma=0.95, beta=beta,
            score_norm_cap=target.max_score_norm(), reward_cap=2.0, horizon=horizon,
        )
        assert check.ok, (check.max_d, check.bound)


class TestSlopeFit:
    def test_exact_power_law(self):
        horizons = [500, 1000, 2000, 4000]
        values = [7.0 * t**0.66 for t in horizons]
        assert fit_loglog_slope(horizons, values) == pytest.approx(0.66)


@pytest.mark.parametrize(
    "act, message",
    [
        pytest.param(lambda: static_competitor(np.ones(3)),
                     r"expected a \(steps, slots\) loss matrix", id="static-1d"),
        pytest.param(lambda: dynamic_competitor(np.ones((2, 3))), "expected a 1-d loss row",
                     id="dynamic-2d"),
        pytest.param(lambda: static_competitor(np.array([[1.0, np.nan]])),
                     "losses must be finite", id="static-nan"),
        pytest.param(lambda: dynamic_competitor(np.array([1.0, np.inf])),
                     "losses must be finite", id="dynamic-inf"),
    ],
)
def test_invalid_competitor_input_rejected_by_message(act, message):
    with pytest.raises(ValueError, match=message):
        act()
