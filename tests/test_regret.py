"""Competitor closed forms against the numeric oracle, ledgers, and bound checks."""

import hashlib

import numpy as np
import pytest

from adaptive_replay.envs import chain_env
from adaptive_replay.policies import TabularSoftmaxPolicy
from adaptive_replay.regret import (
    RegretLedger,
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
from adaptive_replay.studies import learned_vs_uniform_variance


class TestStaticCompetitor:
    def test_single_step_sqrt_rule(self):
        p = static_competitor(np.array([[4.0, 1.0]]))
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0])

    def test_equal_column_sums_give_uniform(self):
        d = np.array([[1.0, 3.0], [3.0, 1.0]])
        np.testing.assert_allclose(static_competitor(d), [0.5, 0.5])

    def test_all_zero_matrix_gives_uniform(self):
        np.testing.assert_allclose(static_competitor(np.zeros((3, 4))), np.full(4, 0.25))

    def test_matches_numeric_minimizer_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(0.05, 10.0, size=(20, 10))
            closed = static_competitor(d)
            sums = d.sum(axis=0)
            oracle = minimize_on_simplex(
                lambda p: float(np.sum(sums / p)), 10, grad=lambda p: -sums / p**2
            )
            np.testing.assert_allclose(closed, oracle, atol=1e-6)

    def test_is_the_dynamic_competitor_of_the_summed_losses(self):
        d = np.random.default_rng(2).uniform(0.0, 10.0, size=(30, 9))
        assert np.array_equal(static_competitor(d), dynamic_competitor(d.sum(axis=0)))

    def test_best_static_cost_closed_form(self):
        d = np.array([[4.0, 1.0]])
        assert min_step_cost(d.sum(axis=0)) == pytest.approx(9.0)
        assert variance_cost(d.sum(axis=0), static_competitor(d)) == pytest.approx(9.0)


def variance_cost(d_row, p):
    return float(np.sum(np.asarray(d_row) / np.asarray(p)))


class TestDynamicCompetitor:
    def test_sqrt_rule(self):
        p = dynamic_competitor(np.array([4.0, 1.0]))
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0])

    def test_one_nonzero_entry_concentrates(self):
        p = dynamic_competitor(np.array([0.0, 5.0, 0.0]))
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0])

    def test_matches_numeric_minimizer(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.uniform(0.05, 10.0, size=12)
            closed = dynamic_competitor(d)
            oracle = minimize_on_simplex(
                lambda p: float(np.sum(d / p)), 12, grad=lambda p: -d / p**2
            )
            np.testing.assert_allclose(closed, oracle, atol=1e-6)

    def test_min_step_cost_matches_direct_evaluation(self):
        d = np.array([1.0, 3.0, 0.2])
        assert min_step_cost(d) == pytest.approx(variance_cost(d, dynamic_competitor(d)))

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
        np.testing.assert_allclose(a.static_opt_cum, b.static_opt_cum)
        np.testing.assert_allclose(a.dynamic_opt_cum, b.dynamic_opt_cum)

    def test_columns_match_per_prefix_and_per_row_optima(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = rng.uniform(0.0, 10.0, size=(40, 7))
            d[rng.choice(40, size=4, replace=False)] = 0.0
            ledger = RegretLedger.from_sequence(d, np.ones(40))
            static = [min_step_cost(d[: t + 1].sum(axis=0)) for t in range(40)]
            dynamic = np.cumsum([min_step_cost(row) for row in d])
            np.testing.assert_allclose(ledger.static_opt_cum, static, rtol=1e-12)
            np.testing.assert_allclose(ledger.dynamic_opt_cum, dynamic, rtol=1e-12)

    def test_from_sequence_validates_shapes(self):
        with pytest.raises(ValueError, match="match"):
            RegretLedger.from_sequence(np.ones((5, 3)), np.ones(4))

    def test_unknown_feedback_rejected(self):
        with pytest.raises(ValueError, match="feedback"):
            run_regret_experiment(
                stationary_sequence(), SamplerConfig(capacity=4), 10, [0], feedback="nope"
            )


def per_row_drifting(interval, n_replace, orders=2.0, jitter=0.5):
    """``drifting_sequence`` drawing its jitter one row at a time: the reference
    for the generator that draws a whole drift interval at once."""

    def generate(rng, T, n):
        scales = 10.0 ** rng.uniform(0.0, orders, n)
        out = np.empty((T, n))
        for t in range(T):
            if t > 0 and t % interval == 0:
                cols = rng.choice(n, size=n_replace, replace=False)
                scales[cols] = 10.0 ** rng.uniform(0.0, orders, n_replace)
            out[t] = scales * (1.0 - jitter + jitter * rng.uniform(0.0, 1.0, n))
        return out

    return generate


class TestSequenceGenerators:
    # T is no multiple of the interval in most shapes, and 1,000 outlasts T.
    @pytest.mark.parametrize(
        "interval, T, n",
        [(1, 40, 4), (2, 41, 8), (3, 100, 16), (5, 77, 5), (7, 100, 16), (10, 95, 8), (1000, 120, 8)],
    )
    def test_drifting_interval_draws_equal_per_row_draws_bitwise(self, interval, T, n):
        for seed in range(20):
            expected = per_row_drifting(interval, 2)(np.random.default_rng(seed), T, n)
            rows = drifting_sequence(interval, 2)(np.random.default_rng(seed), T, n)
            assert rows.tobytes() == expected.tobytes()

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
        beta = float(np.exp(policy.tables().log_probs).min())
        check = check_loss_bound(
            trajs, policy, env.gamma, beta=beta,
            score_norm_cap=policy.max_score_norm(), reward_cap=np.abs(env.rewards).max(),
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
        beta = min(float(np.exp(p.tables().log_probs).min()) for p in (target, behavior))
        table = behavior.tables().probs
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


# Recorded digests of regret ledgers and variance studies.  Any change to the
# learner's draws, feedback, resets or arithmetic moves them, and with them
# the bytes of the regret and variance CSVs.
RECORDED_REGRET = [
    pytest.param(stationary_sequence(), {"kappa": 0.0, "reset_mode": "hard", "reset_period": 40},
                 "full", "ab1b14b938472d7692408fd6654c2fb70d315a5025bcedba9561eb542fb7c156",
                 id="full-hard"),
    pytest.param(stationary_sequence(), {"kappa": 0.0, "reset_mode": "soft", "reset_period": 40},
                 "full", "a03168bc2ec70abcbec427f877172e77348f7451a3d6ee962dc119b59b808f28",
                 id="full-soft"),
    pytest.param(scaled_noise_sequence(orders=2.0),
                 {"kappa": 0.3, "reset_mode": "soft", "reset_period": 40},
                 "bandit", "b587f75735cf194aeb80b19b9c326441ed6dc04de3348a9782373f46fa9761e5",
                 id="bandit-soft"),
    pytest.param(drifting_sequence(interval=10, n_replace=2),
                 {"kappa": 0.0, "reset_mode": "hard", "reset_period": 10},
                 "bandit", "ff229ab05a6dd346a71af4389bec842358a81445fb5dcee40143aca19f5cbe85",
                 id="drift-hard"),
    pytest.param(drifting_sequence(interval=10, n_replace=2),
                 {"kappa": 0.0, "reset_mode": "soft", "reset_period": 10, "rho": 0.5},
                 "bandit", "b80473e39d3e17e1f62c783b559501082dd09e95ff8d035eb9372d0907d714c1",
                 id="drift-soft"),
]
RECORDED_VARIANCE = "1d795bb517c04249bbc6b6ead99d621086b4e2cd329a70ca159746d14289151d"


@pytest.mark.parametrize("generator, sampler, feedback, digest", RECORDED_REGRET)
def test_regret_ledgers_match_their_recorded_digest(generator, sampler, feedback, digest):
    config = SamplerConfig(capacity=16, nu=1.0, **sampler)
    ledgers = run_regret_experiment(generator, config, 300, [0, 1], feedback=feedback, batch=8)
    h = hashlib.sha256()
    for ledger in ledgers:
        for series in (ledger.realized, ledger.static_opt_cum, ledger.dynamic_opt_cum):
            h.update(series.tobytes())
    assert h.hexdigest() == digest


def test_variance_studies_match_their_recorded_digest():
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        c = learned_vs_uniform_variance(seed, capacity=16, repeats=50)
        h.update(np.array([c.var_learned, c.var_uniform, c.loss_spread_orders]).tobytes())
    assert h.hexdigest() == RECORDED_VARIANCE

