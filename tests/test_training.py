"""Training loops: schema, mode semantics, equivalences, and sanity directions."""

from collections import Counter

import numpy as np
import pytest

from adaptive_replay import gradients, training
from adaptive_replay.envs import chain_env, optimal_value, two_state_bandit_env
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.sumtree import SumTree
from adaptive_replay.training import MODES, TrainingConfig, run_training


def bandit_config(mode, seed, **overrides):
    kwargs = dict(
        total_steps=300,
        batch_size=4,
        buffer_capacity=16,
        selection_mode=mode,
        seed=seed,
        eval_every=50,
        learning_rate=0.2,
    )
    kwargs.update(overrides)
    return TrainingConfig(**kwargs)


class TestConfigValidation:
    def test_batch_cannot_exceed_buffer(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainingConfig(total_steps=10, batch_size=20, buffer_capacity=10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="selection_mode"):
            TrainingConfig(total_steps=10, batch_size=2, buffer_capacity=4, selection_mode="x")

    def test_epoch_mode_limits_updates_per_episode(self):
        with pytest.raises(ValueError, match="adaptive_epoch"):
            TrainingConfig(
                total_steps=10,
                batch_size=4,
                buffer_capacity=16,
                selection_mode="adaptive_epoch",
                updates_per_episode=4,
            )

    def test_warmup_must_fill_buffer(self):
        with pytest.raises(ValueError, match="warmup"):
            TrainingConfig(total_steps=10, batch_size=2, buffer_capacity=8, warmup_episodes=4)

    def test_sampler_capacity_must_match(self):
        with pytest.raises(ValueError, match="capacity"):
            TrainingConfig(
                total_steps=10, batch_size=2, buffer_capacity=8,
                sampler=SamplerConfig(capacity=4),
            )

    def test_negative_probe_every_rejected(self):
        # -250 is a multiple of 125, so only an explicit sign check catches it.
        with pytest.raises(ValueError, match="probe_every"):
            TrainingConfig(
                total_steps=10, batch_size=2, buffer_capacity=8, eval_every=125, probe_every=-250
            )

    def test_zero_updates_per_episode_only_for_epoch_mode(self):
        with pytest.raises(ValueError, match="updates_per_episode"):
            TrainingConfig(total_steps=10, batch_size=2, buffer_capacity=8, updates_per_episode=0)
        TrainingConfig(
            total_steps=10, batch_size=2, buffer_capacity=8,
            selection_mode="adaptive_epoch", updates_per_episode=0,
        )

    def test_uniform_mode_forces_full_mixing(self):
        config = TrainingConfig(
            total_steps=10, batch_size=2, buffer_capacity=8, selection_mode="uniform"
        )
        assert config.resolved_sampler().kappa == 1.0


class TestTraceSchema:
    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_emit_same_schema(self, mode):
        env = two_state_bandit_env()
        overrides = {"updates_per_episode": 3} if mode == "adaptive_epoch" else {}
        trace = run_training(env, bandit_config(mode, seed=2, **overrides))
        assert trace.mode == mode
        assert trace.env_name == "two_state_bandit"
        assert len(trace.config_hash) == 12
        n = len(trace.steps)
        assert n >= 6
        for field in (trace.returns, trace.probes, trace.probes_uniform, trace.entropies):
            assert len(field) == n
        assert np.all(np.diff(trace.steps) > 0)  # env steps strictly increase
        assert np.all(trace.reset_counts >= 0)

    def test_final_return_is_last_row(self):
        env = two_state_bandit_env()
        trace = run_training(env, bandit_config("uniform", seed=2))
        assert trace.final_return == trace.returns[-1]


class TestModeSemantics:
    def test_uniform_distribution_is_exactly_uniform(self):
        env = two_state_bandit_env()
        trace = run_training(env, bandit_config("uniform", seed=5))
        np.testing.assert_allclose(trace.entropies, np.log(16.0), atol=1e-12)

    def test_td_priority_with_equal_errors_behaves_uniformly(self):
        # A zero-reward environment gives every trajectory identical (zero) TD
        # error, so priorities are all at the floor and sampling is uniform.
        env = two_state_bandit_env(rewards=(0.0, 0.0))
        trace = run_training(env, bandit_config("td_priority", seed=5))
        np.testing.assert_allclose(trace.entropies, np.log(16.0), atol=1e-12)

    def test_single_slot_buffer_keeps_unit_probability(self):
        env = two_state_bandit_env()
        config = TrainingConfig(
            total_steps=50,
            batch_size=1,
            buffer_capacity=1,
            selection_mode="adaptive",
            seed=1,
            eval_every=10,
            learning_rate=0.1,
            sampler=SamplerConfig(capacity=1, kappa=0.0, nu=1.0),
        )
        trace = run_training(env, config)
        np.testing.assert_allclose(trace.entropies, 0.0, atol=1e-12)

    def test_pure_collection_budget_keeps_policy_flat(self):
        env = two_state_bandit_env()
        config = TrainingConfig(
            total_steps=60,
            batch_size=4,
            buffer_capacity=16,
            selection_mode="adaptive_epoch",
            updates_per_episode=0,
            seed=3,
            eval_every=20,
        )
        trace = run_training(env, config)
        assert np.all(trace.returns == trace.returns[0])

    def test_periodic_resets_counted(self):
        env = two_state_bandit_env()
        sampler = SamplerConfig(capacity=16, reset_period=25, reset_mode="hard", kappa=0.1)
        trace = run_training(env, bandit_config("adaptive", seed=4, sampler=sampler))
        assert trace.reset_counts[-1] == 300 // 25

    def test_epoch_mode_matches_uniform_when_fully_mixed(self):
        # With full uniform mixing the accumulators cannot influence sampling,
        # so the epoch-reset variant and the uniform baseline are the same
        # algorithm up to collection order; paired seeds must agree closely.
        env = two_state_bandit_env()
        diffs = []
        for seed in (2, 20, 200, 2000, 20000):
            epoch = run_training(
                env,
                bandit_config(
                    "adaptive_epoch", seed=seed, updates_per_episode=3,
                    sampler=SamplerConfig(capacity=16, kappa=1.0),
                ),
            )
            uniform = run_training(
                env, bandit_config("uniform", seed=seed, updates_per_episode=3)
            )
            diffs.append(epoch.final_return - uniform.final_return)
        assert abs(np.mean(diffs)) <= 0.05
        assert np.max(np.abs(diffs)) <= 0.2


class TestPolicyImprovement:
    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_reach_bandit_optimum(self, mode):
        env = two_state_bandit_env()
        target = 0.95 * optimal_value(env)
        for seed in (2, 20, 200, 2000, 20000):
            overrides = {"updates_per_episode": 3} if mode == "adaptive_epoch" else {}
            trace = run_training(env, bandit_config(mode, seed=seed, **overrides))
            assert trace.final_return >= target, (mode, seed, trace.final_return)

    def test_chain_learns_under_adaptive_sampling(self):
        env = chain_env(5)
        sampler = SamplerConfig(capacity=32, kappa=0.1, reset_period=50, reset_mode="soft")
        config = TrainingConfig(
            total_steps=800,
            batch_size=8,
            buffer_capacity=32,
            selection_mode="adaptive",
            seed=2,
            eval_every=100,
            learning_rate=0.1,
            sampler=sampler,
        )
        trace = run_training(env, config)
        assert trace.final_return == pytest.approx(optimal_value(env), rel=1e-6)


class TestProbes:
    def test_probe_rows_nan_when_disabled(self):
        env = two_state_bandit_env()
        trace = run_training(env, bandit_config("adaptive", seed=2))
        assert np.all(np.isnan(trace.probes))

    def test_probe_pairs_share_rows(self):
        env = two_state_bandit_env()
        trace = run_training(
            env, bandit_config("adaptive", seed=2, probe_every=100, probe_repeats=50)
        )
        own, uniform = trace.probe_pairs()
        assert len(own) == len(uniform) == 3
        assert np.all(own >= 0) and np.all(uniform >= 0)

    def test_probe_does_not_change_training_path(self):
        env = two_state_bandit_env()
        with_probe = run_training(
            env, bandit_config("adaptive", seed=7, probe_every=100, probe_repeats=50)
        )
        without = run_training(env, bandit_config("adaptive", seed=7))
        np.testing.assert_array_equal(with_probe.returns, without.returns)
        np.testing.assert_array_equal(with_probe.steps, without.steps)


def count_calls(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestReplayStepCost:
    def test_one_gradient_pass_per_probe_row(self, monkeypatch):
        sizes = []
        original = gradients.trajectory_gradients

        def counted(trajs, *args, **kwargs):
            sizes.append(len(trajs))
            return original(trajs, *args, **kwargs)

        monkeypatch.setattr(gradients, "trajectory_gradients", counted)
        monkeypatch.setattr(training, "trajectory_gradients", counted)
        config = bandit_config("adaptive", seed=2, probe_every=100, probe_repeats=50)
        trace = run_training(two_state_bandit_env(), config)
        probe_rows = len(trace.probe_pairs()[0])
        assert probe_rows == 3
        # One pass per update over its (at most batch_size) drawn slots, plus
        # one whole-buffer pass per probe row shared by both sides of the pair.
        assert sizes.count(config.buffer_capacity) == probe_rows
        assert len(sizes) == config.total_steps + probe_rows

    def test_td_priority_writes_single_leaves_through_set(self, monkeypatch):
        # Every insert writes one td score; a one-leaf set_many costs several
        # times a SumTree.set, so no one-leaf write may take it.
        leaves = []
        original = SumTree.set_many

        def recorded(tree, indices, values):
            leaves.append(len(indices))
            return original(tree, indices, values)

        monkeypatch.setattr(SumTree, "set_many", recorded)
        counts = Counter()
        count_calls(monkeypatch, counts, SumTree, "set")
        config = bandit_config("td_priority", seed=5)
        run_training(two_state_bandit_env(), config)
        assert leaves and 1 not in leaves
        # Each insert sets the fresh slot's sqrt(nu) score, then its td score.
        assert counts["set"] >= 2 * (config.buffer_capacity + config.total_steps)

    def test_dense_distribution_and_rebuild_only_at_evals_and_resets(self, monkeypatch):
        counts = Counter()
        count_calls(monkeypatch, counts, SamplerState, "distribution")
        count_calls(monkeypatch, counts, SumTree, "rebuild")
        sampler = SamplerConfig(capacity=16, reset_period=25, reset_mode="soft", kappa=0.1)
        config = bandit_config("adaptive", seed=4, sampler=sampler, probe_every=100,
                               probe_repeats=50)
        trace = run_training(two_state_bandit_env(), config)
        assert trace.reset_counts[-1] == 300 // 25
        assert counts["distribution"] <= len(trace.steps)
        assert counts["rebuild"] == trace.reset_counts[-1]


class TestRatioCapHits:
    def test_small_cap_is_hit_and_counted_per_run(self):
        env = chain_env(4, horizon=6)
        config = bandit_config("adaptive", seed=3, total_steps=100, ratio_log_cap=0.5)
        first = run_training(env, config)
        second = run_training(env, config)
        assert first.ratio_cap_hits > 0
        assert first.ratio_cap_hits == second.ratio_cap_hits

    def test_default_cap_is_not_hit(self):
        trace = run_training(two_state_bandit_env(), bandit_config("adaptive", seed=3))
        assert trace.ratio_cap_hits == 0


class TestDeterminism:
    @pytest.mark.parametrize("mode", ("uniform", "td_priority", "adaptive"))
    def test_same_seed_reproduces_trace(self, mode):
        env = two_state_bandit_env()
        a = run_training(env, bandit_config(mode, seed=11))
        b = run_training(env, bandit_config(mode, seed=11))
        np.testing.assert_array_equal(a.returns, b.returns)
        np.testing.assert_array_equal(a.steps, b.steps)
        np.testing.assert_array_equal(a.entropies, b.entropies)

    def test_different_seeds_differ(self):
        env = two_state_bandit_env()
        a = run_training(env, bandit_config("adaptive", seed=1))
        b = run_training(env, bandit_config("adaptive", seed=2))
        assert not np.array_equal(a.entropies, b.entropies) or not np.array_equal(
            a.returns, b.returns
        )
