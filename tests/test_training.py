"""Training loops: schema, mode semantics, equivalences, and sanity directions."""

import ast
import hashlib
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptive_replay import gradients, training
from adaptive_replay.envs import chain_env, gridworld_env, optimal_value, two_state_bandit_env
from adaptive_replay.harness import ExperimentSpec, run_suite
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.store import Trajectory
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


# Recorded trace digests (chain5): the mid-epoch stop run below and, per
# mode, a run with evictions, resets and probes.  Any change to a loop's
# draws, write order or arithmetic moves them.
EPOCH_STOP_DIGEST = "3167db49f73a2b5b2dac053087d5a3a0ba3d81fa7a186fd0205c8abef054d892"
RECORDED_DIGESTS = {
    "uniform": "e1d7b94d7003cde534ce4c99bf183723ee7494efd5c935a7dd9b17dc47aaf77a",
    "td_priority": "adda8b7f6d198b02ab85b0be41ee19e9796c0ca94f75ee1410257eaee64c7ecc",
    "adaptive": "e55ddbd28fc76b244d98ba4076fc9fde3615e94891590bda696d374f709c8310",
    "adaptive_epoch": "4b5cba02b60bf2cd9a6d30fc3fb0bc71632a159bf2435852d6333df83cc260fc",
}
# The same runs collecting once every three updates, which pins where the
# loop collects in every mode: after every third update.
RECORDED_DIGESTS_EVERY_3 = {
    "uniform": "1a2b62d25ce442ec5d08afff08b67fa43e3335116778c53ffc3254a67afa2e15",
    "td_priority": "baf85110d75c49a94218ac651c020ea0ee2ed1f5ad5fbb4998cef92c48069bc1",
    "adaptive": "9dbf660137e2209d5b46500ea15ae73d77ecaf262bae37d054c53a0a1fcb0b99",
    "adaptive_epoch": "6865eac6c6311c980159189d866ec898af56fc60af17fda04d90453cd3ce85df",
}
# The td_priority run on gridworld4x4: goal and trap terminals reached
# mid-horizon, exploring starts and sweeps of up to 12 steps, where chain5 has
# one terminal at the end of the chain.
RECORDED_TD_GRIDWORLD_DIGEST = "f582f087399f977e6a50d436606dd2d6b3139d4f179790017094b46fb31390cd"
RECORDED_CASES = [
    pytest.param(
        mode, 2 if mode == "adaptive_epoch" else 1, "chain5", RECORDED_DIGESTS[mode], id=mode
    )
    for mode in MODES
] + [
    pytest.param(mode, 3, "chain5", digest, id=f"{mode}-every3")
    for mode, digest in RECORDED_DIGESTS_EVERY_3.items()
] + [
    pytest.param(
        "td_priority", 1, "gridworld4x4", RECORDED_TD_GRIDWORLD_DIGEST,
        id="td_priority-gridworld4x4",
    )
]


# Paired runs of two modes on one seed: short, with resets, evictions and probes.
PAIR_ENVS = {
    "chain5": lambda: chain_env(5),
    "gridworld4x4": lambda: gridworld_env(4, 4),
    "two_state_bandit": two_state_bandit_env,
}
PAIR_SAMPLER = SamplerConfig(capacity=16, reset_period=25, reset_mode="soft", kappa=0.1)


def pair_config(mode, seed, every, sampler):
    return bandit_config(
        mode, seed, total_steps=60, eval_every=10, probe_every=20, probe_repeats=20,
        updates_per_episode=every, sampler=sampler,
    )


def assert_same_arrays(a, b, skip=None):
    """Every trace array (NaN probe rows included) and ``ratio_cap_hits`` agree."""
    assert a.ratio_cap_hits == b.ratio_cap_hits
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray) and name != skip:
            np.testing.assert_array_equal(value, getattr(b, name), err_msg=name)


def trace_digest(trace):
    """sha256 over every trace array (name, dtype, shape, bytes) and ``ratio_cap_hits``."""
    h = hashlib.sha256(str(trace.ratio_cap_hits).encode())
    for name, value in sorted(vars(trace).items()):
        if isinstance(value, np.ndarray):
            h.update(f"{name}:{value.dtype.str}:{value.shape};".encode())
            h.update(value.tobytes())
    return h.hexdigest()


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

    @pytest.mark.parametrize(
        "field, value", [("buffer_capacity", 0), ("eval_episodes", 0), ("probe_repeats", 1)]
    )
    def test_counts_below_their_minimum_rejected_by_name(self, field, value):
        kwargs = {"total_steps": 10, "batch_size": 1, "buffer_capacity": 8, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainingConfig(**kwargs)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param({"selection_mode": "adaptive_epoch", "updates_per_episode": -1},
                         "updates_per_episode must be >= 1", id="epoch-negative-updates"),
            pytest.param({"learning_rate": math.inf},
                         "learning_rate must be a positive finite real, got inf", id="inf-learning-rate"),
            pytest.param({"learning_rate": math.nan},
                         "learning_rate must be a positive finite real, got nan", id="nan-learning-rate"),
            pytest.param({"eval_every": 50, "probe_every": 75},
                         "probe_every must be a multiple of eval_every", id="probe-off-schedule"),
            pytest.param({"ratio_log_cap": math.nan},
                         "ratio_log_cap must be non-negative or inf, got nan", id="nan-ratio-cap"),
            pytest.param({"ratio_log_cap": -5.0},
                         "ratio_log_cap must be non-negative or inf, got -5.0", id="negative-ratio-cap"),
        ],
    )
    def test_invalid_schedule_rejected_by_message(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TrainingConfig(total_steps=10, batch_size=2, buffer_capacity=8, **overrides)

    def test_infinite_ratio_cap_accepted(self):
        # inf turns the clamp off; only NaN and negative caps are rejected.
        config = TrainingConfig(total_steps=10, batch_size=2, buffer_capacity=8, ratio_log_cap=math.inf)
        assert config.ratio_log_cap == math.inf

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_updates_per_episode_rejected_in_every_mode(self, mode):
        with pytest.raises(ValueError, match="updates_per_episode must be >= 1"):
            TrainingConfig(
                total_steps=10, batch_size=2, buffer_capacity=8,
                selection_mode=mode, updates_per_episode=0,
            )

    def test_uniform_mode_forces_full_mixing(self):
        config = TrainingConfig(
            total_steps=10, batch_size=2, buffer_capacity=8, selection_mode="uniform"
        )
        assert config.resolved_sampler().kappa == 1.0

    @pytest.mark.parametrize(
        "mode, kappa", [("uniform", 1.0), ("td_priority", 0.0), ("adaptive", 0.3), ("adaptive_epoch", 0.3)]
    )
    def test_each_mode_fixes_its_mixture_weight_in_the_resolved_sampler(self, mode, kappa):
        config = TrainingConfig(
            total_steps=10, batch_size=2, buffer_capacity=8, selection_mode=mode,
            sampler=SamplerConfig(capacity=8, kappa=0.3, reset_mode="soft"),
        )
        assert config.resolved_sampler().kappa == kappa
        assert config.sampler.kappa == 0.3
        # adaptive_epoch resets hard at each collection, every updates_per_episode updates.
        epoch = mode == "adaptive_epoch"
        assert config.resolved_sampler().reset_period == (1 if epoch else config.sampler.reset_period)
        assert config.resolved_sampler().reset_mode == ("hard" if epoch else config.sampler.reset_mode)


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

    def test_epoch_loop_stops_inside_an_epoch(self, monkeypatch):
        # 10 updates at 3 per episode: three epochs end in a collect, and the
        # fourth stops after one update, before its collect.
        counts, evals = Counter(), []
        count_calls(monkeypatch, counts, training._LoopState, "collect_episode")
        count_calls(monkeypatch, counts, training._LoopState, "update_policy")
        record_eval = training._LoopState.record_eval

        def recorded(state, update_index):
            evals.append(update_index)
            record_eval(state, update_index)

        monkeypatch.setattr(training._LoopState, "record_eval", recorded)
        config = bandit_config(
            "adaptive_epoch", seed=9, total_steps=10, updates_per_episode=3, eval_every=4
        )
        trace = run_training(chain_env(5), config)
        assert evals == [4, 8, 10]
        assert counts["update_policy"] == 10
        assert counts["collect_episode"] == 10 // 3
        assert trace.reset_counts.tolist() == [1, 2, 3]
        assert trace_digest(trace) == EPOCH_STOP_DIGEST

    def test_periodic_resets_counted(self):
        env = two_state_bandit_env()
        sampler = SamplerConfig(capacity=16, reset_period=25, reset_mode="hard", kappa=0.1)
        trace = run_training(env, bandit_config("adaptive", seed=4, sampler=sampler))
        assert trace.reset_counts[-1] == 300 // 25

    def test_epoch_mode_matches_uniform_when_fully_mixed(self):
        # With full uniform mixing the accumulators cannot influence sampling,
        # so the epoch-reset variant and the uniform baseline are the same
        # algorithm; paired seeds must agree closely.
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

    @pytest.mark.parametrize("every", (1, 2, 3))
    @pytest.mark.parametrize("env_name", sorted(PAIR_ENVS))
    def test_epoch_mode_is_adaptive_with_a_hard_reset_at_each_collection(self, env_name, every):
        env = PAIR_ENVS[env_name]()
        hard = replace(PAIR_SAMPLER, reset_mode="hard", reset_period=every)
        for seed in range(5):
            epoch = run_training(env, pair_config("adaptive_epoch", seed, every, PAIR_SAMPLER))
            adaptive = run_training(env, pair_config("adaptive", seed, every, hard))
            assert_same_arrays(epoch, adaptive)

    @pytest.mark.parametrize("every", (1, 2, 3))
    @pytest.mark.parametrize("env_name", sorted(PAIR_ENVS))
    def test_fully_mixed_epoch_mode_is_uniform_but_for_its_resets(self, env_name, every):
        env = PAIR_ENVS[env_name]()
        mixed = replace(PAIR_SAMPLER, kappa=1.0)
        for seed in range(5):
            epoch = run_training(env, pair_config("adaptive_epoch", seed, every, mixed))
            uniform = run_training(env, pair_config("uniform", seed, every, mixed))
            assert_same_arrays(epoch, uniform, skip="reset_counts")

    def test_epoch_resets_are_counted(self):
        trace = run_training(
            two_state_bandit_env(), bandit_config("adaptive_epoch", seed=4, updates_per_episode=3)
        )
        assert trace.reset_counts[-1] == 300 // 3
        assert trace.reset_counts.tolist() == [t // 3 for t in range(50, 301, 50)]


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

    @pytest.mark.parametrize("mode", MODES)
    def test_each_insert_writes_one_leaf_through_set(self, monkeypatch, mode):
        # The warm-up writes each slot's first score, the td score in
        # td_priority mode, exactly once, in one leaf write per block of
        # FILL_BLOCK episodes, a one-episode block through SumTree.set.
        # Every later collect writes its slot's leaf in exactly one set; and
        # a one-leaf set_many costs several times a set, so no td rescoring
        # of one slot may take it.
        writes = []  # (method, leaves) per leaf-write call
        for name in ("set", "set_many"):
            original = getattr(SumTree, name)

            def recorded(tree, indices, values, name=name, original=original):
                writes.append((name, np.atleast_1d(indices).tolist()))
                return original(tree, indices, values)

            monkeypatch.setattr(SumTree, name, recorded)
        phases = {}
        for method in ("fill_buffer", "collect_episode"):
            original = getattr(training._LoopState, method)

            def wrapped(state, method=method, original=original):
                before = len(writes)
                original(state)
                phases[method].append(writes[before:])

            monkeypatch.setattr(training._LoopState, method, wrapped)
        config = bandit_config(
            mode, seed=5, updates_per_episode=2 if mode == "adaptive_epoch" else 1
        )
        capacity = config.buffer_capacity
        # Blocks of 5 leave a last block of one episode at capacity 16.
        for block in (5, training.FILL_BLOCK):
            monkeypatch.setattr(training, "FILL_BLOCK", block)
            writes.clear()
            phases.update(fill_buffer=[], collect_episode=[])
            run_training(two_state_bandit_env(), config)
            [fill] = phases["fill_buffer"]
            assert len(fill) == math.ceil(capacity / block)
            assert [leaf for _, leaves in fill for leaf in leaves] == list(range(capacity))
            single = ["set"] if capacity % block == 1 else []
            assert [name for name, leaves in fill if len(leaves) == 1] == single
            collects = phases["collect_episode"]
            assert len(collects) == config.total_steps // config.updates_per_episode
            assert all(
                len(calls) == 1 and calls[0][0] == "set" and len(calls[0][1]) == 1
                for calls in collects
            )
            if mode == "td_priority":
                after_fill = writes[len(fill):]
                rescored = [len(leaves) for name, leaves in after_fill if name == "set_many"]
                assert len(rescored) > 1 and 1 not in rescored

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


class TestCollectionPath:
    @pytest.mark.parametrize("mode", MODES)
    def test_no_trajectory_is_validated_per_episode(self, monkeypatch, mode):
        # Episodes go from the rollout's lists into store rows; their checks
        # ran once, when the policy tables and the env were built.
        counts = Counter()
        count_calls(monkeypatch, counts, Trajectory, "__init__")
        config = bandit_config(
            mode, seed=6, total_steps=100, probe_every=50, probe_repeats=20,
            updates_per_episode=2 if mode == "adaptive_epoch" else 1,
        )
        trace = run_training(chain_env(4, horizon=6), config)
        assert trace.steps[-1] > config.buffer_capacity
        assert counts["__init__"] == 0


    @pytest.mark.parametrize("mode, updates_per_episode, env_name, digest", RECORDED_CASES)
    def test_trace_digest_recorded(self, mode, updates_per_episode, env_name, digest):
        sampler = SamplerConfig(capacity=16, reset_period=25, reset_mode="soft", kappa=0.1)
        config = bandit_config(
            mode, seed=12, total_steps=60, eval_every=10, warmup_episodes=16 + 5,
            probe_every=20, probe_repeats=20, sampler=sampler,
            updates_per_episode=updates_per_episode,
        )
        assert trace_digest(run_training(PAIR_ENVS[env_name](), config)) == digest

    @pytest.mark.parametrize("mode", MODES)
    def test_env_is_read_only_at_construction(self, mode):
        # Past construction the loop calls only rollout and evaluate on the
        # env, so through a delegating wrapper the other reads do not grow
        # with the updates.
        class CountingEnv:
            def __init__(self, env):
                self._env = env
                self.reads = Counter()

            def __getattr__(self, name):
                self.reads[name] += 1
                return getattr(self._env, name)

        def reads(total_steps):
            env = CountingEnv(gridworld_env(4, 4))
            config = bandit_config(
                mode, seed=5, total_steps=total_steps, probe_every=50, probe_repeats=5,
                updates_per_episode=2 if mode == "adaptive_epoch" else 1,
            )
            run_training(env, config)
            return env.reads

        short, long = reads(50), reads(200)
        assert long["rollout"] > short["rollout"] and long["evaluate"] > short["evaluate"]
        for counts in (short, long):
            del counts["rollout"], counts["evaluate"]
        assert short == long

    @pytest.mark.parametrize("mode", MODES)
    def test_block_fill_equals_per_episode_inserts(self, monkeypatch, mode):
        # Warm-up past the capacity: blocks of 5 fill the 24 slots, then 37
        # episodes evict one insert each; the trace digest must equal a run
        # that inserts every warm-up episode on its own.
        def per_episode_fill(state):
            for _ in range(state.store.capacity):
                state.collect_episode()

        config = bandit_config(
            mode, seed=8, total_steps=150, buffer_capacity=24, warmup_episodes=24 + 37,
            probe_every=50, probe_repeats=20,
            updates_per_episode=2 if mode == "adaptive_epoch" else 1,
        )
        env = chain_env(5)
        monkeypatch.setattr(training, "FILL_BLOCK", 5)
        blocks = trace_digest(run_training(env, config))
        monkeypatch.setattr(training._LoopState, "fill_buffer", per_episode_fill)
        assert blocks == trace_digest(run_training(env, config))


class TestRatioCapHits:
    def test_small_cap_is_hit_and_counted_per_run(self):
        env = chain_env(4, horizon=6)
        config = bandit_config("adaptive", seed=3, total_steps=100, ratio_log_cap=0.5)
        first = run_training(env, config)
        second = run_training(env, config)
        assert first.ratio_cap_hits > 0
        assert first.ratio_cap_hits == second.ratio_cap_hits

    def test_probe_uses_the_run_cap(self, monkeypatch):
        # The probe's whole-store pass clamps ratios as the run's updates do.
        caps = []
        original = gradients.trajectory_gradients

        def recorded(trajs, *args, **kwargs):
            caps.append((len(trajs), kwargs.get("log_cap")))
            return original(trajs, *args, **kwargs)

        monkeypatch.setattr(training, "trajectory_gradients", recorded)
        config = bandit_config(
            "adaptive", seed=3, total_steps=100, probe_every=50, probe_repeats=5,
            ratio_log_cap=0.5,
        )
        run_training(chain_env(4, horizon=6), config)
        assert [cap for n, cap in caps if n == config.buffer_capacity] == [0.5, 0.5]

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


class TestNoMidRunUnderflow:
    """Stale trajectories kept long under random eviction grew importance ratios
    that pushed a logit past the softmax's underflow gap, and the run raised
    partway through.  The oldest slot now goes first; these runs each died so.
    A large-ratio step can still push a gap past ~745, which gives a valid
    probability of 0; the runs at the harness defaults below raised on it."""

    @pytest.mark.parametrize("mode, seed", [("adaptive", 972788408), ("uniform", 67),
                                            ("td_priority", 10)])
    def test_grid32_run_completes(self, mode, seed):
        # The benchmark's and criterion 10's gridworld config, without probes.
        sampler = SamplerConfig(
            capacity=32, nu=1000.0, kappa=0.1, reset_period=50, reset_mode="soft", rho=0.9
        )
        config = TrainingConfig(
            total_steps=2000, batch_size=8, buffer_capacity=32, learning_rate=0.05,
            selection_mode=mode, seed=seed, eval_every=125, sampler=sampler,
        )
        trace = run_training(gridworld_env(4, 4), config)
        assert len(trace.returns) == 16 and np.isfinite(trace.returns).all()

    @pytest.mark.parametrize("mode, seed", [
        ("uniform", 163), ("uniform", 195), ("td_priority", 5), ("td_priority", 8),
        ("td_priority", 32), ("td_priority", 43), ("td_priority", 70),
    ])
    def test_harness_defaults_run_completes(self, mode, seed):
        # The harness's [training] and [sampler] defaults, the seed set directly.
        sampler = SamplerConfig(
            capacity=16, nu=1000.0, kappa=0.1, reset_period=100, reset_mode="soft", rho=0.9
        )
        config = TrainingConfig(
            total_steps=400, batch_size=4, buffer_capacity=16, learning_rate=0.2,
            selection_mode=mode, seed=seed, eval_every=20, sampler=sampler,
        )
        trace = run_training(gridworld_env(4, 4), config)
        assert len(trace.returns) == 20
        assert np.isfinite(trace.returns).all() and np.isfinite(trace.entropies).all()

    @pytest.mark.slow
    def test_harness_defaults_scan_completes(self, tmp_path):
        # Seeds 0-19 x gridworld4x4 and chain5 x every mode at the [training]
        # and [sampler] defaults: 160 cells, of which none may fail.
        spec = ExperimentSpec(
            family="rl_comparison", seeds=tuple(range(20)),
            options={"envs": ("gridworld4x4", "chain5"), "modes": MODES},
        )
        status = run_suite(spec, out=str(tmp_path))
        assert sorted(p.name for p in tmp_path.glob("*.FAILED")) == []
        assert status == 0


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adaptive_replay"
# A mode acts through its resolved sampler and its strategy, both chosen here.
MODE_READERS = ("TrainingConfig", "_LoopState.__init__")


def mode_reads(source):
    """(scope, line) of each ``.selection_mode`` read in ``source``; the scope is the
    dotted names of the enclosing classes and functions ("" at module level)."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "selection_mode":
                reads.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return reads


def test_only_the_config_and_the_loop_set_up_read_the_mode():
    # No loop phase branches on the mode, so a new mode cannot add a schedule.
    reads = {path.name: mode_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = {
        name: [(scope, line) for scope, line in found
               if not any(scope == r or scope.startswith(r + ".") for r in MODE_READERS)]
        for name, found in reads.items()
    }
    assert {name: found for name, found in outside.items() if found} == {}
    assert {scope for scope, _ in reads["training.py"]} >= {
        "TrainingConfig.resolved_sampler", "_LoopState.__init__"
    }


def test_mode_reads_names_each_scope():
    source = (
        "m = c.selection_mode\n"
        "class A:\n    def f(self):\n        return self.config.selection_mode\n"
        "def g(c):\n    def h():\n        return c.selection_mode == 'x'\n"
        "selection_mode = 1\n"
    )
    assert mode_reads(source) == [("", 1), ("A.f", 4), ("g.h", 7)]
