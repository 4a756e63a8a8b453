"""Closed-form distribution, feedback accumulation, resets, and their invariants."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_replay.gradients import replay_gradient
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.simplex import minimize_on_simplex
from adaptive_replay.store import Trajectory, WeightedStore


def make_state(w, nu=1.0, kappa=0.0, **kwargs):
    state = SamplerState(SamplerConfig(capacity=len(w), nu=nu, kappa=kappa, **kwargs))
    state.w[:] = w
    return state


class TestDistribution:
    def test_matches_sqrt_closed_form(self):
        state = make_state([3.0, 0.0, 1.0], nu=1.0, kappa=0.0)
        expected = np.array([2.0, 1.0, np.sqrt(2.0)]) / (3.0 + np.sqrt(2.0))
        np.testing.assert_allclose(state.distribution(), expected, rtol=1e-12)

    def test_zero_weights_with_mixing_stay_uniform(self):
        state = make_state([0.0, 0.0], nu=7.3, kappa=0.5)
        np.testing.assert_allclose(state.distribution(), [0.5, 0.5], atol=1e-15)

    def test_full_mixing_collapses_to_uniform(self):
        state = make_state([5.0, 0.1, 9.0, 2.0], nu=2.0, kappa=1.0)
        np.testing.assert_allclose(state.distribution(), np.full(4, 0.25), atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            state = make_state(
                rng.uniform(0, 100, n), nu=float(rng.uniform(0.1, 1e4)),
                kappa=float(rng.uniform(0, 1)),
            )
            assert abs(state.distribution().sum() - 1.0) < 1e-12

    def test_deterministic_pure_function(self):
        state = make_state([1.0, 2.0, 3.0], nu=10.0, kappa=0.3)
        first = state.distribution()
        np.testing.assert_array_equal(first, state.distribution())
        np.testing.assert_array_equal(state.w, [1.0, 2.0, 3.0])

    def test_non_finite_weights_rejected(self):
        state = make_state([1.0, 2.0])
        state.w[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            state.distribution()

    def test_nonpositive_nu_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            SamplerConfig(capacity=2, nu=0.0)

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=2, max_size=16),
        st.floats(0.01, 1.0),
        st.floats(1e-3, 1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixing_floor_holds_exactly(self, w, kappa, nu):
        state = make_state(w, nu=nu, kappa=kappa)
        p = state.distribution()
        assert np.all(p >= kappa / len(w) - 1e-15)

    @given(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=10), st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_own_weight(self, w, raw_index):
        index = raw_index % len(w)
        state = make_state(w, nu=1.0, kappa=0.25)
        before = state.distribution()[index]
        state.w[index] += 5.0
        after = state.distribution()[index]
        assert after >= before - 1e-12

    def test_ftrl_optimality_against_numeric_minimizer(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            steps = int(rng.integers(1, 51))
            d = rng.uniform(0.05, 10.0, size=(steps, n))
            nu = float(10.0 ** rng.uniform(-1, 2))
            state = make_state(d.sum(axis=0), nu=nu, kappa=0.0)
            totals = d.sum(axis=0) + nu
            oracle = minimize_on_simplex(
                lambda p: float(np.sum(totals / p)),
                n,
                grad=lambda p: -totals / p**2,
            )
            np.testing.assert_allclose(state.distribution(), oracle, atol=1e-6)


class TestFeedback:
    def test_inverse_probability_weighting(self):
        state = make_state([0.0, 0.0], nu=1.0, kappa=0.0)
        state.record_feedback(np.array([0]), np.array([2.0]), np.array([0.5]))
        np.testing.assert_allclose(state.w, [4.0, 0.0])
        assert state.step == 1

    def test_empty_feedback_only_advances_step(self):
        state = make_state([1.0, 2.0])
        state.record_feedback(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
        np.testing.assert_array_equal(state.w, [1.0, 2.0])
        assert state.step == 1

    def test_zero_loss_adds_nothing(self):
        state = make_state([1.0, 1.0])
        state.record_feedback(np.array([1]), np.array([0.0]), np.array([0.7]))
        np.testing.assert_array_equal(state.w, [1.0, 1.0])

    def test_negative_loss_rejected(self):
        state = make_state([0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            state.record_feedback(np.array([0]), np.array([-1.0]), np.array([0.5]))

    def test_non_finite_loss_rejected(self):
        state = make_state([0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            state.record_feedback(np.array([0]), np.array([np.nan]), np.array([0.5]))

    def test_zero_probability_on_sampled_slot_rejected(self):
        state = make_state([0.0, 0.0])
        with pytest.raises(ValueError, match="zero probability"):
            state.record_feedback(np.array([0]), np.array([1.0]), np.array([0.0]))

    def test_losses_must_cover_exactly_the_sampled_slots(self):
        state = make_state([0.0, 0.0])
        with pytest.raises(ValueError, match="aligned"):
            state.record_feedback(np.array([0]), np.array([1.0, 1.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="aligned"):
            state.record_feedback(np.array([0, 1]), np.ones(2), np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError, match="aligned"):
            state.record_feedback(np.array([[0, 1]]), np.ones((1, 2)), np.full((1, 2), 0.5))

    def test_duplicate_slot_rejected_before_any_write(self):
        # A fancy-index add would keep only one of a repeated slot's terms.
        state = make_state([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="duplicate slot 2"):
            state.record_feedback(np.array([2, 0, 2]), np.ones(3), np.full(3, 0.5))
        np.testing.assert_array_equal(state.w, [1.0, 2.0, 3.0])
        assert state.step == 0

    @pytest.mark.parametrize("slot", [-1, 3])
    def test_out_of_range_slot_rejected(self, slot):
        state = make_state([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"slot index {slot} out of range"):
            state.record_feedback(np.array([1, slot]), np.ones(2), np.full(2, 0.5))

    def test_rejections_name_the_slot(self):
        state = make_state([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="loss for slot 2 must be finite"):
            state.record_feedback(np.array([0, 2]), np.array([1.0, np.nan]), np.full(2, 0.5))
        with pytest.raises(ValueError, match="slot 1 has zero probability"):
            state.record_feedback(np.array([0, 1]), np.ones(2), np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="slot 1 has zero probability"):
            state.record_feedback(np.array([0, 1]), np.ones(2), np.array([0.5, np.nan]))
        np.testing.assert_array_equal(state.w, [0.0, 0.0, 0.0])

    def test_matches_per_slot_loop_bit_for_bit(self):
        # Reference: the scalar update ``w[i] += d[i] / p[i]``, one slot at a time.
        rng = np.random.default_rng(3)
        state = make_state(rng.uniform(0, 10, 50))
        reference = state.w.copy()
        for _ in range(200):
            slots = rng.permutation(50)[: rng.integers(0, 9)]
            d, p = 10.0 ** rng.uniform(-3, 3, (2, len(slots)))
            state.record_feedback(slots, d, p / 1e3)
            for i, d_i, p_i in zip(slots.tolist(), d.tolist(), (p / 1e3).tolist()):
                reference[i] += d_i / p_i
        np.testing.assert_array_equal(state.w, reference)
        assert state.step == 200

    def test_unbiased_per_slot_over_many_draws(self):
        # Monte Carlo oracle: with slots drawn from p, the mean contribution
        # d(i)/p(i) * 1[i drawn] recovers d(i) within 3 standard errors.
        rng = np.random.default_rng(42)
        n, draws = 6, 100_000
        d = rng.uniform(0.1, 5.0, n)
        p = rng.dirichlet(np.ones(n) * 2.0)
        contributions = np.zeros((draws, n))
        slots = rng.choice(n, size=draws, p=p)
        contributions[np.arange(draws), slots] = d[slots] / p[slots]
        mean = contributions.mean(axis=0)
        sem = contributions.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - d) <= 3.0 * sem)

        state = make_state(np.zeros(n), kappa=0.0)
        for i in slots[:1000]:
            state.record_feedback(np.array([i]), d[[i]], p[[i]])
        assert state.step == 1000

    def test_full_information_feedback(self):
        state = make_state([1.0, 2.0])
        state.record_feedback(np.arange(2), np.array([0.5, 1.5]), np.ones(2))
        np.testing.assert_allclose(state.w, [1.5, 3.5])
        assert state.step == 1


class TestDistinctSlotFeedback:
    """A replay step feeds back ``d / p`` once per distinct slot of its ``B`` draws,
    so a slot's expected gain per step is ``d * (1 - (1 - p)^B) / p``: ``d`` only
    at ``B = 1``, more than ``d`` (up to ``B * d``) at larger ``B``."""

    @pytest.mark.parametrize("batch", [1, 8])
    def test_mean_gain_matches_inclusion_probability(self, batch):
        n, steps, d = 32, 20_000, 1.5
        store = WeightedStore(n, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=n, nu=1.0, kappa=0.1, reset_period=10**9))
        store.fill([Trajectory([0], [0], [1.0], [0.0], [0]) for _ in range(n)], sampler)
        # Scores 100^(i/31) spread n * p over about 0.14-4.1; the leaves stay
        # fixed, so every step draws from the same p.
        store.set_scores(np.arange(n), 100.0 ** (np.arange(n) / (n - 1)))
        p = store.probabilities(np.arange(n))
        assert 0.13 < n * p.min() < 0.15 and 4.0 < n * p.max() < 4.2
        losses = np.full(n, d)
        rng = np.random.default_rng(1616)
        for _ in range(steps):
            slots, _, p_used = store.draw(batch, rng)
            sampler.record_feedback(slots, losses[slots], p_used)
        included = 1.0 - (1.0 - p) ** batch
        expected = d * included / p
        sem = d / p * np.sqrt(included * (1.0 - included) / steps)
        assert np.all(np.abs(sampler.w / steps - expected) <= 4.0 * sem)
        if batch == 1:
            np.testing.assert_allclose(expected, d, rtol=1e-12)
        else:
            assert np.all(expected > d) and np.all(expected < batch * d)


class TestResets:
    def test_hard_reset_zeroes_on_period(self):
        state = make_state([5.0, 2.0], reset_period=3, reset_mode="hard")
        state.step = 3
        assert state.maybe_reset()
        np.testing.assert_array_equal(state.w, [0.0, 0.0])

    def test_hard_reset_writes_positive_zeros(self):
        # The reset multiplies by a forgetting factor of 0: +0.0, as clear() writes.
        state = make_state([5.0, 0.0, 2.5], reset_period=1, reset_mode="hard")
        state.step = 1
        assert state.maybe_reset()
        assert np.array_equal(state.w, np.zeros(3)) and not np.signbit(state.w).any()

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_applied_resets_are_counted(self, mode):
        state = make_state([5.0, 2.0], reset_period=2, reset_mode=mode)
        for _ in range(5):
            state.record_feedback(np.array([0]), np.ones(1), np.ones(1))
            state.maybe_reset()
        assert (state.step, state.resets) == (5, 2)

    def test_clear_zeroes_only_the_given_slots(self):
        state = make_state([1.0, 2.0, 3.0, 4.0])
        state.clear(2)
        state.clear(slice(0, 1))
        np.testing.assert_array_equal(state.w, [0.0, 2.0, 0.0, 4.0])
        state.clear()
        np.testing.assert_array_equal(state.w, np.zeros(4))
        assert (state.step, state.resets) == (0, 0)

    def test_soft_reset_multiplies_by_forgetting_factor(self):
        state = make_state([10.0, 0.0], reset_period=2, reset_mode="soft", rho=0.9)
        state.step = 2
        assert state.maybe_reset()
        np.testing.assert_allclose(state.w, [9.0, 0.0])

    def test_soft_reset_is_one_multiply_by_rho(self):
        w = np.array([0.1, 3.3, 7.7, 1e-300])
        state = make_state(w.copy(), reset_period=1, reset_mode="soft", rho=0.37)
        state.step = 1
        assert state.maybe_reset()
        np.testing.assert_array_equal(state.w, w * 0.37)

    def test_off_period_is_a_no_op(self):
        state = make_state([5.0, 2.0], reset_period=4, reset_mode="hard")
        state.step = 3
        assert not state.maybe_reset()
        np.testing.assert_array_equal(state.w, [5.0, 2.0])

    def test_step_zero_never_resets(self):
        state = make_state([5.0], reset_period=1)
        assert not state.maybe_reset()
        np.testing.assert_array_equal(state.w, [5.0])


def lambda_ratio(p, k):
    """The weight ``1 / (p(k) n)`` that the replay gradient gives one draw of
    slot ``k`` (unit ratio and gradient) to undo non-uniform slot sampling."""
    draws = np.zeros(1, dtype=np.int64)
    return replay_gradient(np.ones(1), np.ones((1, 1)), np.array([p[k]]), len(p), draws)[0]


class TestLambdaRatio:
    def test_uniform_gives_one(self):
        assert lambda_ratio(np.full(10, 0.1), 3) == pytest.approx(1.0)

    def test_undersampled_slot_upweighted(self):
        p = np.full(10, 0.1)
        p[4] = 0.05
        p[5] = 0.15
        assert lambda_ratio(p, 4) == pytest.approx(2.0)

    def test_oversampled_slot_downweighted(self):
        p = np.array([0.5, 0.3, 0.1, 0.1])
        assert lambda_ratio(p, 0) == pytest.approx(0.5)

    def test_zero_probability_guarded(self):
        with pytest.raises(ValueError, match="zero"):
            lambda_ratio(np.array([0.0, 1.0]), 0)


class TestConfigValidation:
    def test_kappa_range(self):
        with pytest.raises(ValueError, match="kappa"):
            SamplerConfig(capacity=2, kappa=1.5)

    def test_reset_period_positive(self):
        with pytest.raises(ValueError, match="reset_period"):
            SamplerConfig(capacity=2, reset_period=0)

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_rho_range_checked_in_any_mode(self, mode):
        for rho in (-0.1, 1.5):
            with pytest.raises(ValueError, match="rho must lie in"):
                SamplerConfig(capacity=2, reset_mode=mode, rho=rho)

    def test_annealed_reset_mode_rejected(self):
        message = "reset_mode must be one of ('hard', 'soft')"
        with pytest.raises(ValueError, match=re.escape(message)):
            SamplerConfig(capacity=2, reset_mode="annealed_soft")

    def test_defaults_match_documented_values(self):
        config = SamplerConfig(capacity=4)
        assert config.nu == 1000.0
        assert config.kappa == 0.1
        assert config.rho == 0.9


# The sampler's state: its accumulators, its feedback step count and its reset count.
SAMPLER_STATE = {"w", "step", "resets"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adaptive_replay"


def state_writes(path):
    """``(line, text)`` of each assignment in ``path`` to an attribute named in
    ``SAMPLER_STATE``, or to a subscript of one, augmented assignments included."""
    tree = ast.parse(path.read_text())
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    writes = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
            continue
        if isinstance(target, ast.Starred):
            targets.append(target.value)
            continue
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in SAMPLER_STATE:
            writes.append((target.lineno, ast.unparse(target)))
    return sorted(writes)


def test_only_the_sampler_module_writes_the_sampler_state():
    # record_feedback, maybe_reset and clear are every write to w, step and resets.
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "sampler.py" in modules
    writes = {
        path.name: state_writes(path) for path in modules if path.name != "sampler.py"
    }
    assert {name: found for name, found in writes.items() if found} == {}


def test_state_writes_finds_every_assignment_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("a.w[3] = 0\nb.step += 1\nc, d.resets = 1, 2\ne.w[:][0] *= 2\nx = a.w\na.w2 = 1\n")
    assert state_writes(path) == [(1, "a.w"), (2, "b.step"), (3, "d.resets"), (4, "e.w")]

