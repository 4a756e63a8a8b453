"""Metric formulas validated on synthetic traces with hand-computed values."""

import numpy as np
import pytest

from adaptive_replay.metrics import compute_metrics, moving_average


def steps_1_to(n, per=100):
    return np.arange(1, n + 1) * per


def loop_moving_average(scores, window):
    """Reference for ``moving_average``: the same arithmetic, one index at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.empty_like(scores)
    csum = np.cumsum(scores)
    for i in range(len(scores)):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


class TestMovingAverage:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
    @pytest.mark.parametrize("window", [1, 3, 10, 60])
    def test_same_bytes_as_the_loop(self, n, window):
        rng = np.random.default_rng(1000 * n + window)
        for x in (rng.normal(size=n), rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.uniform(-8, 8, n)):
            got, want = moving_average(x, window), loop_moving_average(x, window)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_trailing_partial_windows(self):
        x = np.array([0.0, 2.0, 4.0, 6.0])
        np.testing.assert_allclose(moving_average(x, 2), [0.0, 1.0, 3.0, 5.0])

    def test_full_window(self):
        x = np.arange(10, dtype=float)
        smoothed = moving_average(x, 10)
        assert smoothed[-1] == pytest.approx(4.5)

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="window"):
            moving_average(np.ones(3), 0)


class TestHandComputedTraces:
    def test_constant_trace(self):
        # Constant score 2.0 over 10 points at steps 100..1000.  Smoothing is a
        # no-op; the peak in the last 60% (indices 4..9) is first attained at
        # index 4 (step 500), so speed = 2/500; stability = 1; robustness = 0.
        scores = np.full(10, 2.0)
        row = compute_metrics([steps_1_to(10)], [scores], window=10)
        assert row.max_score == pytest.approx(2.0)
        assert row.learning_speed == pytest.approx(2.0 / 500.0)
        assert row.learning_stability == pytest.approx(1.0)
        assert row.robustness == 0.0
        assert row.final_performance == pytest.approx(2.0)

    def test_peak_then_half(self):
        # Peak 4.0 inside the last-60% window, then decay to 2.0 over the last
        # 20%: stability = 2/4 = 0.5.  Window 1 disables smoothing.
        scores = np.array([0.0, 1.0, 2.0, 4.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0])
        row = compute_metrics([steps_1_to(10)], [scores], window=1)
        assert row.max_score == pytest.approx(4.0)
        assert row.learning_speed == pytest.approx(4.0 / 500.0)
        assert row.learning_stability == pytest.approx(0.5)
        assert row.final_performance == pytest.approx(2.0)

    def test_two_seed_robustness(self):
        # Seeds at constant 3.0 and 1.0: mean curve 2.0, per-point std 1.0,
        # so robustness (mean std over the last 20%) is exactly 1.0.
        a = np.full(10, 3.0)
        b = np.full(10, 1.0)
        row = compute_metrics([steps_1_to(10), steps_1_to(10)], [a, b], window=1)
        assert row.robustness == pytest.approx(1.0)
        assert row.max_score == pytest.approx(2.0)
        assert row.learning_stability == pytest.approx(1.0)
        assert row.final_performance == pytest.approx(2.0)

    def test_smoothed_ramp(self):
        # Ramp 0,2,...,18 smoothed with window 2 gives 0,1,3,...,17; the peak
        # 17 sits at the last point (step 1000), and the last-20% mean is 16.
        scores = np.arange(0.0, 20.0, 2.0)
        row = compute_metrics([steps_1_to(10)], [scores], window=2)
        assert row.max_score == pytest.approx(17.0)
        assert row.learning_speed == pytest.approx(17.0 / 1000.0)
        assert row.learning_stability == pytest.approx(16.0 / 17.0)
        assert row.final_performance == pytest.approx(18.0)

    def test_flat_zero_trace_defines_stability_one(self):
        scores = np.zeros(10)
        row = compute_metrics([steps_1_to(10)], [scores], window=1)
        assert row.max_score == 0.0
        assert row.learning_stability == 1.0
        assert row.learning_speed == 0.0


class TestValidation:
    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            compute_metrics([steps_1_to(4)], [np.ones(4)], window=1)

    def test_trace_shorter_than_window_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            compute_metrics([steps_1_to(6)], [np.ones(6)], window=10)

    def test_mismatched_schedules_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            compute_metrics([steps_1_to(10), steps_1_to(9)], [np.ones(10), np.ones(9)], window=1)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            compute_metrics([], [], window=1)

    def test_stability_bounded_for_nonnegative_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.uniform(0, 5, 20)
            row = compute_metrics([steps_1_to(20)], [scores], window=3)
            assert 0.0 <= row.learning_stability <= 1.0 + 1e-12
            assert row.robustness >= 0.0


@pytest.mark.parametrize("step", [0, -100])
def test_non_positive_steps_rejected_by_message(step):
    with pytest.raises(ValueError, match="evaluation points must carry positive step counts"):
        compute_metrics([np.full(10, step)], [np.ones(10)], window=3)
