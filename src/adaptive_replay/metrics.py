"""Summary metrics over evaluation-point traces.

All windows are taken over evaluation-point indices: the last 60% of points
for peak finding, the last 20% for end-of-run and across-seed dispersion.
Scores are smoothed with a trailing moving average before anything else is
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_WINDOW = 10


@dataclass
class MetricsRow:
    """Learning-curve summary for one seed group.

    learning_speed
        Peak smoothed score within the last 60% of evaluation points, divided
        by the step count at which the peak is first attained.
    max_score
        That peak smoothed score.
    learning_stability
        Mean smoothed score over the last 20% of points divided by the peak;
        lies in [0, 1] for non-negative scores.
    robustness
        Across-seed standard deviation of the smoothed scores, averaged over
        the last 20% of points (0 for a single seed).
    final_performance
        Mean unsmoothed score at the final evaluation point.
    """

    learning_speed: float
    max_score: float
    learning_stability: float
    robustness: float
    final_performance: float


def moving_average(scores: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; early points average over what is available."""
    if window < 1:
        raise ValueError("window must be >= 1")
    csum = np.cumsum(np.asarray(scores, dtype=np.float64))
    i = np.arange(len(csum))
    lo = np.maximum(0, i - window + 1)
    # csum[lo - 1] wraps to the last entry where lo == 0; where() discards it.
    return (csum - np.where(lo > 0, csum[lo - 1], 0.0)) / (i - lo + 1)


def compute_metrics(
    steps: Sequence[np.ndarray],
    scores: Sequence[np.ndarray],
    window: int = DEFAULT_WINDOW,
) -> MetricsRow:
    """Metrics for a group of aligned traces (one entry per seed).

    All traces must share the evaluation schedule (same number of points);
    per-seed step counts may differ slightly and are averaged.
    """
    if len(steps) == 0 or len(steps) != len(scores):
        raise ValueError("need matching, non-empty step and score sequences")
    lengths = {len(s) for s in steps} | {len(s) for s in scores}
    if len(lengths) != 1:
        raise ValueError("traces must share the evaluation schedule")
    n = lengths.pop()
    if n < max(window, 5):
        raise ValueError(f"trace with {n} points is shorter than the metric windows")

    step_curve = np.mean([np.asarray(s, dtype=np.float64) for s in steps], axis=0)
    smoothed = np.stack([moving_average(np.asarray(s), window) for s in scores])
    mean_curve = smoothed.mean(axis=0)
    std_curve = smoothed.std(axis=0)

    tail60 = int(np.floor(0.4 * n))
    tail20 = int(np.floor(0.8 * n))
    peak_offset = int(np.argmax(mean_curve[tail60:]))
    peak_index = tail60 + peak_offset
    max_score = float(mean_curve[peak_index])
    peak_steps = float(step_curve[peak_index])
    if peak_steps <= 0:
        raise ValueError("evaluation points must carry positive step counts")
    end_mean = float(mean_curve[tail20:].mean())
    final = float(np.mean([np.asarray(s)[-1] for s in scores]))
    return MetricsRow(
        learning_speed=max_score / peak_steps,
        max_score=max_score,
        learning_stability=end_mean / max_score if max_score != 0.0 else 1.0,
        robustness=float(std_curve[tail20:].mean()),
        final_performance=final,
    )
