"""The benchmark's workloads: ``run_training`` calls that stress different layers.

All three share batch 8, learning rate 0.05, 20 greedy evaluation episodes
and the criterion-10 sampler (``kappa=0.1, nu=1000, reset_period=50``, soft
resets with ``rho=0.9``).

``grid32_adaptive``
    The demo / acceptance-criterion-10 run: gridworld4x4, capacity 32, with
    paired variance probes.  The per-step estimator loops dominate it and the
    index is a few percent, so an estimator change moves it and a store or
    index change does not.
``bandit65k_adaptive``
    A one-step bandit at capacity 65,000 (not a power of two, so the sum tree
    carries padding leaves).  The estimator is cheap; the O(n) work of the
    dense ``distribution()`` calls and of the reset rebuilds dominates the
    update phase, and the 65,000-slot warm-up dominates set-up.
``bandit65k_td``
    The same buffer in ``td_priority`` mode: it drives the index through
    direct leaf writes (``set_scores`` -> ``set_many``) and never touches the
    sampler, so a change that speeds the adaptive read path but slows writes
    shows here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

BATCH = 8
LEARNING_RATE = 0.05
EVAL_EPISODES = 20
# Without a warm-up, the first rep of a run was about 7% slower than the
# rest in the median run (unscaled CPU time).
WARMUP_CAPACITY = 4096
WARMUP_UPDATES = 250
SAMPLER = dict(kappa=0.1, nu=1000.0, reset_period=50, reset_mode="soft", rho=0.9)

# Mean final return of grid32_adaptive over training seeds 0-39 (single
# seeds range from -0.23 to 0.95), measured at the commit that defined this
# benchmark.  The mean over a run's training seeds may fall below it by at
# most the tolerance, about four standard errors of a ten-seed mean; an
# untrained (greedy, all-zero logits) policy scores about -0.34.
GRID_RECORDED_RETURN = 0.71
GRID_RETURN_TOLERANCE = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    mode: str
    capacity: int
    updates: int
    eval_every: int
    probe_every: int = 0
    probe_repeats: int = 400
    # Distinct training seeds per benchmark run; the gates that pool over
    # seeds (criterion 10's probe win fraction) need several.
    seeds: int = 2
    optimal_return: float | None = None
    min_mean_return: float | None = None
    min_probe_wins: float | None = None
    check_invariants: bool = False

    def warmup(self) -> "Workload":
        """About a second of the same kind of work, run untimed before a run's reps."""
        return replace(self, capacity=min(self.capacity, WARMUP_CAPACITY),
                       updates=WARMUP_UPDATES, probe_every=0)

    def make_env(self, program):
        if self.env == "gridworld4x4":
            return program.gridworld_env(4, 4)
        return program.two_state_bandit_env()

    def make_config(self, program, seed: int):
        return program.TrainingConfig(
            total_steps=self.updates,
            batch_size=BATCH,
            buffer_capacity=self.capacity,
            learning_rate=LEARNING_RATE,
            selection_mode=self.mode,
            seed=seed,
            eval_every=self.eval_every,
            eval_episodes=EVAL_EPISODES,
            probe_every=self.probe_every,
            probe_repeats=self.probe_repeats,
            sampler=program.SamplerConfig(capacity=self.capacity, **SAMPLER),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid32_adaptive",
            env="gridworld4x4",
            mode="adaptive",
            capacity=32,
            updates=2000,
            eval_every=125,
            probe_every=250,
            seeds=10,
            min_mean_return=GRID_RECORDED_RETURN - GRID_RETURN_TOLERANCE,
            min_probe_wins=0.7,
        ),
        Workload(
            name="bandit65k_adaptive",
            env="two_state_bandit",
            mode="adaptive",
            capacity=65_000,
            # Not a multiple of reset_period: the last 25 updates change the
            # index incrementally, so the final-state invariants test more
            # than the rebuild that a reset step ends with.
            updates=1025,
            eval_every=250,
            optimal_return=1.0,
            check_invariants=True,
        ),
        Workload(
            name="bandit65k_td",
            env="two_state_bandit",
            mode="td_priority",
            capacity=65_000,
            # Set-up takes most of a rep; 500 updates keep a rep near 10 s,
            # so three or four fit a run.
            updates=500,
            eval_every=250,
            optimal_return=1.0,
        ),
    )
}
