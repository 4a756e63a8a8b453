"""Controlled variance-reduction studies on synthetic replay buffers.

Builds buffers whose per-slot losses span several orders of magnitude, lets
the sampler learn a distribution from its own bandit feedback, and compares
the empirical gradient variance under the learned distribution against
uniform sampling with a shared probe stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import gradient_variance, trajectory_gradients
from .policies import TabularSoftmaxPolicy
from .sampler import SamplerConfig, SamplerState
from .store import Trajectory, WeightedStore


def heteroscedastic_buffer(
    rng: np.random.Generator,
    capacity: int = 32,
    n_states: int = 4,
    n_actions: int = 3,
    horizon: int = 3,
    orders: float = 3.5,
) -> tuple[WeightedStore, SamplerState, TabularSoftmaxPolicy]:
    """Buffer whose per-slot losses span ``orders`` decades.

    Trajectories get log-spaced reward scales, so the squared-gradient losses
    spread over roughly ``orders`` orders of magnitude regardless of the
    (random) states, actions and behavior probabilities.
    """
    policy = TabularSoftmaxPolicy(
        n_states, n_actions, logits=rng.uniform(-0.5, 0.5, (n_states, n_actions))
    )
    store = WeightedStore(capacity)
    sampler = SamplerState(SamplerConfig(capacity=capacity, nu=1.0, kappa=0.1, reset_period=10**9))
    trajs = []
    for i in range(capacity):
        scale = 10.0 ** (orders / 2.0 * i / (capacity - 1))
        trajs.append(
            Trajectory(
                states=rng.integers(0, n_states, horizon),
                actions=rng.integers(0, n_actions, horizon),
                behavior_probs=rng.uniform(0.2, 1.0, horizon),
                rewards=scale * rng.uniform(0.5, 1.0, horizon),
                next_states=rng.integers(0, n_states, horizon),
            )
        )
    # Every fresh leaf is sqrt(0 + nu) = 1.0, and sums of unit leaves are exact,
    # so the index ``fill`` writes is the one ``rebuild_index`` would make.
    store.fill(trajs, sampler)
    return store, sampler, policy


def learn_distribution(
    store: WeightedStore,
    sampler: SamplerState,
    policy: TabularSoftmaxPolicy,
    rng: np.random.Generator,
    gamma: float = 0.99,
    steps: int = 300,
    batch: int = 8,
) -> np.ndarray:
    """Run the bandit feedback loop at fixed parameters; returns the learned distribution."""
    d = trajectory_gradients(store, policy, gamma).d
    for _ in range(steps):
        p = sampler.distribution()
        drawn = np.unique(store.sample_mixture(sampler.config.kappa, batch, rng))
        sampler.record_feedback(drawn, d[drawn], p[drawn])
        store.update_scores(sampler, drawn)
    return sampler.distribution()


@dataclass
class VarianceComparison:
    seed: int
    var_learned: float
    var_uniform: float
    loss_spread_orders: float

    @property
    def improved(self) -> bool:
        return self.var_learned <= self.var_uniform


def learned_vs_uniform_variance(
    seed: int,
    capacity: int = 32,
    batch: int = 4,
    repeats: int = 400,
    learn_steps: int = 300,
    orders: float = 3.5,
    gamma: float = 0.99,
) -> VarianceComparison:
    """One paired construction: learn a distribution, then probe both sides.

    The probe stream is shared between the learned and uniform measurements,
    so the comparison differs only through the sampling distribution.
    """
    root = np.random.SeedSequence(int(seed))
    build_ss, learn_ss, probe_ss = root.spawn(3)
    store, sampler, policy = heteroscedastic_buffer(
        np.random.default_rng(build_ss), capacity=capacity, orders=orders
    )
    learn_distribution(
        store, sampler, policy, np.random.default_rng(learn_ss), gamma=gamma,
        steps=learn_steps,
    )
    grads = trajectory_gradients(store, policy, gamma)
    spread = float(np.log10(grads.d.max() / grads.d.min()))
    probe_seed = int(np.random.default_rng(probe_ss).integers(2**63))
    var_learned, var_uniform = (
        gradient_variance(grads, p, batch, repeats, np.random.default_rng(probe_seed))
        for p in (sampler.distribution(), np.full(capacity, 1.0 / capacity))
    )
    return VarianceComparison(
        seed=int(seed),
        var_learned=var_learned,
        var_uniform=var_uniform,
        loss_spread_orders=spread,
    )
