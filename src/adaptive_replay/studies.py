"""Controlled variance-reduction studies on synthetic replay buffers.

Builds buffers whose per-slot losses span several orders of magnitude, lets
the sampler learn a distribution from its own bandit feedback, and compares
the empirical gradient variance under the learned distribution against
uniform sampling with a shared probe stream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gradients import paired_gradient_variance, trajectory_gradients
from .policies import TabularSoftmaxPolicy
from .sampler import SamplerConfig, SamplerState
from .store import Trajectory, WeightedStore

# The synthetic MDP's shape: states, actions and steps per trajectory.
N_STATES, N_ACTIONS, HORIZON = 4, 3, 3
GAMMA = 0.99
# Slots drawn per feedback step while the distribution is learned, and the steps.
LEARN_BATCH, LEARN_STEPS = 8, 300
# The construction's bounds on one slot's loss d = omega^2 ||score||^2 R^2:
# behavior probabilities >= 0.2 over HORIZON = 3 steps give omega <= 5^3 = 125;
# a softmax step's score e_a - pi(.|s) has norm <= sqrt(2), so ||score||^2 <= 18;
# rewards are at most 10^(orders/2), so R^2 <= 9 * 10^orders.
_LOSS_BOUND = 125**2 * 18 * 9  # d <= _LOSS_BOUND * 10^orders


def max_orders(capacity: int, repeats: int) -> float:
    """Largest ``orders`` whose study no float overflow can break.

    With ``kappa = 0.1``, ``p >= 0.1 / capacity``, so an accumulator gains at
    most ``10 * capacity * d`` a step and ends below ``LEARN_STEPS`` times
    that.  A probe estimate weighs each ``g`` by ``1 / (p n) <= 10``, so the
    variance sums ``repeats`` squared deviations of at most ``400 * d`` each.
    """
    growth = max(10 * capacity * LEARN_STEPS, 400 * repeats)
    return math.log10(sys.float_info.max / (_LOSS_BOUND * growth))


def _check_capacity(capacity: int) -> None:
    if capacity < 2:  # log-spaced reward scales need two slots to span their decades
        raise ValueError(f"capacity must be >= 2, got {capacity}")


def check_study(capacity: int, repeats: int, orders: float) -> None:
    """Reject, by name, a study size that cannot be built or whose numbers can overflow."""
    _check_capacity(capacity)
    if not orders <= (bound := max_orders(capacity, repeats)):
        raise ValueError(f"orders must be at most {bound:.6g} at this capacity and repeats count,"
                         f" or the study can overflow; got {orders}")


def heteroscedastic_buffer(
    rng: np.random.Generator, capacity: int = 32, orders: float = 3.5
) -> tuple[WeightedStore, SamplerState, TabularSoftmaxPolicy]:
    """Buffer of ``capacity >= 2`` slots whose per-slot losses span ``orders`` decades.

    Trajectories get log-spaced reward scales, so the squared-gradient losses
    spread over roughly ``orders`` orders of magnitude regardless of the
    (random) states, actions and behavior probabilities.
    """
    _check_capacity(capacity)
    policy = TabularSoftmaxPolicy(
        N_STATES, N_ACTIONS, logits=rng.uniform(-0.5, 0.5, (N_STATES, N_ACTIONS))
    )
    sampler = SamplerState(SamplerConfig(capacity=capacity, nu=1.0, kappa=0.1, reset_period=10**9))
    store = WeightedStore(capacity, sampler.config.kappa)
    trajs = []
    for i in range(capacity):
        scale = 10.0 ** (orders / 2.0 * i / (capacity - 1))
        trajs.append(
            Trajectory(
                states=rng.integers(0, N_STATES, HORIZON),
                actions=rng.integers(0, N_ACTIONS, HORIZON),
                behavior_probs=rng.uniform(0.2, 1.0, HORIZON),
                rewards=scale * rng.uniform(0.5, 1.0, HORIZON),
                next_states=rng.integers(0, N_STATES, HORIZON),
            )
        )
    # Every fresh leaf is sqrt(0 + nu) = 1.0, and sums of unit leaves are exact,
    # so the index ``fill`` writes is the one ``rebuild_index`` would make.
    store.fill(trajs, sampler)
    return store, sampler, policy


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
    orders: float = 3.5,
) -> VarianceComparison:
    """One paired construction: learn a distribution, then probe both sides.

    The probe stream is shared between the learned and uniform measurements,
    so the comparison differs only through the sampling distribution.
    """
    check_study(capacity, repeats, orders)
    root = np.random.SeedSequence(int(seed))
    build_ss, learn_ss, probe_ss = root.spawn(3)
    store, sampler, policy = heteroscedastic_buffer(
        np.random.default_rng(build_ss), capacity=capacity, orders=orders
    )
    # Learn a distribution from bandit feedback with the training's replay step, at
    # fixed parameters: the store's rows and the policy stay frozen, so one
    # gradient pass serves every step.
    grads = trajectory_gradients(store, policy, GAMMA)
    rng = np.random.default_rng(learn_ss)
    for _ in range(LEARN_STEPS):
        slots, _, p = store.draw(LEARN_BATCH, rng)
        store.update_scores(sampler, slots, grads.d[slots], p)
    spread = float(np.log10(grads.d.max() / grads.d.min()))
    probe_seed = int(np.random.default_rng(probe_ss).integers(2**63))
    var_learned, var_uniform = paired_gradient_variance(
        grads, store.probabilities(np.arange(capacity)), batch, repeats, probe_seed
    )
    return VarianceComparison(
        seed=int(seed),
        var_learned=var_learned,
        var_uniform=var_uniform,
        loss_spread_orders=spread,
    )
