"""Stateful property tests of the store, the sampler and the sum-tree index together.

Hypothesis drives random sequences of inserts, mixture draws, array feedback
with its index update, resets with their rebuild, and ``td_priority``-style
direct score writes.  After every step the index must equal a recomputation,
stay internally consistent, and keep ``p(i) >= kappa/n``.  One opt-in run
(``pytest -m slow``) checks the same invariants at a million slots.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.store import Episode, WeightedStore

CAPACITY = 37  # not a power of two: the tree carries padding leaves
NU = 2.0
KAPPA = 0.1
TOLERANCE = 1e-9


def one_step_episode():
    return Episode([0], [1], [0.5], [1.0], [1])


def check_index(store, expected, kappa):
    """Leaves equal ``expected``, nodes equal their children's sums, ``p >= kappa/n``."""
    leaves = store.tree.leaves()
    assert np.max(np.abs(leaves - expected) / np.maximum(expected, 1.0)) <= TOLERANCE
    assert store.tree.consistency_error() < TOLERANCE
    assert store.probabilities(np.arange(store.capacity)).min() >= kappa / store.capacity


class StoreMachine(RuleBasedStateMachine):
    """Either the accumulator modes (feedback, resets) or ``td_priority``
    (direct score writes) over one store, as the training loop runs them."""

    @initialize(td=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def fill(self, td, seed):
        self.td = td
        self.kappa = 0.0 if td else KAPPA
        self.rng = np.random.default_rng(seed)
        self.sampler = SamplerState(
            SamplerConfig(
                capacity=CAPACITY, nu=NU, kappa=KAPPA, reset_period=3, reset_mode="soft", rho=0.5
            )
        )
        self.store = WeightedStore(CAPACITY, self.kappa)
        # What the td leaves must hold; the accumulator leaves are sqrt(w + nu).
        self.scores = np.zeros(CAPACITY)
        for _ in range(CAPACITY):
            self.insert(1.0)

    def draw_slots(self, batch):
        drawn = self.store.sample_mixture(batch, self.rng)
        assert ((drawn >= 0) & (drawn < CAPACITY)).all()
        return np.unique(drawn)

    @rule(score=st.floats(1e-3, 1e3))
    def insert(self, score):
        if self.td:
            slot = self.store.insert(one_step_episode(), self.sampler, self.rng, score=score)
            self.scores[slot] = score
        else:
            slot = self.store.insert(one_step_episode(), self.sampler, self.rng)
            assert self.sampler.w[slot] == 0.0

    @rule(batch=st.integers(1, 16))
    def sample(self, batch):
        self.draw_slots(batch)

    @precondition(lambda self: not self.td)
    @rule(batch=st.integers(1, 16), losses=st.lists(st.floats(0.0, 1e4), min_size=16, max_size=16))
    def feedback(self, batch, losses):
        slots = self.draw_slots(batch)
        p_used = self.store.probabilities(slots)
        np.testing.assert_allclose(p_used, self.sampler.distribution()[slots], rtol=1e-12)
        self.store.update_scores(self.sampler, slots, np.array(losses[: len(slots)]), p_used)

    @precondition(lambda self: not self.td)
    @rule()
    def reset(self):
        if self.sampler.maybe_reset():
            self.store.rebuild_index(self.sampler)

    @precondition(lambda self: self.td)
    @rule(batch=st.integers(1, 16), values=st.lists(st.floats(1e-3, 1e3), min_size=16, max_size=16))
    def set_scores(self, batch, values):
        slots = self.draw_slots(batch)
        values = np.array(values[: len(slots)])
        self.store.set_scores(slots, values)
        self.scores[slots] = values

    @invariant()
    def index_matches_recomputation(self):
        expected = self.scores if self.td else np.sqrt(self.sampler.w + NU)
        check_index(self.store, expected, self.kappa)


TestStoreStateMachine = StoreMachine.TestCase
TestStoreStateMachine.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=40, deadline=None
)


@pytest.mark.slow
def test_million_slot_feedback_run_keeps_invariants():
    capacity, updates, check_every = 1_000_000, 2_025, 225
    rng = np.random.default_rng(0)
    sampler = SamplerState(
        SamplerConfig(
            capacity=capacity, nu=1000.0, kappa=KAPPA, reset_period=50, reset_mode="soft", rho=0.9
        )
    )
    store = WeightedStore(capacity, KAPPA)
    episode = one_step_episode()
    for _ in range(capacity):
        store.insert(episode, sampler, rng)
    for step in range(1, updates + 1):
        slots, _, p_used = store.draw(8, rng)
        store.update_scores(sampler, slots, 10.0 ** rng.uniform(-2, 3, len(slots)), p_used)
        if sampler.maybe_reset():
            store.rebuild_index(sampler)
        if step % 4 == 0:
            store.insert(episode, sampler, rng)
        # Checks alternate between just after a reset rebuild and 25 updates past one.
        if step % check_every == 0:
            check_index(store, np.sqrt(sampler.w + sampler.config.nu), KAPPA)
