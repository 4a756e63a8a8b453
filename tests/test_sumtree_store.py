"""Sum-tree index, mixture sampling, eviction, and the columnar trajectory rows."""

import re

import numpy as np
import pytest
from scipy import stats

from adaptive_replay import sampler as sampler_module
from adaptive_replay import store as store_module
from adaptive_replay.envs import chain_env
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.store import (
    SET_DEDUP_MAX,
    Episode,
    NotReadyError,
    Trajectory,
    TrajectoryBatch,
    WeightedStore,
)
from adaptive_replay.sumtree import SCALAR_DESCENT_MAX, SumTree
from adaptive_replay.training import FILL_BLOCK, _AccumulatorStrategy, _TDPriorityStrategy


def make_traj(rng, length=3):
    return Trajectory(
        states=rng.integers(0, 5, length),
        actions=rng.integers(0, 3, length),
        behavior_probs=rng.uniform(0.1, 1.0, length),
        rewards=rng.normal(size=length),
        next_states=rng.integers(0, 5, length),
    )


def filled_store(rng, capacity, nu=1.0, kappa=0.0, **kwargs):
    store = WeightedStore(capacity, kappa)
    sampler = SamplerState(SamplerConfig(capacity=capacity, nu=nu, kappa=kappa, **kwargs))
    for _ in range(capacity):
        store.insert(make_traj(rng), sampler)
    return store, sampler


def per_node_rebuild(capacity, scores):
    """Node array of a tree over ``scores``, summed one node at a time from the
    last internal node up: the reference for the level-by-level rebuild."""
    padded = 1 << (capacity - 1).bit_length()
    nodes = np.zeros(2 * padded)
    nodes[padded : padded + capacity] = scores
    for node in range(padded - 1, 0, -1):
        nodes[node] = nodes[2 * node] + nodes[2 * node + 1]
    return nodes


def zeroing_rebuild(capacity, scores):
    """Node array of a rebuild that zeroes the whole tree, writes the leaves
    and sums each level into a fresh temporary: the reference for the
    in-place rebuild that zeroes only the padding leaves."""
    padded = 1 << (capacity - 1).bit_length()
    nodes = np.zeros(2 * padded)
    nodes[padded : padded + capacity] = scores
    m = padded >> 1
    while m >= 1:
        nodes[m : 2 * m] = nodes[2 * m : 4 * m : 2] + nodes[2 * m + 1 : 4 * m : 2]
        m >>= 1
    return nodes


def per_level_set_many(nodes, padded, indices, values):
    """``SumTree.set_many`` on a node array as a loop over the levels, one
    ``np.add.at`` each: the reference for the single flattened add."""
    leaves = padded + np.asarray(indices)
    delta = values - nodes[leaves]
    nodes[leaves] = values
    ancestors = leaves >> 1
    while ancestors[0] >= 1:
        np.add.at(nodes, ancestors, delta)
        ancestors = ancestors >> 1


def per_node_set(nodes, padded, index, value):
    """``SumTree.set`` on a node array, one ancestor at a time."""
    node = padded + index
    delta = value - nodes[node]
    nodes[node] = value
    node >>= 1
    while node >= 1:
        nodes[node] += delta
        node >>= 1


def per_draw_descent(nodes, padded, capacity, offset):
    """``SumTree.sample`` of one offset on a node array, one level at a time:
    go right when the offset reaches the left child's sum, less that sum."""
    node = 1
    while node < padded:
        left = nodes[2 * node]
        if offset >= left:
            offset -= left
            node = 2 * node + 1
        else:
            node = 2 * node
    return min(node - padded, capacity - 1)


def assert_row_holds(store, slot, traj):
    n = len(traj)
    assert store.lengths[slot] == n
    for name in ("states", "actions", "behavior_probs", "rewards", "next_states"):
        np.testing.assert_array_equal(getattr(store, name)[slot, :n], getattr(traj, name))


TD_EPS, TD_EXPONENT = 1e-6, 0.6


def td_scores(priorities):
    return (priorities + TD_EPS) ** TD_EXPONENT


class TestSumTree:
    def test_single_leaf(self):
        tree = SumTree(1)
        tree.set(0, 2.5)
        assert tree.total == pytest.approx(2.5)
        assert tree.get(0) == 2.5

    def test_incremental_matches_rebuild(self):
        rng = np.random.default_rng(1)
        n = 23
        incremental = SumTree(n)
        scores = np.zeros(n)
        for _ in range(10_000):
            idx = np.unique(rng.integers(0, n, rng.integers(1, 6)))
            values = rng.uniform(0, 10, len(idx))
            scores[idx] = values
            incremental.set_many(idx, values)
        rebuilt = SumTree(n)
        rebuilt.rebuild(scores)
        np.testing.assert_allclose(incremental._tree, rebuilt._tree, rtol=1e-9)
        assert incremental.consistency_error() < 1e-9

    def test_sampling_matches_leaf_masses(self):
        rng = np.random.default_rng(2)
        n = 37
        tree = SumTree(n)
        scores = rng.uniform(0.1, 5.0, n)
        tree.rebuild(scores)
        draws = 100_000
        counts = np.bincount(tree.sample(rng.random(draws) * tree.total), minlength=n)
        expected = scores / scores.sum() * draws
        chi2 = stats.chisquare(counts, expected)
        assert chi2.pvalue > 0.01

    @pytest.mark.parametrize("capacity", [1, 3, 5, 48, 65_000])
    def test_rebuild_equals_per_node_loop_bitwise(self, capacity):
        rng = np.random.default_rng(capacity)
        # Scores over six decades, so a different summation order would show.
        scores = 10.0 ** rng.uniform(-3, 3, capacity)
        tree = SumTree(capacity)
        tree.set(0, 123.0)  # stale state the rebuild must overwrite
        tree.rebuild(scores)
        np.testing.assert_array_equal(tree._tree, per_node_rebuild(capacity, scores))

    @pytest.mark.parametrize("capacity", [1, 2, 3, 32, 33, 1000, 65_000, 65_536, 1_000_000])
    def test_rebuild_over_stale_nodes_equals_zeroing_rebuild_bitwise(self, capacity):
        rng = np.random.default_rng(capacity + 2)
        tree = SumTree(capacity)
        # Stale values in every node, padding leaves included.
        tree._tree[:] = rng.uniform(1.0, 2.0, len(tree._tree))
        scores = 10.0 ** rng.uniform(-3, 3, capacity)
        tree.rebuild(scores)
        # Node 0 is no node of the tree; the rebuild leaves it alone.
        expected = zeroing_rebuild(capacity, scores)
        assert tree._tree[1:].tobytes() == expected[1:].tobytes()

    @pytest.mark.parametrize("capacity", [1, 5, 65_000])
    def test_writes_equal_per_level_loops_bitwise(self, capacity):
        rng = np.random.default_rng(capacity + 1)
        padded = 1 << (capacity - 1).bit_length()
        tree, expected = SumTree(capacity), np.zeros(2 * padded)
        for _ in range(400):
            # Leaves near one base share most of their ancestors; shuffled,
            # so a level's deltas do not arrive in leaf order.
            base = int(rng.integers(capacity))
            indices = np.unique(np.minimum(base + rng.integers(0, 12, rng.integers(1, 9)), capacity - 1))
            rng.shuffle(indices)
            # Scores over six decades, so a different summation order would show.
            values = 10.0 ** rng.uniform(-3, 3, len(indices))
            tree.set_many(indices, values)
            per_level_set_many(expected, padded, indices, values)
            index, value = int(rng.integers(capacity)), 10.0 ** rng.uniform(-3, 3)
            tree.set(index, value)
            per_node_set(expected, padded, index, value)
        np.testing.assert_array_equal(tree._tree, expected)

    @pytest.mark.parametrize("capacity", [1, 3, 5, 37, 65_000])
    def test_sample_equals_per_draw_descent_bitwise(self, capacity):
        rng = np.random.default_rng(capacity + 2)
        # Scores over six decades, with exact zeros where an offset can land on
        # a boundary; slot 0 is one, so offset 0 tells ">=" from ">".
        scores = 10.0 ** rng.uniform(-3, 3, capacity)
        scores[rng.permutation(capacity)[: capacity // 3]] = 0.0
        if capacity > 1:
            scores[0] = 0.0
        padded = 1 << (capacity - 1).bit_length()
        nodes = per_node_rebuild(capacity, scores)
        total = nodes[1]
        tree = SumTree(capacity)
        tree.rebuild(scores)
        # Offset ``total`` can land on a padding leaf; the guard maps it back.
        edges = [0.0, np.nextafter(total, 0.0), total]
        for batch in (1, 8, 32, 33, 256):
            u = rng.random(batch) * total
            u[: min(batch, 3)] = edges[:batch]
            rng.shuffle(u)
            expected = [per_draw_descent(nodes, padded, capacity, x) for x in u]
            np.testing.assert_array_equal(tree.sample(u), expected)
            chunks = [tree.sample(u[i : i + SCALAR_DESCENT_MAX]) for i in range(0, batch, SCALAR_DESCENT_MAX)]
            np.testing.assert_array_equal(np.concatenate(chunks), expected)

    def test_rejects_wrong_score_count(self):
        with pytest.raises(ValueError, match="scores"):
            SumTree(4).rebuild(np.ones(3))


class TestMixtureSampling:
    def test_requires_warmed_buffer(self):
        rng = np.random.default_rng(0)
        store = WeightedStore(4, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=4))
        store.insert(make_traj(rng), sampler)
        with pytest.raises(NotReadyError):
            store.sample_mixture(8, rng)

    def test_zero_batch_gives_empty(self):
        rng = np.random.default_rng(0)
        store, sampler = filled_store(rng, 3)
        assert len(store.sample_mixture(0, rng)) == 0

    def test_equal_weights_sample_uniformly(self):
        rng = np.random.default_rng(5)
        store, sampler = filled_store(rng, 16, nu=2.0, kappa=0.3)
        draws = 100_000
        counts = np.bincount(store.sample_mixture(draws, rng), minlength=16)
        chi2 = stats.chisquare(counts)  # uniform expectation
        assert chi2.pvalue > 0.01

    def test_frequencies_match_distribution(self):
        rng = np.random.default_rng(6)
        store, sampler = filled_store(rng, 3, nu=1.0, kappa=0.0)
        sampler.w = np.array([3.0, 0.0, 1.0])
        store.rebuild_index(sampler)
        p = sampler.distribution()
        np.testing.assert_allclose(
            p, np.array([2.0, 1.0, np.sqrt(2.0)]) / (3.0 + np.sqrt(2.0)), rtol=1e-12
        )
        draws = 100_000
        counts = np.bincount(store.sample_mixture(draws, rng), minlength=3)
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3.0 * sigma)

    def test_full_mixing_ignores_weights(self):
        rng = np.random.default_rng(7)
        store, sampler = filled_store(rng, 8, nu=1.0, kappa=1.0)
        sampler.w = np.arange(8.0) * 100.0
        store.rebuild_index(sampler)
        draws = 100_000
        counts = np.bincount(store.sample_mixture(draws, rng), minlength=8)
        chi2 = stats.chisquare(counts)
        assert chi2.pvalue > 0.01

    def test_chi_square_against_distribution_across_sizes(self):
        rng = np.random.default_rng(8)
        for capacity in (2, 16, 64):
            store, sampler = filled_store(rng, capacity, nu=0.5, kappa=0.2)
            sampler.w = rng.uniform(0, 50, capacity)
            store.rebuild_index(sampler)
            p = sampler.distribution()
            draws = 100_000
            counts = np.bincount(store.sample_mixture(draws, rng), minlength=capacity)
            chi2 = stats.chisquare(counts, p * draws)
            assert chi2.pvalue > 0.01, f"capacity {capacity}"


class TestInsertOverwrite:
    def test_fill_phase_is_sequential(self):
        rng = np.random.default_rng(9)
        store = WeightedStore(4, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=4))
        slots = [store.insert(make_traj(rng), sampler) for _ in range(4)]
        assert slots == [0, 1, 2, 3]
        assert store.occupancy == 4

    @pytest.mark.parametrize("given", [False, True])
    def test_full_store_overwrites_the_oldest_slot(self, given):
        # Past the fill, inserts overwrite slots in the order they were filled,
        # whatever the leaves and the mixture say: the heaviest leaf (slot 0)
        # goes first.  Each victim's accumulator is zeroed and its leaf set to
        # sqrt(nu) or the given score.
        rng = np.random.default_rng(26)
        n, nu = 5, 4.0
        store = WeightedStore(n, kappa=0.3)
        sampler = SamplerState(SamplerConfig(capacity=n, nu=nu, kappa=0.3))
        store.fill([make_traj(rng) for _ in range(n)], sampler)
        sampler.w[:] = [80.0, 5.0, 20.0, 0.5, 9.0]
        store.rebuild_index(sampler)
        victims = []
        for i in range(2 * n):
            traj = make_traj(rng)
            score = 0.25 * (i + 1) if given else None
            victim = store.insert(traj, sampler, score=score)
            victims.append(victim)
            assert sampler.w[victim] == 0.0
            assert store.tree.get(victim) == (score if given else np.sqrt(nu))
            assert_row_holds(store, victim, traj)
        assert victims == [0, 1, 2, 3, 4] * 2
        assert store.occupancy == n
        assert store.tree.consistency_error() < 1e-12

    @pytest.mark.parametrize("kappa", [-0.1, 1.5, float("nan")])
    def test_store_rejects_kappa_outside_unit_interval(self, kappa):
        with pytest.raises(ValueError, match=r"kappa must lie in \[0, 1\], got"):
            WeightedStore(4, kappa)

    def test_eviction_resets_accumulated_weight(self):
        rng = np.random.default_rng(12)
        store, sampler = filled_store(rng, 4, nu=1.0)
        sampler.w[:] = [5.0, 6.0, 7.0, 8.0]
        store.rebuild_index(sampler)
        traj = make_traj(rng)
        victim = store.insert(traj, sampler)
        assert sampler.w[victim] == 0.0
        assert store.tree.get(victim) == pytest.approx(1.0)  # sqrt(0 + nu)
        assert_row_holds(store, victim, traj)

    def test_single_slot_buffer_always_evicts_slot_zero(self):
        rng = np.random.default_rng(13)
        store, sampler = filled_store(rng, 1)
        traj = make_traj(rng)
        assert store.insert(traj, sampler) == 0
        assert_row_holds(store, 0, traj)

    def test_longer_insert_widens_columns_and_pads(self):
        rng = np.random.default_rng(24)
        store = WeightedStore(3, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=3))
        short, long = make_traj(rng, length=2), make_traj(rng, length=5)
        store.insert(short, sampler)
        assert store.width == 2
        store.insert(long, sampler)
        assert store.width == 5
        assert_row_holds(store, 0, short)
        assert_row_holds(store, 1, long)
        np.testing.assert_array_equal(store.behavior_probs[0, 2:], 1.0)
        np.testing.assert_array_equal(store.behavior_probs[2], 1.0)  # never written
        np.testing.assert_array_equal(store.lengths, [2, 5, 0])

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_inserts_after_a_partial_fill_continue_the_ring(self, k):
        # The fill's counter is the insert's: the free slots come first, then
        # the oldest, and occupancy stops at the capacity.
        rng = np.random.default_rng(43)
        n = 5
        store = WeightedStore(n, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=n))
        store.fill([make_traj(rng) for _ in range(k)], sampler)
        slots, occupancy = [], []
        for _ in range(n - k + 3):
            slots.append(store.insert(make_traj(rng), sampler))
            occupancy.append(store.occupancy)
        assert slots == [*range(k, n), 0, 1, 2]
        assert occupancy == [*range(k + 1, n + 1), n, n, n]


@pytest.mark.parametrize("capacity", [1, 5, 37])
@pytest.mark.parametrize("seed", range(20))
def test_fill_blocks_and_inserts_write_one_ring(capacity, seed):
    # A drawn mix of fill blocks (1-5 episodes, while free slots remain) and
    # inserts, some with given scores, writes 3 * capacity trajectories in the
    # ring order 0, 1, ..., capacity - 1, 0, ... of a model list.
    rng = np.random.default_rng(seed)
    nu = 4.0
    store = WeightedStore(capacity, kappa=0.1)
    sampler = SamplerState(SamplerConfig(capacity=capacity, nu=nu, kappa=0.1))
    written = []
    while len(written) < 3 * capacity:
        sampler.w[:] = rng.uniform(1.0, 5.0, capacity)  # each victim's must be zeroed
        free = capacity - store.occupancy
        size = int(rng.integers(1, min(5, free) + 1)) if free and rng.random() < 0.5 else 0
        given = rng.random() < 0.5
        trajs = [make_traj(rng, length=int(rng.integers(1, 6))) for _ in range(max(size, 1))]
        scores = rng.uniform(0.5, 2.0, len(trajs)) if given else None
        if size:
            store.fill(trajs, sampler, scores)
            slots = list(range(len(written), len(written) + size))
        else:
            slots = [store.insert(trajs[0], sampler, score=None if scores is None else scores[0])]
        assert slots == [i % capacity for i in range(len(written), len(written) + len(trajs))]
        written += slots
        assert store.occupancy == min(len(written), capacity)
        for i, (slot, traj) in enumerate(zip(slots, trajs)):
            assert_row_holds(store, slot, traj)
            assert sampler.w[slot] == 0.0
            assert store.tree.get(slot) == (scores[i] if given else np.sqrt(nu))
    assert written == [i % capacity for i in range(len(written))]
    assert store.tree.total == pytest.approx(store.tree.leaves().sum(), rel=1e-12)


COLUMNS = ("states", "actions", "behavior_probs", "rewards", "next_states")


def random_rollouts(rng, lengths, kind):
    """Chain-5 steps of the given lengths, as ``Episode`` lists or ``Trajectory``
    records checked from array slices."""
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    total = int(bounds[-1])
    columns = (
        rng.integers(0, 5, total), rng.integers(0, 2, total), rng.uniform(0.1, 1.0, total),
        rng.normal(size=total), rng.integers(0, 5, total),
    )
    if kind == "episode":
        columns = [column.tolist() for column in columns]
    make = Episode if kind == "episode" else Trajectory
    return [
        make(*(column[lo:hi] for column in columns))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def fill_strategy(mode, capacity, rng):
    """An empty store, accumulators holding stale values, and a training strategy over them."""
    store = WeightedStore(capacity, 0.0 if mode == "td_priority" else 0.1)
    sampler = SamplerState(SamplerConfig(capacity=capacity, nu=1000.0, kappa=0.1))
    sampler.w[:] = rng.uniform(0.0, 5.0, capacity)
    if mode == "td_priority":
        return store, sampler, _TDPriorityStrategy(store, chain_env(5), 0.05)
    return store, sampler, _AccumulatorStrategy(sampler, store)


def assert_same_store(got, want):
    (got_store, got_sampler), (want_store, want_sampler) = got, want
    for name in (*COLUMNS, "lengths"):
        a, b = getattr(got_store, name), getattr(want_store, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got_store.occupancy == want_store.occupancy
    assert got_store.tree._tree.tobytes() == want_store.tree._tree.tobytes()
    assert got_sampler.w.tobytes() == want_sampler.w.tobytes()


class TestBlockFill:
    """``fill`` in blocks with a strategy's scores leaves the store that
    per-episode inserts with the same scores leave, byte for byte."""

    @staticmethod
    def filled_both_ways(mode, rollouts, blocks):
        capacity = len(rollouts)
        store, sampler, strategy = fill_strategy(mode, capacity, np.random.default_rng(0))
        for rollout in rollouts:
            scores = strategy.scores([rollout])
            store.insert(
                rollout, sampler, score=None if scores is None else float(scores[0])
            )
        want = store, sampler
        store, sampler, strategy = fill_strategy(mode, capacity, np.random.default_rng(0))
        lo = 0
        for size in blocks:
            block = rollouts[lo : lo + size]
            store.fill(block, sampler, strategy.scores(block))
            lo += size
        assert lo == capacity
        return (store, sampler), want

    # The td sweep reads both kinds alike, so 65,000 Trajectory records
    # (seconds to build and insert) run in one mode.
    @pytest.mark.parametrize(
        "capacity, kind, mode",
        [
            (capacity, kind, mode)
            for capacity in (1, FILL_BLOCK - 1, FILL_BLOCK, FILL_BLOCK + 1, 65_000)
            for kind in ("episode", "trajectory")
            for mode in ("adaptive", "td_priority")
            if (capacity, kind, mode) != (65_000, "trajectory", "td_priority")
        ],
    )
    def test_blocks_equal_inserts_bitwise(self, capacity, kind, mode):
        rng = np.random.default_rng(capacity)
        # Only the last rollout is 7 steps long, so past one block the
        # columns widen after an earlier block filled them.
        lengths = np.append(rng.integers(1, 5, capacity - 1), 7)
        rollouts = random_rollouts(rng, lengths, kind)
        blocks = [min(FILL_BLOCK, capacity - lo) for lo in range(0, capacity, FILL_BLOCK)]
        got, want = self.filled_both_ways(mode, rollouts, blocks)
        assert_same_store(got, want)
        got_store = got[0]
        assert got_store.width == 7
        batch = TrajectoryBatch.of(rollouts)
        for name in (*COLUMNS, "lengths"):
            assert getattr(batch, name).tobytes() == getattr(got_store, name).tobytes(), name

    @pytest.mark.parametrize("mode", ["adaptive", "td_priority"])
    @pytest.mark.parametrize("kind", ["episode", "trajectory"])
    def test_widening_blocks_and_one_episode_block(self, monkeypatch, kind, mode):
        calls = []
        for name in ("set", "set_many"):
            original = getattr(SumTree, name)

            def recorded(tree, *args, name=name, original=original):
                calls.append(name)
                return original(tree, *args)

            monkeypatch.setattr(SumTree, name, recorded)
        rng = np.random.default_rng(41)
        # Block 2 widens the columns block 1 wrote; block 4 widens again and
        # holds one episode, which must take SumTree.set.
        rollouts = random_rollouts(rng, [2, 1, 3, 6, 2, 5, 1, 3, 7], kind)
        got, want = self.filled_both_ways(mode, rollouts, [3, 1, 4, 1])
        assert calls[len(rollouts):] == ["set_many", "set", "set_many", "set"]
        assert_same_store(got, want)

    def test_rejects_more_than_the_free_slots(self):
        rng = np.random.default_rng(42)
        store = WeightedStore(3, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=3))
        store.fill(random_rollouts(rng, [1, 2], "episode"), sampler)
        with pytest.raises(ValueError, match="do not fit 1 free slots"):
            store.fill(random_rollouts(rng, [1, 2], "episode"), sampler)
        assert store.occupancy == 2


class TestIndexMaintenance:
    def test_rebuild_matches_incremental_after_mixed_operations(self):
        rng = np.random.default_rng(14)
        capacity = 32
        store, sampler = filled_store(rng, capacity, nu=2.0, kappa=0.1)
        for _ in range(10_000):
            op = rng.integers(0, 3)
            if op == 0:
                slots = np.unique(rng.integers(0, capacity, 4))
                p = sampler.distribution()
                losses = np.array([rng.uniform(0, 5) for _ in slots])
                store.update_scores(sampler, slots, losses, p[slots])
            elif op == 1:
                store.insert(make_traj(rng), sampler)
            else:
                if sampler.maybe_reset():
                    store.rebuild_index(sampler)
        incremental = store.tree.leaves()
        reference = WeightedStore(capacity, kappa=0.1)
        reference.tree.rebuild(np.sqrt(sampler.w + sampler.config.nu))
        np.testing.assert_allclose(incremental, reference.tree.leaves(), rtol=1e-9)
        assert store.tree.consistency_error() < 1e-9

    def test_empty_update_keeps_index(self):
        rng = np.random.default_rng(15)
        store, sampler = filled_store(rng, 4)
        before = store.tree.leaves()
        store.update_scores(sampler, np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
        np.testing.assert_array_equal(before, store.tree.leaves())

    def test_single_slot_root_equals_score(self):
        rng = np.random.default_rng(16)
        store, sampler = filled_store(rng, 1, nu=4.0)
        assert store.tree.total == pytest.approx(2.0)


class TestReplayStep:
    """``draw`` and ``update_scores``: one store call for each side of a replay step."""

    @staticmethod
    def learned_store(capacity=37, kappa=0.2):
        rng = np.random.default_rng(24)
        store, sampler = filled_store(rng, capacity, nu=2.0, kappa=kappa)
        sampler.w[:] = 10.0 ** rng.uniform(-2, 3, capacity)
        store.rebuild_index(sampler)
        return store, sampler

    # A padded capacity and a power of two; batches on both sides of the sum
    # tree's Python-descent bound and of the set deduplication's bound.
    @pytest.mark.parametrize("capacity", [37, 32])
    @pytest.mark.parametrize("kappa", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize(
        "batch",
        [1, 8, SCALAR_DESCENT_MAX, SCALAR_DESCENT_MAX + 1, SET_DEDUP_MAX, SET_DEDUP_MAX + 1,
         4 * SCALAR_DESCENT_MAX],
    )
    def test_draw_is_sample_mixture_deduplicated(self, capacity, kappa, batch):
        store, _ = self.learned_store(capacity, kappa)
        rng, reference_rng = np.random.default_rng(25), np.random.default_rng(25)
        draws = store.sample_mixture(batch, reference_rng)
        slots, drawn, p = store.draw(batch, rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert slots.dtype == drawn.dtype == np.int64
        assert (np.diff(slots) > 0).all()
        np.testing.assert_array_equal(slots[drawn], draws)
        np.testing.assert_array_equal(p, store.probabilities(slots))

    def test_draw_before_full_raises(self):
        store = WeightedStore(8, kappa=0.1)
        sampler = SamplerState(SamplerConfig(capacity=8, kappa=0.1))
        store.fill([make_traj(np.random.default_rng(26)) for _ in range(7)], sampler)
        with pytest.raises(NotReadyError):
            store.draw(4, np.random.default_rng(27))

    # The two leaf writers a caller can hand slots to: the feedback step, whose
    # check is record_feedback's, and the direct score write.
    WRITERS = {
        "update_scores": lambda store, sampler, slots: store.update_scores(
            sampler, slots, np.ones(len(slots)), np.full(len(slots), 0.5)
        ),
        "set_scores": lambda store, sampler, slots: store.set_scores(slots, np.full(len(slots), 5.0)),
    }

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize(
        "slots, message", [([3, 3], "duplicate slot 3 in slots"), ([1, 8], "slot index 8 out of range")]
    )
    def test_bad_slots_rejected_before_any_write(self, writer, slots, message):
        store, sampler = self.learned_store(capacity=8)
        w, leaves, total, step = sampler.w.copy(), store.tree.leaves(), store.tree.total, sampler.step
        with pytest.raises(ValueError, match=message):
            self.WRITERS[writer](store, sampler, np.array(slots))
        np.testing.assert_array_equal(sampler.w, w)
        np.testing.assert_array_equal(store.tree.leaves(), leaves)
        assert store.tree.total == total and sampler.step == step
        assert store.tree.consistency_error() < 1e-12

    @pytest.mark.parametrize(
        "slots, values, message",
        [
            pytest.param([1, 2], [np.nan, 1.0], "score for slot 1 must be finite and non-negative, got nan",
                         id="nan"),
            pytest.param([1, 2], [1.0, np.inf], "score for slot 2 must be finite and non-negative, got inf",
                         id="inf"),
            pytest.param([1, 2], [-5.0, 1.0], "score for slot 1 must be finite and non-negative, got -5.0",
                         id="negative"),
            pytest.param([1, 2], [3.0], "scores of shape (1,) do not align with slots of shape (2,)",
                         id="one-value-two-slots"),
            pytest.param(np.int64(3), [1.0, 2.0], "scores of shape (2,) do not align with slots of shape ()",
                         id="two-values-one-slot"),
            pytest.param(np.int64(8), 1.0, "slot index 8 out of range", id="numpy-int-out-of-range"),
            pytest.param([[1, 2]], [[1.0, 2.0]], "slots must be an int or a 1-d int array, got shape (1, 2)",
                         id="2d-slots"),
        ],
    )
    def test_bad_scores_rejected_by_name_before_any_write(self, slots, values, message):
        store, _ = self.learned_store(capacity=8)
        leaves, total = store.tree.leaves(), store.tree.total
        slots = slots if isinstance(slots, np.integer) else np.array(slots)
        with pytest.raises(ValueError, match=re.escape(message)):
            store.set_scores(slots, np.asarray(values))
        np.testing.assert_array_equal(store.tree.leaves(), leaves)
        assert store.tree.total == total
        assert store.tree.consistency_error() < 1e-12

    @pytest.mark.parametrize("full", [False, True])
    def test_bad_given_score_rejected_before_any_write(self, full):
        # ``insert`` with a score: a one-trajectory fill, or an eviction.
        rng = np.random.default_rng(29)
        store, sampler = filled_store(rng, 4, nu=2.0, kappa=0.2)
        if not full:
            store = WeightedStore(5, kappa=0.2)
            sampler = SamplerState(SamplerConfig(capacity=5, nu=2.0, kappa=0.2))
            store.fill([make_traj(rng) for _ in range(4)], sampler)
        sampler.w[:] = 1.0
        rows, occupancy = store.take(np.arange(store.capacity)), store.occupancy
        leaves, total = store.tree.leaves(), store.tree.total
        with pytest.raises(ValueError, match="score for slot .* must be finite and non-negative, got nan"):
            store.insert(make_traj(rng, length=5), sampler, score=np.nan)
        assert store.occupancy == occupancy and store.width == rows.width
        for name in ("states", "rewards", "lengths"):
            np.testing.assert_array_equal(getattr(store.take(np.arange(store.capacity)), name),
                                          getattr(rows, name))
        np.testing.assert_array_equal(sampler.w, 1.0)
        np.testing.assert_array_equal(store.tree.leaves(), leaves)
        assert store.tree.total == total
        assert store.tree.consistency_error() < 1e-12

    # Each writer that takes a score from its caller, a zero among valid ones,
    # and the slot the zero was meant for (a store of 5 holding 2).
    ZERO_SCORE_WRITERS = {
        "set_scores": (2, lambda store, sampler, rng: store.set_scores([1, 2], np.array([1.0, 0.0]))),
        "fill": (3, lambda store, sampler, rng: store.fill(
            [make_traj(rng), make_traj(rng)], sampler, np.array([1.0, 0.0])
        )),
        "insert": (2, lambda store, sampler, rng: store.insert(make_traj(rng), sampler, score=0.0)),
    }

    @pytest.mark.parametrize("writer", ZERO_SCORE_WRITERS)
    def test_zero_score_rejected_by_name_before_any_write(self, writer):
        # A zero leaf is one the descent can reach past a node's ulps of drift.
        slot, write = self.ZERO_SCORE_WRITERS[writer]
        rng = np.random.default_rng(30)
        store = WeightedStore(5, kappa=0.2)
        sampler = SamplerState(SamplerConfig(capacity=5, nu=2.0, kappa=0.2))
        store.fill([make_traj(rng) for _ in range(2)], sampler)
        sampler.w[:] = 1.0
        rows, occupancy = store.take(np.arange(store.capacity)), store.occupancy
        leaves, total = store.tree.leaves(), store.tree.total
        message = f"score for slot {slot} must be positive, got 0.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            write(store, sampler, rng)
        assert store.occupancy == occupancy
        for name in ("states", "rewards", "lengths"):
            np.testing.assert_array_equal(getattr(store.take(np.arange(store.capacity)), name),
                                          getattr(rows, name))
        np.testing.assert_array_equal(sampler.w, 1.0)
        np.testing.assert_array_equal(store.tree.leaves(), leaves)
        assert store.tree.total == total

    def test_numpy_int_slot_takes_the_scalar_path(self, monkeypatch):
        store, _ = self.learned_store(capacity=8)
        reference, _ = self.learned_store(capacity=8)
        reference.set_scores(3, 2.5)
        calls = []
        for name in ("set", "set_many"):
            original = getattr(SumTree, name)
            monkeypatch.setattr(
                SumTree, name,
                lambda tree, *args, name=name, original=original: calls.append(name) or original(tree, *args),
            )
        store.set_scores(np.int64(3), 2.5)
        assert calls == ["set"]
        assert store.tree._tree.tobytes() == reference.tree._tree.tobytes()

    def test_update_scores_checks_once(self, monkeypatch):
        # The feedback call checks the slots and losses; the leaf write that
        # follows does not check them again.
        store, sampler = self.learned_store(capacity=8)
        calls = []
        for module in (sampler_module, store_module):
            for name in ("check_slots", "check_finite_non_negative"):
                original = getattr(sampler_module, name)
                monkeypatch.setattr(
                    module, name,
                    lambda *args, name=name, original=original: calls.append(name) or original(*args),
                )
        store.update_scores(sampler, np.array([1, 4, 6]), np.ones(3), np.full(3, 0.5))
        assert sorted(calls) == ["check_finite_non_negative", "check_slots"]


    @pytest.mark.parametrize(
        "slots, message",
        [
            ([6, 7], "slot index 7 out of range"),
            ([-1, 2], "slot index -1 out of range"),
            (5, "slot index 5 out of range"),
            (-1, "slot index -1 out of range"),
        ],
    )
    def test_set_scores_never_writes_padding_leaves(self, slots, message):
        # Capacity 5 pads the tree to 8 leaves; a padding leaf written through
        # set_scores would raise total while the real leaves kept their sum.
        store, sampler = self.learned_store(capacity=5)
        leaves, total = store.tree.leaves(), store.tree.total
        values = 10.0 if isinstance(slots, int) else np.full(len(slots), 10.0)
        with pytest.raises(ValueError, match=message):
            store.set_scores(slots, values)
        np.testing.assert_array_equal(store.tree.leaves(), leaves)
        assert store.tree.total == total
        assert store.tree.consistency_error() < 1e-12

    @pytest.mark.parametrize("capacity, stores", [(5, 100), (37, 100), (65_000, 3)])
    def test_top_offset_never_draws_a_zero_slot(self, capacity, stores):
        # After incremental writes a node can exceed its children's sum by
        # ulps, so the largest offset can descend past the last real leaf into
        # padding; the descent's guard then lands on the last slot, which a
        # positive-score store never leaves at zero.
        class TopOffset:
            def random(self, n):  # the largest double Generator.random returns
                return np.full(n, 1.0 - 2.0**-53)

        one_step = Episode([0], [0], [1.0], [0.0], [0])
        for seed in range(stores):
            rng = np.random.default_rng(seed)
            store = WeightedStore(capacity, kappa=0.0)
            sampler = SamplerState(SamplerConfig(capacity=capacity, kappa=0.0))
            store.fill([one_step] * capacity, sampler, rng.uniform(0.1, 10.0, capacity))
            for _ in range(50):
                slots = rng.choice(capacity, min(8, capacity), replace=False)
                store.set_scores(slots, rng.uniform(0.1, 10.0, len(slots)))
            slots, _, p = store.draw(1, TopOffset())
            assert 0 <= slots[0] < capacity
            assert store.tree.get(slots[0]) > 0 and p[0] > 0


class TestStoreProbabilities:
    """``WeightedStore.probabilities`` reads p from the index in place of the dense vector."""

    def test_accumulator_probabilities_equal_sampler_distribution(self):
        rng = np.random.default_rng(19)
        capacity = 37  # not a power of two: the tree carries padding leaves
        store, sampler = filled_store(
            rng, capacity, nu=2.0, kappa=0.15, reset_period=7, reset_mode="soft", rho=0.5
        )
        for _ in range(3_000):
            op = rng.integers(0, 3)
            if op == 0:
                slots, _, p_used = store.draw(4, rng)
                np.testing.assert_allclose(p_used, sampler.distribution()[slots], rtol=1e-12)
                losses = np.array([rng.uniform(0, 50) for _ in slots])
                store.update_scores(sampler, slots, losses, p_used)
            elif op == 1:
                store.insert(make_traj(rng), sampler)
            elif sampler.maybe_reset():
                store.rebuild_index(sampler)
        np.testing.assert_allclose(
            store.probabilities(np.arange(capacity)), sampler.distribution(), rtol=1e-12
        )

    def test_td_probabilities_equal_dense_priority_formula(self):
        rng = np.random.default_rng(20)
        capacity = 37
        store, sampler = filled_store(rng, capacity)
        priorities = rng.uniform(0, 10, capacity)
        store.set_scores(np.arange(capacity), td_scores(priorities))
        for _ in range(3_000):
            if rng.random() < 0.7:
                slots = np.unique(store.sample_mixture(4, rng))
            else:
                slots = np.array([store.insert(make_traj(rng), sampler)])
            priorities[slots] = rng.uniform(0, 10, len(slots))
            store.set_scores(slots, td_scores(priorities[slots]))
            dense = td_scores(priorities) / td_scores(priorities).sum()
            np.testing.assert_allclose(
                store.probabilities(np.arange(capacity)), dense, rtol=1e-12
            )

    def test_full_mixing_is_exactly_uniform(self):
        rng = np.random.default_rng(21)
        store, sampler = filled_store(rng, 5, kappa=1.0)
        sampler.w[:] = rng.uniform(0, 100, 5)
        store.rebuild_index(sampler)
        np.testing.assert_array_equal(store.probabilities(np.arange(5)), np.full(5, 1 / 5))


class TestLongRunInvariants:
    """Every p the estimator uses comes from the tree, so index drift would
    reach the gradient directly: check the index over long operation runs."""

    OPERATIONS = 50_000
    CHECK_EVERY = 2_500

    @staticmethod
    def check_index(store, expected_leaves, kappa):
        leaves = store.tree.leaves()
        error = np.max(np.abs(leaves - expected_leaves) / np.maximum(expected_leaves, 1.0))
        assert error <= 1e-9
        assert store.tree.consistency_error() < 1e-9
        p = store.probabilities(np.arange(store.capacity))
        assert p.min() >= kappa / store.capacity
        assert abs(p.sum() - 1.0) <= 1e-9

    def test_accumulator_index(self):
        rng = np.random.default_rng(22)
        capacity = 37
        store, sampler = filled_store(
            rng, capacity, nu=2.0, kappa=0.1, reset_period=50, reset_mode="soft", rho=0.9
        )
        kappa, nu = sampler.config.kappa, sampler.config.nu
        pool = [make_traj(rng) for _ in range(16)]
        for step in range(1, self.OPERATIONS + 1):
            op = rng.random()
            if op < 0.6:  # one replay update: sample, feedback, index update, reset
                slots, _, p_used = store.draw(8, rng)
                losses = 10.0 ** rng.uniform(-2, 3, len(slots))
                store.update_scores(sampler, slots, losses, p_used)
                if sampler.maybe_reset():
                    store.rebuild_index(sampler)
            elif op < 0.99:
                store.insert(pool[step % len(pool)], sampler)
            else:
                store.rebuild_index(sampler)
            if step % self.CHECK_EVERY == 0:
                self.check_index(store, np.sqrt(sampler.w + nu), kappa)

    def test_td_priority_index_never_rebuilt(self):
        rng = np.random.default_rng(23)
        capacity = 37
        store, sampler = filled_store(rng, capacity)
        priorities = 10.0 ** rng.uniform(-2, 2, capacity)
        store.set_scores(np.arange(capacity), td_scores(priorities))
        pool = [make_traj(rng) for _ in range(16)]
        for step in range(1, self.OPERATIONS + 1):
            if rng.random() < 0.6:
                slots, _, _ = store.draw(8, rng)
            else:
                slots = np.array([store.insert(pool[step % len(pool)], sampler)])
            priorities[slots] = 10.0 ** rng.uniform(-2, 2, len(slots))
            store.set_scores(slots, td_scores(priorities[slots]))
            if step % self.CHECK_EVERY == 0:
                self.check_index(store, td_scores(priorities), 0.0)


class TestTrajectoryValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one step"):
            Trajectory(
                states=np.empty(0, dtype=int),
                actions=np.empty(0, dtype=int),
                behavior_probs=np.empty(0),
                rewards=np.empty(0),
                next_states=np.empty(0, dtype=int),
            )

    def test_rejects_invalid_behavior_probability(self):
        with pytest.raises(ValueError, match="behavior"):
            Trajectory(
                states=np.array([0]),
                actions=np.array([1]),
                behavior_probs=np.array([1.5]),
                rewards=np.array([0.0]),
                next_states=np.array([1]),
            )

    def test_rejects_nan_behavior_probability(self):
        with pytest.raises(ValueError, match="behavior"):
            Trajectory([0], [0], [np.nan], [0.0], [1])

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reward(self, reward):
        with pytest.raises(ValueError, match="rewards must be finite"):
            Trajectory([0], [0], [0.5], [reward], [1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="length"):
            Trajectory(
                states=np.array([0, 1]),
                actions=np.array([1]),
                behavior_probs=np.array([0.5, 0.5]),
                rewards=np.array([0.0, 0.0]),
                next_states=np.array([1, 2]),
            )
