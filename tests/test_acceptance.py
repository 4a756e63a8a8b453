"""End-to-end acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.  Expected wall time is a few minutes.
"""

import time

import numpy as np
import pytest
from scipy import stats

from adaptive_replay.bench import run_bench
from adaptive_replay.envs import chain_env, exact_policy_value, gridworld_env
from adaptive_replay.gradients import trajectory_gradients, trajectory_return
from adaptive_replay.harness import ExperimentSpec, run_suite
from adaptive_replay.policies import LinearSoftmaxPolicy, TabularSoftmaxPolicy
from adaptive_replay.regret import (
    check_loss_bound,
    drifting_sequence,
    dynamic_competitor,
    fit_loglog_slope,
    run_regret_experiment,
    scaled_noise_sequence,
    static_competitor,
    stationary_sequence,
)
from adaptive_replay.sampler import SamplerConfig, SamplerState
from adaptive_replay.simplex import minimize_on_simplex
from adaptive_replay.store import Trajectory, TrajectoryBatch, WeightedStore
from adaptive_replay.studies import learned_vs_uniform_variance
from adaptive_replay.training import TrainingConfig, run_training

SEEDS_5 = (2, 20, 200, 2000, 20000)


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status} - {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def random_policy(rng, n_states=4, n_actions=3, spread=1.5):
    return TabularSoftmaxPolicy(
        n_states, n_actions, logits=rng.uniform(-spread, spread, (n_states, n_actions))
    )


def random_traj(rng, policy, length, reward_scale=1.0):
    states = rng.integers(0, policy.n_states, length)
    actions = rng.integers(0, policy.n_actions, length)
    return Trajectory(
        states=states,
        actions=actions,
        behavior_probs=rng.uniform(0.2, 1.0, length),
        rewards=reward_scale * rng.normal(size=length),
        next_states=rng.integers(0, policy.n_states, length),
    )


def test_criterion_01_closed_form_ftrl_matches_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        steps = int(rng.integers(1, 51))
        d = rng.uniform(0.05, 10.0, size=(steps, n))
        nu = float(10.0 ** rng.uniform(-1, 2))
        state = SamplerState(SamplerConfig(capacity=n, nu=nu, kappa=0.0))
        state.w[:] = d.sum(axis=0)
        totals = d.sum(axis=0) + nu
        oracle = minimize_on_simplex(
            lambda p: float(np.sum(totals / p)), n, grad=lambda p: -totals / p**2
        )
        worst = max(worst, float(np.max(np.abs(state.distribution() - oracle))))
    elapsed = time.time() - start
    report(
        1,
        "closed-form FTRL distribution matches the numeric simplex oracle (50 instances)",
        worst <= 1e-6 and elapsed < 60.0,
        f"max coord err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_competitor_closed_forms_match_oracle():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_static = worst_dynamic = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        steps = int(rng.integers(2, 31))
        d = rng.uniform(0.05, 10.0, size=(steps, n))
        sums = d.sum(axis=0)
        oracle = minimize_on_simplex(
            lambda p: float(np.sum(sums / p)), n, grad=lambda p: -sums / p**2
        )
        worst_static = max(
            worst_static, float(np.max(np.abs(static_competitor(d) - oracle)))
        )
        row = d[0]
        oracle_row = minimize_on_simplex(
            lambda p: float(np.sum(row / p)), n, grad=lambda p: -row / p**2
        )
        worst_dynamic = max(
            worst_dynamic, float(np.max(np.abs(dynamic_competitor(row) - oracle_row)))
        )
    elapsed = time.time() - start
    report(
        2,
        "static and dynamic competitor closed forms match the oracle (50 instances each)",
        worst_static <= 1e-6 and worst_dynamic <= 1e-6 and elapsed < 60.0,
        f"static {worst_static:.2e}, dynamic {worst_dynamic:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_feedback_unbiasedness():
    rng = np.random.default_rng(303)
    draws = 100_000
    worst_z = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 17))
        d = rng.uniform(0.1, 5.0, n)
        p = rng.dirichlet(np.ones(n) * 3.0)
        slots = rng.choice(n, size=draws, p=p)
        contributions = np.zeros((draws, n))
        contributions[np.arange(draws), slots] = d[slots] / p[slots]
        mean = contributions.mean(axis=0)
        sem = contributions.std(axis=0, ddof=1) / np.sqrt(draws)
        worst_z = max(worst_z, float(np.max(np.abs(mean - d) / sem)))
    report(
        3,
        "inverse-probability feedback is unbiased per slot (10 pairs x 1e5 draws, 3 SE)",
        worst_z <= 3.0,
        f"max |z| {worst_z:.2f}",
    )


def test_criterion_04_replay_gradient_unbiasedness():
    rng = np.random.default_rng(404)
    n, batch, repeats = 32, 4, 100_000
    policy = random_policy(rng)
    store = WeightedStore(n, kappa=0.1)
    sampler = SamplerState(SamplerConfig(capacity=n, nu=1.0, kappa=0.1, reset_period=10**9))
    for i in range(n):
        store.insert(random_traj(rng, policy, 4, reward_scale=10.0 ** rng.uniform(0, 1.5)),
                     sampler)
    grads = trajectory_gradients(store, policy, 0.99)
    target = np.mean(grads.omega[:, None] * grads.g, axis=0)
    d = grads.d
    sampler.w[:] = d * 20.0  # a learned, strongly non-uniform state
    learned = sampler.distribution()
    uniform = np.full(n, 1.0 / n)
    worst_z = 0.0
    for p in (uniform, learned):
        lam_rows = (grads.omega / (p * n))[:, None] * grads.g
        idx = rng.choice(n, size=(repeats, batch), p=p)
        estimates = lam_rows[idx].mean(axis=1)
        sem = estimates.std(axis=0, ddof=1) / np.sqrt(repeats)
        worst_z = max(worst_z, float(np.max(np.abs(estimates.mean(axis=0) - target) / sem)))
    report(
        4,
        "replay gradient mean equals the full-buffer mean under uniform and learned p "
        "(1e5 batches, 3 sigma per coordinate)",
        worst_z <= 3.0,
        f"max |z| {worst_z:.2f}",
    )


def test_criterion_05_loss_bound_never_violated():
    rng = np.random.default_rng(505)
    n_states, n_actions, horizon, reward_cap = 5, 3, 8, 2.0
    target = random_policy(rng, n_states, n_actions)
    behavior = random_policy(rng, n_states, n_actions)
    beta = min(float(np.exp(p.tables().log_probs).min()) for p in (target, behavior))
    table = behavior.tables().probs
    trajs = []
    for _ in range(10_000):
        length = int(rng.integers(1, horizon + 1))
        states = rng.integers(0, n_states, length)
        actions = np.array([rng.choice(n_actions, p=table[s]) for s in states])
        probs = table[states, actions]
        trajs.append(
            Trajectory(
                states=states,
                actions=actions,
                behavior_probs=probs,
                rewards=rng.uniform(-reward_cap, reward_cap, length),
                next_states=rng.integers(0, n_states, length),
            )
        )
    check = check_loss_bound(
        trajs, target, gamma=0.95, beta=beta,
        score_norm_cap=target.max_score_norm(), reward_cap=reward_cap, horizon=horizon,
    )
    report(
        5,
        "squared-loss cap and all three factor bounds hold on 1e4 constructed trajectories",
        check.ok and check.ratio_ok and check.score_ok and check.return_ok,
        f"max d {check.max_d:.3g} vs bound {check.bound:.3g}",
    )


def test_criterion_06_static_regret_rate_shrinks():
    config = SamplerConfig(capacity=16, nu=1.0, kappa=0.0, reset_period=10**9)
    ledgers = run_regret_experiment(
        stationary_sequence(0.1, 10.0), config, T=4000, seeds=range(20), feedback="full"
    )
    ok = all(
        ledger.regret_static_series[3999] / 4000 < ledger.regret_static_series[999] / 1000
        for ledger in ledgers
    )
    rates = [ledger.regret_static_series[3999] / 4000 for ledger in ledgers]
    report(
        6,
        "full-information static regret per step falls from T=1000 to T=4000 on all 20 seeds",
        ok,
        f"mean regret/T at 4000 = {np.mean(rates):.4g}",
    )


def test_criterion_07_bandit_feedback_rate():
    start = time.time()
    capacity = 16
    horizons = [500, 1000, 2000, 4000]
    generator = scaled_noise_sequence(orders=2.0)
    means = []
    for T in horizons:
        kappa = (capacity / T) ** (1.0 / 3.0)
        config = SamplerConfig(capacity=capacity, nu=1.0, kappa=kappa, reset_period=10**9)
        ledgers = run_regret_experiment(
            generator, config, T, seeds=range(20), feedback="bandit", batch=8
        )
        means.append(np.mean([ledger.cumulative_static for ledger in ledgers]))
    slope = fit_loglog_slope(horizons, means)
    elapsed = time.time() - start
    report(
        7,
        "bandit-feedback expected regret grows with log-log slope in [0.5, 0.85]",
        0.5 <= slope <= 0.85 and elapsed < 600.0,
        f"slope {slope:.3f}, {elapsed:.1f}s",
    )


def test_criterion_08_dynamic_regret_contrast():
    capacity = 144  # reset period stays below sqrt(capacity)
    seeds = range(20)
    rates = {}
    beats = {}
    for T in (1000, 4000):
        period = max(2, min(int(np.sqrt(T) / 6.0), int(np.sqrt(capacity - 1))))
        generator = drifting_sequence(interval=period, n_replace=4, orders=2.0)
        periodic = SamplerConfig(
            capacity=capacity, nu=1.0, kappa=0.0, reset_period=period, reset_mode="hard"
        )
        reinit = SamplerConfig(
            capacity=capacity, nu=1.0, kappa=0.0, reset_period=2, reset_mode="hard"
        )
        led_a = run_regret_experiment(generator, periodic, T, seeds, feedback="full")
        led_n = run_regret_experiment(generator, reinit, T, seeds, feedback="full")
        ra = np.array([l.cumulative_dynamic for l in led_a]) / T
        rn = np.array([l.cumulative_dynamic for l in led_n]) / T
        rates[T] = ra
        beats[T] = float(np.mean(ra <= rn))
    decreasing = rates[4000].mean() < rates[1000].mean()
    report(
        8,
        "periodic-reset learner: dynamic regret/T decreases in T and beats per-collection "
        "reinitialization in >= 80% of seeds",
        decreasing and beats[1000] >= 0.8 and beats[4000] >= 0.8,
        f"regret/T {rates[1000].mean():.3f}->{rates[4000].mean():.3f}, "
        f"beats {beats[1000]:.0%}/{beats[4000]:.0%}",
    )


def test_criterion_09_variance_reduction():
    comparisons = [learned_vs_uniform_variance(seed) for seed in range(50)]
    wins = sum(c.improved for c in comparisons)
    min_spread = min(c.loss_spread_orders for c in comparisons)
    report(
        9,
        "learned distribution reduces gradient variance on >= 95% of 50 heteroscedastic "
        "constructions",
        wins >= 48 and min_spread >= 3.0,
        f"{wins}/50 improved, min spread {min_spread:.2f} orders",
    )


def _rl_comparison(env, learning_rate, probe_on_adaptive):
    sampler = SamplerConfig(
        capacity=32, nu=1000.0, kappa=0.1, reset_period=50, reset_mode="soft", rho=0.9
    )
    finals = {}
    probe_fractions = []
    for mode in ("uniform", "td_priority", "adaptive"):
        finals[mode] = []
        for seed in SEEDS_5:
            probing = probe_on_adaptive and mode == "adaptive"
            config = TrainingConfig(
                total_steps=2000,
                batch_size=8,
                buffer_capacity=32,
                learning_rate=learning_rate,
                selection_mode=mode,
                seed=seed,
                eval_every=125,
                probe_every=250 if probing else 0,
                probe_repeats=400,
                sampler=sampler,
            )
            trace = run_training(env, config)
            finals[mode].append(trace.final_return)
            if probing:
                own, uniform = trace.probe_pairs()
                probe_fractions.append(np.mean(own <= uniform))
    return {m: np.array(v) for m, v in finals.items()}, probe_fractions


def _pooled_std(a, b):
    return float(np.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2.0))


def test_criterion_10_toy_rl_direction():
    cases = ((gridworld_env(4, 4), "gridworld4x4", 0.05), (chain_env(5), "chain5", 0.03))
    for env, name, learning_rate in cases:
        start = time.time()
        finals, probe_fractions = _rl_comparison(env, learning_rate, probe_on_adaptive=True)
        adaptive = finals["adaptive"]
        ok_uniform = adaptive.mean() >= finals["uniform"].mean() - _pooled_std(
            adaptive, finals["uniform"]
        )
        ok_td = adaptive.mean() >= finals["td_priority"].mean() - _pooled_std(
            adaptive, finals["td_priority"]
        )
        probe_fraction = float(np.mean(probe_fractions))
        elapsed = time.time() - start
        print(
            f"  {name}: adaptive {adaptive.mean():.3f}, uniform {finals['uniform'].mean():.3f}, "
            f"td {finals['td_priority'].mean():.3f}, probe wins {probe_fraction:.0%}, {elapsed:.0f}s"
        )
        assert elapsed < 900.0, f"{name} exceeded the 15-minute budget"
        assert ok_uniform and ok_td and probe_fraction >= 0.7, name
    report(
        10,
        "adaptive selection matches or beats both baselines and wins >= 70% of paired "
        "variance probes on gridworld and chain",
        True,
    )


def test_criterion_11_store_correctness_and_speed():
    rng = np.random.default_rng(1111)
    # Mixture sampling matches the closed-form distribution (chi-square, 1e5 draws).
    chi_ok = True
    for capacity in (16, 64):
        store = WeightedStore(capacity, kappa=0.2)
        sampler = SamplerState(SamplerConfig(capacity=capacity, nu=0.5, kappa=0.2))
        policy = random_policy(rng)
        for _ in range(capacity):
            store.insert(random_traj(rng, policy, 3), sampler)
        sampler.w[:] = rng.uniform(0, 50, capacity)
        store.rebuild_index(sampler)
        p = sampler.distribution()
        counts = np.bincount(store.sample_mixture(100_000, rng), minlength=capacity)
        chi_ok &= stats.chisquare(counts, p * 100_000).pvalue > 0.01

    # Incremental index equals a full recomputation after 1e4 mixed operations.
    capacity = 48
    store = WeightedStore(capacity, kappa=0.1)
    sampler = SamplerState(SamplerConfig(capacity=capacity, nu=2.0, kappa=0.1))
    policy = random_policy(rng)
    for _ in range(capacity):
        store.insert(random_traj(rng, policy, 3), sampler)
    for _ in range(10_000):
        op = rng.integers(0, 2)
        if op == 0:
            slots = np.unique(rng.integers(0, capacity, 4))
            p = sampler.distribution()
            losses = np.array([rng.uniform(0, 5) for _ in slots])
            store.update_scores(sampler, slots, losses, p[slots])
        else:
            store.insert(random_traj(rng, policy, 3), sampler)
    expected = np.sqrt(sampler.w + sampler.config.nu)
    tree_ok = bool(
        np.allclose(store.tree.leaves(), expected, rtol=1e-9)
        and store.tree.consistency_error() < 1e-9
    )

    rows = run_bench(capacity=1_000_000, batch=256, rounds=100)
    combined = next(r for r in rows if r[1] == "sample+update")
    ops_per_second = combined[4]
    report(
        11,
        "mixture sampling passes chi-square, the index matches recomputation after 1e4 ops, "
        "and sample+update sustains >= 1e5 ops/s at 1e6 slots",
        chi_ok and tree_ok and ops_per_second >= 1e5,
        f"throughput {ops_per_second:,.0f} ops/s",
    )


def test_criterion_12_gradient_and_value_checks():
    rng = np.random.default_rng(1212)
    worst_rel = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            policy = random_policy(rng)
        else:
            policy = LinearSoftmaxPolicy(
                features=rng.normal(size=(5, 3)),
                n_actions=3,
                weights=rng.uniform(-1, 1, (3, 3)),
            )
        traj = random_traj(rng, policy, int(rng.integers(1, 6)))
        gamma = float(rng.uniform(0.5, 0.99))
        analytic = trajectory_gradients(TrajectoryBatch.of([traj]), policy, gamma).g[0]
        ret = trajectory_return(traj, gamma)
        params = policy.get_params()
        probe = policy.copy()
        fd = np.empty_like(params)
        h = 1e-6
        for i in range(len(params)):
            shifted = params.copy()
            shifted[i] += h
            probe.set_params(shifted)
            up = sum(probe.tables().log_probs[traj.states, traj.actions])
            shifted[i] -= 2 * h
            probe.set_params(shifted)
            down = sum(probe.tables().log_probs[traj.states, traj.actions])
            fd[i] = (up - down) / (2 * h) * ret
        scale = max(1.0, float(np.max(np.abs(analytic))))
        worst_rel = max(worst_rel, float(np.max(np.abs(analytic - fd)) / scale))

    env = chain_env(4, horizon=6)
    policy = random_policy(rng, env.n_states, env.n_actions, spread=1.0)
    exact = exact_policy_value(env, policy)
    episodes = 100_000
    returns = np.empty(episodes)
    for i in range(episodes):
        returns[i] = trajectory_return(env.rollout(policy, rng), env.gamma)
    z = abs(returns.mean() - exact) / (returns.std(ddof=1) / np.sqrt(episodes))
    report(
        12,
        "score-return gradients match finite differences (100 instances, 1e-5 relative) and "
        "exact values match Monte Carlo (3 sigma)",
        worst_rel <= 1e-5 and z <= 3.0,
        f"max rel err {worst_rel:.2e}, value z {z:.2f}",
    )


def test_criterion_13_determinism(tmp_path):
    spec = ExperimentSpec(
        family="rl_comparison",
        seeds=(2, 20),
        options={
            "envs": ("two_state_bandit",),
            "modes": ("uniform", "adaptive"),
            "total_steps": 100,
            "batch_size": 4,
            "buffer_capacity": 8,
            "learning_rate": 0.2,
            "eval_every": 10,
            "eval_episodes": 5,
            "probe_every": 50,
            "probe_repeats": 50,
            "updates_per_episode": 1,
        },
    )
    regret_spec = ExperimentSpec(
        family="regret_synthetic",
        seeds=(0,),
        options={"scenario": "bandit_rate", "capacity": 8, "horizons": (200,), "batch": 4},
    )
    identical = True
    for prefix, experiment in (("rl", spec), ("regret", regret_spec)):
        run_suite(experiment, out=str(tmp_path / f"{prefix}_a"))
        run_suite(experiment, out=str(tmp_path / f"{prefix}_b"))
        for path in sorted((tmp_path / f"{prefix}_a").glob("*.csv")):
            twin = tmp_path / f"{prefix}_b" / path.name
            identical &= path.read_bytes() == twin.read_bytes()
    report(
        13,
        "rerunning suite cells with identical seeds reproduces trace CSVs byte for byte",
        identical,
    )
