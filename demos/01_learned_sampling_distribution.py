"""How the sampler learns where the gradient noise lives.

A 16-slot buffer has per-slot losses spanning two orders of magnitude.  The
sampler sees only bandit feedback (the losses of the slots it samples,
importance-weighted), yet its distribution converges to the square-root
allocation that minimizes the variance objective sum_i d(i)/p(i).
"""

import numpy as np

from adaptive_replay import SamplerConfig, SamplerState, dynamic_competitor, variance_objective

rng = np.random.default_rng(0)
n = 16
d = 10.0 ** np.linspace(0, 2, n)  # per-slot losses, 1 .. 100
rng.shuffle(d)

state = SamplerState(SamplerConfig(capacity=n, nu=1.0, kappa=0.1, reset_period=10**9))
optimum = dynamic_competitor(d)
best_cost = variance_objective(d, optimum)

print(f"{'step':>6} {'objective':>12} {'optimal':>12} {'excess':>8}")
for step in range(1, 601):
    p = state.distribution()
    sampled = np.unique(rng.choice(n, size=4, p=p))
    state.record_feedback(sampled, d[sampled], p[sampled])
    if step in (1, 10, 50, 100, 300, 600):
        cost = variance_objective(d, state.distribution())
        print(f"{step:>6} {cost:>12.1f} {best_cost:>12.1f} {cost / best_cost:>7.2f}x")

p = state.distribution()
print("\nslot   loss    learned p   optimal p")
order = np.argsort(d)
for i in order[[0, n // 2, n - 1]]:
    print(f"{i:>4} {d[i]:>7.1f} {p[i]:>10.4f} {optimum[i]:>10.4f}")

print(
    "\nThe learned distribution tracks sqrt(loss): heavy slots are sampled"
    "\nmore, and the uniform mixture keeps every slot above kappa/n ="
    f" {state.config.kappa / n:.4f}."
)
