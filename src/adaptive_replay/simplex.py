"""Probability-simplex utilities: Euclidean projection and a generic minimizer.

The minimizer is deliberately independent of any closed-form solution in this
package; it serves as a numeric oracle that closed forms are checked against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class OracleFailure(RuntimeError):
    """Raised when the numeric minimizer fails to converge within its budget."""


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    Sort-based non-iterative method: find the largest ``k`` such that the
    top-k entries shifted by a common offset stay positive, then clip.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, len(v) + 1)
    cond = u + (1.0 - css) / k > 0
    rho = np.nonzero(cond)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def minimize_on_simplex(
    objective: Callable[[np.ndarray], float],
    dim: int,
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Minimize a convex objective over the probability simplex.

    Projected gradient descent with Barzilai-Borwein step sizes and Armijo
    backtracking along the projection arc.  ``objective`` may return ``inf``
    outside its domain (e.g. inverse-probability objectives at the boundary);
    such trial points are rejected by the line search.

    Parameters
    ----------
    objective:
        Convex function of a simplex point.
    dim:
        Dimension of the simplex.
    grad:
        Analytic gradient of ``objective``.
    tol:
        Stop once the iterate change ``max_i |x_{k+1}(i) - x_k(i)|`` stays
        below this for two consecutive accepted steps.

    Raises
    ------
    OracleFailure
        If the iteration cap is reached without meeting the tolerance.
    """
    def safe_obj(x: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = objective(x)
        return float(value) if np.isfinite(value) else np.inf

    x = np.full(dim, 1.0 / dim) if x0 is None else project_to_simplex(np.asarray(x0, float))
    f = safe_obj(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    g = grad(x)
    step = 1.0 / max(1.0, float(np.max(np.abs(g))))
    quiet = 0

    for _ in range(max_iter):
        # Backtracking along the projection arc.
        accepted = False
        t = step
        for _ in range(60):
            candidate = project_to_simplex(x - t * g)
            direction = candidate - x
            decrease = float(g @ direction)
            f_new = safe_obj(candidate)
            if f_new <= f + 1e-4 * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # No descent at the smallest step: treat as converged at x.
            return x

        g_new = grad(candidate)
        s = candidate - x
        y = g_new - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-300 else t * 2.0
        step = min(max(step, 1e-14), 1e14)

        change = float(np.max(np.abs(s)))
        x, f, g = candidate, f_new, g_new
        quiet = quiet + 1 if change < tol else 0
        if quiet >= 2:
            return x

    raise OracleFailure(f"no convergence to tol={tol} within {max_iter} iterations")
