"""Simplex projection and the numeric minimizer, anchored on closed forms."""

import numpy as np
import pytest

from adaptive_replay.simplex import OracleFailure, minimize_on_simplex, project_to_simplex


class TestProjection:
    def test_interior_point_unchanged(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-15)

    def test_projects_to_valid_simplex_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(0, 5, size=rng.integers(1, 30))
            p = project_to_simplex(v)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0)

    def test_is_euclidean_projection(self):
        # Oracle: the projection is the closest simplex point; random simplex
        # points can never be closer to v than the projection.
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            v = rng.normal(0, 3, n)
            p = project_to_simplex(v)
            for _ in range(30):
                q = rng.dirichlet(np.ones(n))
                assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-9


class TestMinimizer:
    def test_two_slot_inverse_objective_closed_form(self):
        d = np.array([1.0, 3.0])
        p = minimize_on_simplex(lambda x: float(np.sum(d / x)), 2, grad=lambda x: -d / x**2)
        expected = np.sqrt(d) / np.sqrt(d).sum()
        np.testing.assert_allclose(p, expected, atol=1e-7)

    def test_regularized_objective_matches_sqrt_rule(self):
        totals = np.array([3.0, 0.0, 1.0]) + 1.0
        p = minimize_on_simplex(
            lambda x: float(np.sum(totals / x)), 3, grad=lambda x: -totals / x**2
        )
        expected = np.sqrt(totals) / np.sqrt(totals).sum()
        np.testing.assert_allclose(p, expected, atol=1e-6)
        np.testing.assert_allclose(
            p, [0.4530818393219728, 0.2265409196609864, 0.3203772410170408], atol=1e-6
        )

    def test_constant_objective_returns_simplex_point(self):
        p = minimize_on_simplex(lambda x: 1.0, 5, grad=lambda x: np.zeros(5))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0)

    def test_quadratic_objective(self):
        target = np.array([0.7, 0.2, 0.1])
        p = minimize_on_simplex(
            lambda x: float(np.sum((x - target) ** 2)),
            3,
            grad=lambda x: 2.0 * (x - target),
        )
        np.testing.assert_allclose(p, target, atol=1e-7)

    def test_finite_difference_gradient_fallback(self):
        d = np.array([2.0, 8.0])
        p = minimize_on_simplex(lambda x: float(np.sum(d / x)), 2)
        expected = np.sqrt(d) / np.sqrt(d).sum()
        np.testing.assert_allclose(p, expected, atol=1e-4)

    def test_iteration_cap_raises_oracle_failure(self):
        d = np.array([1e6, 1e-6, 1.0])
        with pytest.raises(OracleFailure):
            minimize_on_simplex(
                lambda x: float(np.sum(d / x)),
                3,
                grad=lambda x: -d / x**2,
                max_iter=3,
                tol=1e-14,
            )


@pytest.mark.parametrize(
    "x0", [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])], ids=["first", "last"]
)
def test_start_point_with_non_finite_objective_rejected(x0):
    # The start keeps zero coordinates, where sum(1/x) is infinite.
    with pytest.raises(ValueError, match="objective is not finite at the starting point"):
        minimize_on_simplex(lambda x: float(np.sum(1.0 / x)), 3, x0=x0)
