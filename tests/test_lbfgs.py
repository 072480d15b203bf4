"""Tests for the quasi-Newton core: standard problems, the strong-Wolfe
contract, and termination behaviour."""

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from slisemap import lbfgs
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


KINK, KINK_WIDTH = 1e-4, 1e-6


def kinked(x):
    """Slope -1 up to a kink at KINK, softplus-smoothed over KINK_WIDTH,
    and slope +99 after it: the first unit step overshoots the minimizer
    ten thousandfold."""
    t = (x[0] - KINK) / KINK_WIDTH
    f = -x[0] + 100.0 * KINK_WIDTH * np.logaddexp(0.0, t)
    return float(f), np.array([-1.0 + 100.0 * scipy.special.expit(t)])


class TestZoom:
    def test_step_past_a_kink_costs_few_evaluations(self):
        # bisecting the bracket from the unit step down to the kink takes
        # 20 evaluations; shrinking it tenfold per trial takes 9
        res = minimize(kinked, [0.0], max_iters=1)
        assert res.n_evals <= 10
        assert res.fun < kinked(np.zeros(1))[0]

    def test_trials_lie_strictly_inside_the_bracket(self, monkeypatch):
        """Each zoom trial (the evaluation after a cubic interpolation) lies
        inside its bracket, at least a tenth of the span from either end."""
        events = []
        cubic_min = lbfgs._cubic_min

        def recording_cubic(a, fa, da, b, fb, db):
            events.append(("bracket", min(a, b), max(a, b)))
            return cubic_min(a, fa, da, b, fb, db)

        def recording_fg(x):
            events.append(("trial", float(x[0])))  # x0 = 0, p = 1: x = alpha
            return kinked(x)

        monkeypatch.setattr(lbfgs, "_cubic_min", recording_cubic)
        minimize(recording_fg, [0.0], max_iters=1)
        zoomed = [(b, t) for b, t in zip(events, events[1:])
                  if b[0] == "bracket"]
        assert len(zoomed) >= 5
        for (_, left, right), (kind, a) in zoomed:
            assert kind == "trial"
            assert left < a < right
            band = 0.1 * (right - left) * (1.0 - 1e-9)
            assert left + band <= a <= right - band


def first_trial(fg, x0, **kwargs):
    """The point of the first line-search trial of ``minimize`` from x0."""
    points = []

    def recording(x):
        points.append(x.copy())
        return fg(x)

    minimize(recording, x0, max_iters=1, **kwargs)
    return points[1]


class TestFirstStep:
    @pytest.mark.parametrize("h", [1e-5, 1e-2])
    def test_bound_caps_every_coordinate(self, h, rng):
        for fg, x0 in [(kinked, np.zeros(1)),
                       (quadratic(rng.standard_normal(5) * 3),
                        rng.standard_normal(5))]:
            moved = np.abs(first_trial(fg, x0, max_first_step=h) - x0)
            ulp = 4.0 * np.finfo(float).eps * (1.0 + np.abs(x0).max())
            assert moved.max() <= h + ulp
            assert moved.max() >= h - ulp  # the bound is the step taken

    @pytest.mark.parametrize("kwargs", [{}, {"max_first_step": None},
                                        {"max_first_step": 10.0}],
                             ids=["default", "none", "loose-bound"])
    @pytest.mark.parametrize("scale", [0.01, 10.0],
                             ids=["small-gradient", "large-gradient"])
    def test_default_first_step(self, kwargs, scale, rng):
        """Without a tighter bound the first trial is the steepest-descent
        step of length min(1, 1 / max(1, |g|_1)), the rule fits use."""
        center = rng.standard_normal(4)
        fg = quadratic(center)
        x0 = center + scale * rng.standard_normal(4)
        g = fg(x0)[1]
        alpha0 = min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        np.testing.assert_array_equal(first_trial(fg, x0, **kwargs),
                                      x0 + alpha0 * -g)
