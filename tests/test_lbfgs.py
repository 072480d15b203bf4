"""Tests for the quasi-Newton core: standard problems, the strong-Wolfe
contract, and termination behaviour."""

import math
from collections import deque

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from slisemap import lbfgs
from slisemap.errors import NumericError
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


def two_phase_strong_wolfe(fg, x, p, f0, g0, dphi0, alpha0):
    """Reference line search: the earlier two-phase form of
    ``lbfgs._strong_wolfe``, a bracketing loop that hands over to a nested
    zoom.  The one-loop form must make the same trials and returns."""
    _C1, _C2, _MAX_LS_EVALS = lbfgs._C1, lbfgs._C2, lbfgs._MAX_LS_EVALS
    phi0 = f0
    best_a, best_f, best_g = 0.0, f0, None  # best finite point evaluated
    evals = 0

    def phi(a):
        nonlocal evals, best_a, best_f, best_g
        f, g = fg(x + a * p)
        evals += 1
        if np.isfinite(f) and f < best_f:
            best_a, best_f, best_g = a, f, g
        return f, g

    def wolfe2(dphi):
        return abs(dphi) <= -_C2 * dphi0

    def zoom(lo, f_lo, d_lo, hi, f_hi, d_hi):
        for _ in range(_MAX_LS_EVALS - evals):
            a = lbfgs._cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
            span = abs(hi - lo)
            left, right = min(lo, hi), max(lo, hi)
            if a is None:
                a = 0.5 * (lo + hi)
            else:
                a = min(max(a, left + 0.1 * span), right - 0.1 * span)
            f, g = phi(a)
            d = float(g @ p)
            if not np.isfinite(f) or f > phi0 + _C1 * a * dphi0 or f >= f_lo:
                hi, f_hi, d_hi = a, f, d
            else:
                if wolfe2(d):
                    return a, f, g, True
                if d * (hi - lo) >= 0.0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = a, f, d
            if span <= 1e-14 * max(1.0, abs(lo)):
                break
        return None, None, None, False

    prev_a, prev_f, prev_d = 0.0, phi0, dphi0
    a = alpha0
    first = True
    while evals < _MAX_LS_EVALS:
        f, g = phi(a)
        d = float(g @ p)
        if (not np.isfinite(f) or f > phi0 + _C1 * a * dphi0
                or (f >= prev_f and not first)):
            res = zoom(prev_a, prev_f, prev_d, a, f, d)
            break
        if wolfe2(d):
            res = (a, f, g, True)
            break
        if d >= 0.0:
            res = zoom(a, f, d, prev_a, prev_f, prev_d)
            break
        prev_a, prev_f, prev_d = a, f, d
        a = min(2.0 * a, 1e10)
        first = False
    else:
        res = (None, None, None, False)

    if res[3]:
        a, f, g = res[:3]
        return a, f, g, evals, True
    if best_a > 0.0 and best_f < f0:
        return best_a, best_f, best_g, evals, False
    return 0.0, f0, g0, evals, False


def diagonal_quadratic(curvatures, center):
    def fg(x):
        d = x - center
        return float(0.5 * d @ (curvatures * d)), curvatures * d

    return fg


def finite_within(radius):
    """|x|^2 inside the ball of ``radius``, +inf (with a NaN gradient)
    outside it."""
    def fg(x):
        if float(x @ x) > radius * radius:
            return math.inf, np.full_like(x, np.nan)
        return float(x @ x), 2.0 * x

    return fg


def flat(x):
    """f = 1 - 1e-30 x: every step passes sufficient decrease with
    f == f(0)."""
    return 1.0 - 1e-30 * float(x[0]), np.array([-1e-30])


def line_search_case(rng):
    """A seeded random line search: (fg, x, p, alpha0)."""
    kind = rng.integers(5)
    if kind == 0:
        n = int(rng.integers(1, 5))
        fg = diagonal_quadratic(10.0 ** rng.uniform(-4, 4, n),
                                rng.standard_normal(n))
        x = rng.standard_normal(n) * 3
    elif kind == 1:
        fg, x = rosenbrock, rng.uniform(-2, 2, 2)
    elif kind == 2:
        fg = finite_within(float(rng.uniform(0.5, 3)))
        x = rng.standard_normal(3) * 0.2
    elif kind == 3:
        fg, x = kinked, rng.uniform(-1e-3, 1e-3, 1)
    else:
        fg, x = flat, rng.standard_normal(1)
    g = fg(x)[1]
    p = rng.standard_normal(len(x)) * 10.0 ** rng.uniform(-2, 2)
    if float(g @ p) > 0.0:
        p = -p
    if not float(g @ p) < 0.0:
        p = -g
    return fg, x, p, float(10.0 ** rng.uniform(-12, 3))


def both_line_searches(fg, x, p, alpha0):
    """Run ``lbfgs._strong_wolfe`` and the two-phase reference on the same
    line search; assert equal trials and returns, and return the trial
    steps and the result."""
    f0, g0 = fg(x)
    runs = []
    for search in (lbfgs._strong_wolfe, two_phase_strong_wolfe):
        trials = []

        def recording(y):
            trials.append(y.copy())
            return fg(y)

        runs.append((trials, search(recording, x, p, f0, g0,
                                    float(g0 @ p), alpha0)))
    (new_trials, new), (ref_trials, ref) = runs
    assert len(new_trials) == len(ref_trials)
    for a, b in zip(new_trials, ref_trials):
        assert a.tobytes() == b.tobytes()
    alpha, f, g, evals, ok = new
    assert (alpha, f, evals, ok) == (ref[0], ref[1], ref[3], ref[4])
    assert np.asarray(g).tobytes() == np.asarray(ref[2]).tobytes()
    steps = [float((t - x) @ p / (p @ p)) for t in new_trials]
    return steps, new


class TestLineSearchMatchesTwoPhase:
    def test_seeded_battery(self):
        rng = np.random.default_rng(20221018)
        outcomes = set()
        for _ in range(400):
            _, (_, _, _, evals, ok) = both_line_searches(
                *line_search_case(rng))
            outcomes.add((ok, evals == lbfgs._MAX_LS_EVALS))
        # both successes and failures, capped or not, were reached
        assert {(True, False), (False, False), (False, True)} <= outcomes

    def test_expansion_doubles_the_step_up_to_its_cap(self):
        # Wolfe steps start at 9e9: the doubling from 1e3 reaches 8.4e9 and
        # is then capped at 1e10, which is accepted
        c = 9e10
        steps, (alpha, _, _, evals, ok) = both_line_searches(
            diagonal_quadratic(np.array([2.0 / c ** 2]), np.array([c])),
            np.zeros(1), np.ones(1), 1e3)
        assert ok and alpha == 1e10
        assert steps == [1e3 * 2.0 ** i for i in range(evals - 1)] + [1e10]

    def test_non_finite_trial_brackets(self):
        fg = finite_within(1.0)
        steps, (alpha, f, _, _, ok) = both_line_searches(
            fg, np.array([0.5]), -np.ones(1), 100.0)
        assert not np.isfinite(fg(0.5 - np.array([steps[0]]))[0])
        assert ok and np.isfinite(f) and 0.0 < alpha < 100.0

    def test_evaluation_cap(self):
        def fg(x):
            return float(np.abs(x).sum()), np.sign(x)

        _, (alpha, f, _, evals, ok) = both_line_searches(
            fg, np.array([0.3]), -np.ones(1), 1.0)
        assert evals == lbfgs._MAX_LS_EVALS and not ok
        assert 0.0 < alpha and f < 0.3


class TestStepCap:
    def test_unbounded_descent_stops_at_the_cap(self):
        """On f = -x the loss falls without end and no step meets the
        curvature condition: the doubling tries the 1e10 cap once and the
        search returns it as a failed search."""
        trials = []

        def fg(x):
            trials.append(float(x[0]))
            return -float(x[0]), -np.ones(1)

        alpha, f, g, evals, ok = lbfgs._strong_wolfe(
            fg, np.zeros(1), np.ones(1), 0.0, -np.ones(1), -1.0, 1e3)
        assert not ok and alpha == lbfgs._MAX_STEP == 1e10
        assert f == -1e10 and g.tolist() == [-1.0]
        assert trials == [1e3 * 2.0 ** i for i in range(evals - 1)] + [1e10]


def minimize_without_band(fg, x0, *, max_iters=500, rel_tol=1e-6,
                          steps=None):
    """Reference solver: ``minimize`` as it was before the band stop, from
    the same line search and two-loop recursion.  Each accepted step
    appends (improvement, f-rel bar, best loss after it) to ``steps``."""
    x = np.asarray(x0, dtype=float).copy()
    f, g = fg(x)
    n_evals = 1
    best_x, best_f = x.copy(), f
    pairs = deque(maxlen=lbfgs._HISTORY)
    gamma = 1.0
    reason = "max-iters"
    stalls = 0
    it = 0
    while it < max_iters:
        if float(np.abs(g).max(initial=0.0)) < lbfgs._GRAD_TOL:
            reason = "gradient"
            break
        it += 1
        p = lbfgs._two_loop(g, pairs, gamma)
        dphi0 = float(g.dot(p))
        if not math.isfinite(dphi0) or dphi0 >= 0.0:
            pairs.clear()
            gamma = 1.0
            p = -g
            dphi0 = -float(g.dot(g))
        alpha0 = 1.0 if pairs else min(
            1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        a, f_new, g_new, evals, ok = lbfgs._strong_wolfe(
            fg, x, p, f, g, dphi0, alpha0)
        n_evals += evals
        if a == 0.0:
            reason = "line-search"
            break
        s = a * p
        y = g_new - g
        sy, yy = float(s.dot(y)), float(y.dot(y))
        if sy > 1e-10 * math.sqrt(float(s.dot(s))) * math.sqrt(yy):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / yy
        x = x + s
        improvement = f - f_new
        stall_bar = rel_tol * max(abs(f), abs(f_new), 1.0)
        f, g = f_new, g_new
        if f < best_f:
            best_x, best_f = x.copy(), f
        if not ok:
            reason = "line-search"
            break
        if steps is not None:
            steps.append((improvement, stall_bar, best_f))
        if improvement <= stall_bar:
            stalls += 1
            if stalls >= 2:
                reason = "f-rel"
                break
        else:
            stalls = 0
    return lbfgs.MinimizeResult(x=best_x, fun=best_f, n_iters=it,
                                n_evals=n_evals, reason=reason)


def quartic(x):
    return float((x ** 4).sum() + (x ** 2).sum()), 4.0 * x ** 3 + 2.0 * x


def solve_case(rng):
    """A seeded random solve: (fg, x0, max_iters, rel_tol)."""
    kind = rng.integers(3)
    if kind == 0:
        n = int(rng.integers(2, 9))
        fg = diagonal_quadratic(10.0 ** rng.uniform(-3, 3, n),
                                rng.standard_normal(n))
        x0 = rng.standard_normal(n) * 3
    elif kind == 1:
        fg, x0 = rosenbrock, rng.uniform(-2, 2, 2)
    else:
        fg, x0 = quartic, rng.standard_normal(int(rng.integers(1, 6))) * 2
    return (fg, x0, int(rng.integers(5, 200)),
            float(10.0 ** rng.uniform(-10, -3)))


def first_loose_point(steps, rel_tol):
    """The 1-based iteration at which two consecutive accepted steps first
    each improve the loss by at most the band bar, and the best loss
    then; None when no such iteration came."""
    loose = 0
    for it, (improvement, bar, best_f) in enumerate(steps, 1):
        loose = loose + 1 if improvement <= lbfgs._BAND_BAR * bar else 0
        if loose >= 2:
            return it, best_f
    return None


def same_result(a, b):
    return (a.x.tobytes(), a.fun, a.n_iters, a.n_evals, a.reason) == \
        (b.x.tobytes(), b.fun, b.n_iters, b.n_evals, b.reason)


class TestBand:
    def test_band_not_entered_changes_nothing(self):
        """With no band, or a band the best loss is outside of at the
        first loose point, a solve returns what it returned before the
        band stop existed, bit for bit, even when its loss later enters
        the band."""
        rng = np.random.default_rng(20261020)
        looked = later = 0
        for _ in range(300):
            fg, x0, max_iters, rel_tol = solve_case(rng)
            steps = []
            ref = minimize_without_band(fg, x0, max_iters=max_iters,
                                        rel_tol=rel_tol, steps=steps)
            f0 = fg(x0)[0]
            bands = [None, (-math.inf, ref.fun - 1.0), (f0 + 1.0, math.inf)]
            loose = first_loose_point(steps, rel_tol)
            if loose is not None and loose[1] > ref.fun:
                bands.append((-math.inf, ref.fun))  # entered only later
                later += 1
            looked += loose is not None
            for band in bands:
                res = minimize(fg, x0, max_iters=max_iters, rel_tol=rel_tol,
                               band=band)
                assert same_result(res, ref), band
        assert looked >= 100 and later >= 20

    def test_band_entered_stops_at_the_first_loose_point(self):
        """A band holding the best loss at the first loose point ends the
        solve there, with the iterate the solve had then."""
        rng = np.random.default_rng(20261021)
        saved = 0
        for _ in range(300):
            fg, x0, max_iters, rel_tol = solve_case(rng)
            steps = []
            ref = minimize_without_band(fg, x0, max_iters=max_iters,
                                        rel_tol=rel_tol, steps=steps)
            loose = first_loose_point(steps, rel_tol)
            if loose is None:
                continue
            it, best_f = loose
            for band in ((-math.inf, math.inf), (best_f, best_f)):
                res = minimize(fg, x0, max_iters=max_iters, rel_tol=rel_tol,
                               band=band)
                assert res.reason == "band"
                assert res.n_iters == it and res.fun == best_f
                upto = minimize_without_band(fg, x0, max_iters=it,
                                             rel_tol=rel_tol)
                assert res.x.tobytes() == upto.x.tobytes()
                assert res.n_evals == upto.n_evals <= ref.n_evals
                assert res.fun >= ref.fun
            saved += res.n_evals < ref.n_evals
        assert saved >= 50

    def test_overflowing_gradient_is_a_numeric_error(self):
        def fg(x):
            return float(1e300 * np.abs(x).sum()), np.full_like(x, 1e300)

        with pytest.raises(NumericError, match="squared norm"):
            minimize(fg, np.ones(2))
