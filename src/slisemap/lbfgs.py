"""Limited-memory quasi-Newton minimizer with a strong Wolfe line search.

A self-contained L-BFGS over flat float64 vectors: two-loop recursion for
the search direction, bracketing + zoom line search with cubic
interpolation enforcing the strong Wolfe conditions (c1 = 1e-4, c2 = 0.9),
and curvature-guarded history updates.

The first iteration tries the steepest-descent step of length
min(1, 1 / max(1, |g|_1)) (Nocedal and Wright, Numerical Optimization,
section 3.5); later ones try the unit quasi-Newton step.  A caller that
knows the scale its start is curved on passes ``max_first_step``, which
caps the first trial's move in every coordinate.

The zoom keeps each trial step at least a tenth of the bracket inside it:
a cubic minimizer closer to an end is moved to that distance (the
safeguard of More and Thuente, ACM TOMS 1994), and only a cubic without a
minimizer falls back to bisection.  A step far past a kink, such as the
first steepest-descent step of a point added as a copy of an old row,
thus shrinks the bracket tenfold per evaluation instead of halving it.

Termination, named by ``MinimizeResult.reason``: gradient sup-norm below
``_GRAD_TOL``, relative loss improvement below ``rel_tol``, the iteration
cap, or a failed line search.  A failed line search is not an error: its
lowest trial, when below the current loss, becomes the last iterate, and
the caller keeps going.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

_C1 = 1e-4
_C2 = 0.9
_GRAD_TOL = 1e-9
_MAX_LS_EVALS = 30  # objective evaluations per line search
_HISTORY = 10  # curvature pairs kept


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    n_iters: int
    n_evals: int
    reason: str


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa, da) and (b, fb, db).

    Returns None when the interpolant has no usable minimum.
    """
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return None
    d2 = np.sqrt(disc)
    if a > b:
        d2 = -d2
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    t = b - (b - a) * (db + d2 - d1) / denom
    if not np.isfinite(t):
        return None
    return t


def _strong_wolfe(fg, x, p, f0, g0, alpha0):
    """Find a step along ``p`` satisfying the strong Wolfe conditions.

    Returns (alpha, f, g, n_evals, ok).  On failure ok is False and the
    best point evaluated is returned instead (alpha may be 0).
    """
    dphi0 = float(g0 @ p)
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
        # Invariant: lo satisfies the sufficient-decrease condition and has
        # the lowest such value; the minimizer lies between lo and hi.
        for _ in range(_MAX_LS_EVALS - evals):
            a = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
            span = abs(hi - lo)
            left, right = min(lo, hi), max(lo, hi)
            if a is None:
                a = 0.5 * (lo + hi)
            else:  # keep the trial a tenth of the span inside the bracket
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
        if not np.isfinite(f) or f > phi0 + _C1 * a * dphi0 or (f >= prev_f and not first):
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
    # Salvage whatever decreased the loss the most.
    if best_a > 0.0 and best_f < f0:
        return best_a, best_f, best_g, evals, False
    return 0.0, f0, g0, evals, False


def _two_loop(g, pairs, gamma):
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def minimize(fun_and_grad, x0, *, max_iters=500, rel_tol=1e-6,
             max_first_step=None) -> MinimizeResult:
    """Minimize ``fun_and_grad`` starting from ``x0``.

    ``fun_and_grad(x)`` must return ``(float, ndarray)``.  The returned
    point is the best accepted iterate, ``x0`` included, so
    ``result.fun <= f(x0)``; a trial step the line search rejects is
    never returned, even when it is lower than the step it accepts.
    ``max_first_step``, if given, bounds how far the first iteration's
    trial point moves any coordinate from ``x0``.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_and_grad(x)
    n_evals = 1
    best_x, best_f = x.copy(), f
    pairs = deque(maxlen=_HISTORY)  # curvature pairs (s, y, 1 / s.y)
    gamma = 1.0
    reason = "max-iters"
    stalls = 0
    it = 0

    while it < max_iters:
        gnorm = float(np.abs(g).max(initial=0.0))
        if gnorm < _GRAD_TOL:
            reason = "gradient"
            break
        it += 1
        p = _two_loop(g, pairs, gamma)
        dphi0 = float(g @ p)
        if not np.isfinite(dphi0) or dphi0 >= 0.0:
            # Defective curvature memory: restart from steepest descent.
            pairs.clear()
            gamma = 1.0
            p = -g
            dphi0 = -float(g @ g)
        if pairs:
            alpha0 = 1.0
        else:
            alpha0 = min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        if it == 1 and max_first_step is not None:
            alpha0 = min(alpha0,
                         max_first_step / float(np.abs(p).max(initial=0.0)))
        a, f_new, g_new, evals, ok = _strong_wolfe(
            fun_and_grad, x, p, f, g, alpha0)
        n_evals += evals
        if not ok and (f_new >= f or a == 0.0):
            reason = "line-search"
            break
        s = a * p
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ y)
        x = x + s
        improvement = f - f_new
        stall_bar = rel_tol * max(abs(f), abs(f_new), 1.0)
        f, g = f_new, g_new
        if f < best_f:
            best_x, best_f = x.copy(), f
        if not ok:
            reason = "line-search"
            break
        # Two consecutive sub-tolerance improvements are required: one slow
        # step right after a badly scaled curvature update is common on
        # stiff instances and does not mean convergence.
        if improvement <= stall_bar:
            stalls += 1
            if stalls >= 2:
                reason = "f-rel"
                break
        else:
            stalls = 0

    return MinimizeResult(x=best_x, fun=best_f, n_iters=it, n_evals=n_evals,
                          reason=reason)
