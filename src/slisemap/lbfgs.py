"""Limited-memory quasi-Newton minimizer with a strong Wolfe line search.

A self-contained L-BFGS over flat float64 vectors: two-loop recursion for
the search direction, a line search enforcing the strong Wolfe conditions
(c1 = 1e-4, c2 = 0.9), and curvature-guarded history updates.

The line search is one loop over trial steps.  It keeps the lowest trial
with sufficient decrease as the low end of a bracket; until a trial
brackets a Wolfe step there is no upper end, and each trial doubles the
step, up to 1e10 (a search whose low end reaches that cap fails there).
With both ends, a trial is the cubic interpolant's minimizer (Nocedal and
Wright, Numerical Optimization, Algorithms 3.5 and 3.6).  One rule moves
either end in both phases.

The first iteration tries the steepest-descent step of length
min(1, 1 / max(1, |g|_1)) (Nocedal and Wright, section 3.5); later ones
try the unit quasi-Newton step.  A caller that knows the scale its start
is curved on passes ``max_first_step``, which caps the first trial's move
in every coordinate.

A bracketed trial stays at least a tenth of the bracket inside it: a
cubic minimizer closer to an end is moved to that distance (the safeguard
of More and Thuente, ACM TOMS 1994), and only a cubic without a minimizer
falls back to bisection.  A step far past a kink, such as the first
steepest-descent step of a point added as a copy of an old row, thus
shrinks the bracket tenfold per evaluation instead of halving it.

Termination, named by ``MinimizeResult.reason``: gradient sup-norm below
``_GRAD_TOL`` ("gradient"); two consecutive accepted steps that each
improve the loss by at most ``rel_tol`` of it ("f-rel"); the iteration cap
("max-iters"); a failed line search ("line-search"); or, for a caller that
passes a ``band`` (lo, hi), the best loss inside it at the first iteration
where two consecutive steps each improve the loss by at most ten times
``rel_tol`` of it, the f-rel test with a tenfold bar (``_BAND_BAR``;
"band").  The band is looked at only there, once: a solve whose best loss
is outside it then runs on exactly as without one.  A fit passes its
escape rounds the loss band where a round can only confirm the best loss,
so those rounds stop early instead of being solved out.  A
failed line search is not an error: its lowest trial, when below the
current loss, becomes the last iterate, and the caller keeps going.  A
gradient whose squared norm overflows is one: no step can be scaled to it,
and ``minimize`` raises a NumericError.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_C1 = 1e-4
_C2 = 0.9
_GRAD_TOL = 1e-9
_MAX_LS_EVALS = 30  # objective evaluations per line search
_HISTORY = 10  # curvature pairs kept
_MAX_STEP = 1e10  # largest trial step
_BAND_BAR = 10.0  # the band is looked at under this multiple of rel_tol
# Non-finite trial losses and slopes are handled as values (a trial that
# overflows brackets the step), so their numpy warnings are noise.
_QUIET = np.errstate(over="ignore", invalid="ignore")


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
    d2 = math.sqrt(disc)
    if a > b:
        d2 = -d2
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    t = b - (b - a) * (db + d2 - d1) / denom
    if not math.isfinite(t):
        return None
    return t


def _strong_wolfe(fg, x, p, f0, g0, dphi0, alpha0):
    """Find a step along ``p`` satisfying the strong Wolfe conditions;
    ``dphi0`` is the slope g0 . p at the start.

    Returns (alpha, f, g, n_evals, ok).  On failure ok is False and the
    best point evaluated is returned instead (alpha may be 0).
    """
    # lo: the lowest trial with sufficient decrease; hi: the other end of
    # the bracket holding a Wolfe step, None until a trial brackets one.
    lo, f_lo, d_lo = 0.0, f0, dphi0
    hi = f_hi = d_hi = None
    best_a, best_f, best_g = 0.0, f0, None  # best finite point evaluated
    evals = 0
    while evals < _MAX_LS_EVALS:
        if hi is None:  # no upper end yet: never stop on the span
            span = math.inf
            a = alpha0 if evals == 0 else min(2.0 * lo, _MAX_STEP)
            if evals and a == lo:  # the capped step kept decreasing
                break
        else:  # the cubic's minimizer, a tenth of the span inside; or bisect
            span = abs(hi - lo)
            a = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
            a = 0.5 * (lo + hi) if a is None else min(
                max(a, min(lo, hi) + 0.1 * span), max(lo, hi) - 0.1 * span)
        f, g = fg(x + a * p)
        evals += 1
        d = float(g.dot(p))
        if math.isfinite(f) and f < best_f:
            best_a, best_f, best_g = a, f, g
        # The first trial may pass sufficient decrease with f == f0, as
        # when the step is below the loss's rounding; it is not bracketed.
        if (not math.isfinite(f) or f > f0 + _C1 * a * dphi0
                or (f >= f_lo and evals > 1)):
            hi, f_hi, d_hi = a, f, d
        elif abs(d) <= -_C2 * dphi0:
            return a, f, g, evals, True
        else:
            if d * (1.0 if hi is None else hi - lo) >= 0.0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = a, f, d
        if span <= 1e-14 * max(1.0, abs(lo)):
            break
    # Salvage whatever decreased the loss the most.
    if best_a > 0.0 and best_f < f0:
        return best_a, best_f, best_g, evals, False
    return 0.0, f0, g0, evals, False


def _two_loop(g, pairs, gamma):
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y.dot(q))
        q += (a - b) * s
    return q


@_QUIET
def minimize(fun_and_grad, x0, *, max_iters=500, rel_tol=1e-6,
             max_first_step=None, band=None) -> MinimizeResult:
    """Minimize ``fun_and_grad`` starting from ``x0``.

    ``fun_and_grad(x)`` must return ``(float, ndarray)``.  The returned
    point is the best accepted iterate, ``x0`` included, so
    ``result.fun <= f(x0)``; a trial step the line search rejects is
    never returned, even when it is lower than the step it accepts.  An
    accepted step may leave the loss unchanged; of the iterates at the
    best loss the earliest is returned.
    ``max_first_step``, if given, bounds how far the first iteration's
    trial point moves any coordinate from ``x0``.
    ``band``, if given as ``(lo, hi)``, ends the solve ("band") when its
    best loss lies in ``[lo, hi]`` at the first iteration where two
    consecutive steps each improve the loss by at most ``_BAND_BAR *
    rel_tol`` of it; the band is looked at there only.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_and_grad(x)
    n_evals = 1
    best_x, best_f = x.copy(), f
    pairs = deque(maxlen=_HISTORY)  # curvature pairs (s, y, 1 / s.y)
    gamma = 1.0
    reason = "max-iters"
    stalls = loose = 0  # consecutive steps under the f-rel and band bars
    it = 0

    while it < max_iters:
        gnorm = float(np.abs(g).max(initial=0.0))
        if gnorm < _GRAD_TOL:
            reason = "gradient"
            break
        it += 1
        p = _two_loop(g, pairs, gamma)
        dphi0 = float(g.dot(p))
        if not math.isfinite(dphi0) or dphi0 >= 0.0:
            # Defective curvature memory: restart from steepest descent.
            pairs.clear()
            gamma = 1.0
            p = -g
            dphi0 = -float(g.dot(g))
            if not math.isfinite(dphi0):
                raise NumericError("the gradient's squared norm is not "
                                   "finite")
        if pairs:
            alpha0 = 1.0
        else:
            alpha0 = min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        if it == 1 and max_first_step is not None:
            alpha0 = min(alpha0,
                         max_first_step / float(np.abs(p).max(initial=0.0)))
        a, f_new, g_new, evals, ok = _strong_wolfe(
            fun_and_grad, x, p, f, g, dphi0, alpha0)
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
        # Two consecutive sub-tolerance improvements are required: one slow
        # step right after a badly scaled curvature update is common on
        # stiff instances and does not mean convergence.
        if improvement <= stall_bar:
            stalls += 1
        else:
            stalls = 0
        if band is not None:
            loose = loose + 1 if improvement <= _BAND_BAR * stall_bar else 0
            if loose >= 2:
                if band[0] <= best_f <= band[1]:
                    reason = "band"
                    break
                band = None  # looked at once
        if stalls >= 2:
            reason = "f-rel"
            break

    return MinimizeResult(x=best_x, fun=best_f, n_iters=it, n_evals=n_evals,
                          reason=reason)
