"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared host the same work takes up to 1.5x longer at some times than
at others, in states that last from seconds to minutes, so wall times of
separate runs spread more than any useful bound.  The benchmark therefore
runs a small kernel that does not use the package after every timed
operation, in bursts around each fit and, with ``install``, after every
EVERY-th objective evaluation inside a fit.  It reports every end-to-end
timing scaled to the kernel's speed on the reference machine:

    scaled = (wall seconds - kernel seconds inside the operation)
             * REFERENCE_S / (median kernel time within WINDOW_S of it)

An operation with kernel samples inside it (a fit) is scaled piece by
piece: the stretch before each inner sample by the median of the NEAREST
samples around that one, so that a change of speed within a fit is
weighted by how long it lasted.

The kernel does what the package's own work is made of: element-wise
numpy ops, a small matrix product and an einsum on 150 x 150 arrays, and
a short pure-Python loop.  A change to the package cannot move it, so a
faster package reads faster in the scaled figures, by the same share as
in wall time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import statistics
import time

import numpy as np

# median kernel time on the reference machine (see README.md)
REFERENCE_S = 1.5e-3
WINDOW_S = 0.5
BURST = 25
EVERY = 16
NEAREST = 5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((150, 150))
_W = _rng.standard_normal((150, 33))
_C = _rng.standard_normal((150, 150, 3))


def kernel() -> float:
    acc = 0.0
    for _ in range(3):
        E = np.exp(-_A * _A)
        S = E / E.sum(axis=1, keepdims=True)
        acc += float((S @ _W).sum()) + float(np.einsum("ijk,ij->ik", _C, S).sum())
    s = 0
    for i in range(4000):
        s += i * i % 7
    return acc + s


class Probe:
    """Kernel samples of one run: (start time, duration), in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._saved = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def install(self) -> None:
        """Sample after every EVERY-th call of the fit's objective."""
        from slisemap import solver
        original = solver.loss_and_gradients
        calls = itertools.count(1)

        @functools.wraps(original)
        def sampled(*args, **kwargs):
            out = original(*args, **kwargs)
            if next(calls) % EVERY == 0:
                self.sample()
            return out

        solver.loss_and_gradients = sampled
        self._saved = (solver, original)

    def uninstall(self) -> None:
        if self._saved is not None:
            module, original = self._saved
            module.loss_and_gradients = original
            self._saved = None

    def net(self, span) -> float:
        """A span's wall seconds minus the kernel samples inside it."""
        lo = bisect.bisect_left(self.starts, span.t0)
        hi = bisect.bisect_right(self.starts, span.t1)
        return span.seconds - sum(self.seconds[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of
        the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed sample near a timed operation")
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def _near(self, j: int) -> float:
        """REFERENCE_S over the median of the NEAREST samples around j."""
        lo = max(0, min(j - NEAREST // 2, len(self.seconds) - NEAREST))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + NEAREST])

    def scaled(self, span) -> float:
        """A span's net seconds at the reference machine's speed."""
        lo = bisect.bisect_left(self.starts, span.t0)
        hi = bisect.bisect_right(self.starts, span.t1)
        if hi - lo < 2:
            return self.net(span) * self.factor(span.t0, span.t1)
        total, t = 0.0, span.t0
        for j in range(lo, hi):
            total += (self.starts[j] - t) * self._near(j)
            t = self.starts[j] + self.seconds[j]
        # the stretch after the last inner sample, by the samples after it
        return total + (span.t1 - t) * self._near(hi)
