"""A fixed reference computation that tracks the speed of the machine.

On a shared host the same code can run at very different speeds from one
minute to the next: the processor's throughput changes, not the program.
``Reference.measure`` times a fixed mix of the kinds of work the solvers do
(an interpreted loop, numpy operations on short vectors, sparse and dense
matrix-vector products).  None of it calls ``extragrad``, so a change to the
program leaves it alone.  A solve timed between two such measurements is
scaled by ``REFERENCE_S / (their mean)``: it then reads as the time the
solve would take on a machine where the reference takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

clock = time.perf_counter

# The reference's median time on the 2-vCPU machine of the README's figures.
# Any fixed value works: it only sets the scale of the normalised seconds.
REFERENCE_S = 0.1
# Between solves the reference is measured at most this often, seconds.
EVERY_S = 1.0


class Reference:
    """Fixed inputs, made once; ``measure`` returns the seconds one pass took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.v = rng.random(20)
        self.M = rng.standard_normal((20, 10))
        self.S = sp.random(2000, 1500, density=0.01, random_state=1, format="csr")
        self.ones = np.ones(1500)
        self.D = rng.standard_normal((200, 200))
        self.w = rng.standard_normal(200)

    def _python(self, n=250000):
        s = 0
        for i in range(n):
            s += i * i % 7
        return s

    def _small_vectors(self, n=1600):
        x = self.v
        for _ in range(n):
            z = np.exp(-(self.M.T @ x))
            x = np.clip(self.v + 1e-3 * (self.M @ z) / z.sum(), 0.0, 1.0)
        return x

    def _sparse(self, n=160):
        u = self.ones
        for _ in range(n):
            u = self.S.T @ (self.S @ u)
            u = u / np.abs(u).max()
        return u

    def _dense(self, n=2100):
        u = self.w
        for _ in range(n):
            u = self.D @ u
            u = u / np.abs(u).max()
        return u

    def measure(self):
        t0 = clock()
        self._python()
        self._small_vectors()
        self._sparse()
        self._dense()
        return clock() - t0


class Normaliser:
    """Reference measurements between solves, and each solve scaled by them.

    ``between`` measures the reference when ``EVERY_S`` has passed since the
    last measurement (or when ``force``).  ``scaled`` scales solve ``i`` by
    the mean of the last measurement before it and the first one after it.
    """

    def __init__(self, reference):
        self.reference = reference
        self.marks = []  # (solves finished before the measurement, seconds)
        self.last = None

    def reset(self):
        self.marks.clear()

    def between(self, solves_done, force=False):
        if force or self.last is None or clock() - self.last >= EVERY_S:
            self.marks.append((solves_done, self.reference.measure()))
            self.last = clock()

    def speed(self):
        """Median reference time of the marks made since ``reset``, seconds."""
        return statistics.median(c for _, c in self.marks)

    def scaled(self, times):
        """Normalised seconds of each solve in ``times``."""
        out = []
        for i, dt in enumerate(times):
            before = [c for done, c in self.marks if done <= i][-1]
            after = next(c for done, c in self.marks if done >= i + 1)
            out.append(dt * REFERENCE_S / (0.5 * (before + after)))
        return out
