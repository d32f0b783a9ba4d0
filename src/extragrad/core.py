"""Foundational geometry: points, feasible sets, Bregman divergences and prox maps.

All solvers in this package work over a (possibly degenerate) product space
with a primal block ``x`` and a dual block ``y``.  Either block may be empty.
Regularizers come in two flavors: block regularizers defined over a single
vector, and point regularizers defined over a full primal-dual point (the
product of two block regularizers, or a genuinely coupled one such as the
box-simplex regularizer in :mod:`extragrad.boxsimplex`).  Every regularizer
has ``divergence(a, b)``, the Bregman divergence
V_a(b) = r(b) - r(a) - <grad r(a), b - a>, and ``prox(z, g)``, the argmin
over the feasible set of <g, v> + V_z(v).  ``grad`` and ``blended_prox`` exist
where a method or a reference test reads them; the box-simplex regularizer
carries r(z) in its z-terms, which its divergence reads.  The feasible sets
only draw points, from which ``verify.sample_triples`` builds the triples
that the sampled certificates judge.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Input outside the domain of a regularizer or operator."""


_FLOAT64 = np.dtype(np.float64)


class Point:
    """A point z = (x-block, y-block) in a product space.

    Supports the vector-space operations solvers need, and ``a.dot(b)``, with
    the names of ``np.ndarray``'s, so that generic code treats the two alike.
    Both blocks are float64 arrays: a block given as a float64 ``ndarray`` is
    kept as it is, and anything else goes through ``np.asarray(v, dtype=float)``.
    The box-simplex solver makes thousands of points per solve, so the check
    is inline.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x if type(x) is np.ndarray and x.dtype is _FLOAT64 else np.asarray(x, dtype=float)
        self.y = y if type(y) is np.ndarray and y.dtype is _FLOAT64 else np.asarray(y, dtype=float)

    def __repr__(self):
        return f"Point(x={self.x!r}, y={self.y!r})"

    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y)))

    def dot(self, other: "Point") -> float:
        return float(np.dot(self.x, other.x) + np.dot(self.y, other.y))

    def __add__(self, other):
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, a: float):
        return Point(a * self.x, a * self.y)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Feasible sets, as samplers of points for the certificates
# ---------------------------------------------------------------------------


class Everywhere:
    def __init__(self, dim: int):
        self.dim = dim

    def sample(self, rng, margin):
        return rng.standard_normal(self.dim)


class Box:
    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi coordinatewise")
        self.dim = self.lo.size

    def sample(self, rng, margin):
        lo = self.lo + margin * (self.hi - self.lo)
        hi = self.hi - margin * (self.hi - self.lo)
        return rng.uniform(lo, hi)


class Simplex:
    def __init__(self, dim: int):
        self.dim = dim

    def sample(self, rng, margin):
        # margin keeps every entry >= margin / dim, away from the boundary
        p = rng.exponential(size=self.dim)
        p /= p.sum()
        return (1.0 - margin) * p + margin / self.dim


class ProductSet:
    def __init__(self, x_set, y_set):
        self.x_set = x_set
        self.y_set = y_set

    def sample(self, rng, margin):
        return Point(self.x_set.sample(rng, margin), self.y_set.sample(rng, margin))


# ---------------------------------------------------------------------------
# Block regularizers (defined over a single vector)
# ---------------------------------------------------------------------------


class ScaledEuclidean:
    """r(v) = mu/2 ||v||_2^2 over free space."""

    def __init__(self, mu):
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        self.mu = mu

    def grad(self, v):
        return self.mu * v

    def divergence(self, a, b):
        d = b - a
        return 0.5 * self.mu * float(np.dot(d, d))

    def prox(self, z, g):
        return z - g / self.mu

    def blended_prox(self, zt, wt, g, lam, m):
        return (zt + (m / lam) * wt - g / (self.mu * lam)) / (1.0 + m / lam)


class NegativeEntropy:
    """r(v) = c * sum_i v_i log v_i over the probability simplex."""

    def __init__(self, scale):
        if scale <= 0:
            raise ValueError("entropy scale must be positive")
        self.scale = scale

    def grad(self, v):
        if np.any(v <= 0):
            raise DomainError("entropy gradient undefined at a zero coordinate")
        return self.scale * (1.0 + np.log(v))

    def divergence(self, a, b):
        if np.any(a <= 0):
            raise DomainError("entropy divergence needs strictly positive base point")
        w = np.maximum(b, 0.0)
        kl = np.where(w > 0, w * np.log(np.maximum(w, 1e-300) / a), 0.0)
        # general (non-simplex) form; the linear terms cancel on the simplex
        return self.scale * float(np.sum(kl) - np.sum(w) + np.sum(a))

    def prox(self, z, g):
        # multiplicative-weights step, stabilized by max subtraction
        if np.any(z <= 0):
            raise DomainError("entropy prox needs strictly positive base point")
        logw = np.log(z) - g / self.scale
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()


class ConjugateRegularizer:
    """r = f* for a quadratic f given by a :class:`~extragrad.QuadraticProblem`.

    Divergences are evaluated through the dual identity
    V^{f*}_{grad f(a)}(grad f(b)) = V^f_b(a), so only primal quantities are
    ever formed.
    """

    def __init__(self, problem):
        self.problem = problem

    def divergence(self, a, b):
        q = self.problem
        xa = q.grad_fstar(a)
        xb = q.grad_fstar(b)
        return q.f(xa) - q.f(xb) - float(np.dot(q.grad(xb), xa - xb))

    def prox(self, z, g):
        # argmin_y <g, y> + V^{f*}_z(y) solves grad f*(y) = grad f*(z) - g
        return self.problem.grad(self.problem.grad_fstar(z) - g)


# ---------------------------------------------------------------------------
# Point-level regularizers
# ---------------------------------------------------------------------------


class ProductRegularizer:
    """Separable regularizer r(x, y) = r_x(x) + r_y(y) over a product set."""

    def __init__(self, rx, ry):
        self.rx = rx
        self.ry = ry

    def divergence(self, a: Point, b: Point):
        return self.rx.divergence(a.x, b.x) + self.ry.divergence(a.y, b.y)

    def prox(self, z: Point, g: Point):
        return Point(self.rx.prox(z.x, g.x), self.ry.prox(z.y, g.y))

    def blended_prox(self, zt: Point, wt: Point, g: Point, lam, m):
        return Point(self.rx.blended_prox(zt.x, wt.x, g.x, lam, m),
                     self.ry.blended_prox(zt.y, wt.y, g.y, lam, m))

