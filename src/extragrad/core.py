"""Foundational geometry: points, feasible sets, Bregman divergences and prox maps.

All solvers in this package work over a (possibly degenerate) product space
with a primal block ``x`` and a dual block ``y``.  Either block may be empty.
Regularizers come in two flavors: block regularizers defined over a single
vector, and point regularizers defined over a full primal-dual point (the
product of two block regularizers, or a genuinely coupled one such as the
box-simplex regularizer in :mod:`extragrad.boxsimplex`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for identity checks.
TAU_NUM = 1e-9
# Simplex feasibility tolerance.
TAU_FEAS = 1e-12

_EMPTY = np.zeros(0)


class DomainError(ValueError):
    """Input outside the domain of a regularizer or operator."""


@dataclass(frozen=True)
class Point:
    """A point z = (x-block, y-block) in a product space.

    Supports the vector-space operations solvers need, so that generic code
    can treat ``Point`` and ``np.ndarray`` interchangeably.
    """

    x: np.ndarray
    y: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

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


def vdot(a, b) -> float:
    """Inner product working on both Points and plain arrays."""
    if isinstance(a, Point):
        return a.dot(b)
    return float(np.dot(a, b))


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------


class FeasibleSet:
    def contains(self, v) -> bool:
        raise NotImplementedError

    def sample(self, rng, margin=0.0):
        raise NotImplementedError


class Everywhere(FeasibleSet):
    def __init__(self, dim: int):
        self.dim = dim

    def contains(self, v):
        return v.size == self.dim and bool(np.all(np.isfinite(v)))

    def sample(self, rng, margin=0.0):
        return rng.standard_normal(self.dim)


class Box(FeasibleSet):
    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi coordinatewise")
        self.dim = self.lo.size

    def contains(self, v):
        return bool(np.all(v >= self.lo - TAU_FEAS) and np.all(v <= self.hi + TAU_FEAS))

    def sample(self, rng, margin=0.0):
        lo = self.lo + margin * (self.hi - self.lo)
        hi = self.hi - margin * (self.hi - self.lo)
        return rng.uniform(lo, hi)


class Simplex(FeasibleSet):
    def __init__(self, dim: int):
        self.dim = dim

    def contains(self, v):
        return bool(np.all(v >= -TAU_FEAS)
                    and abs(float(np.sum(v)) - 1.0) <= max(TAU_FEAS, TAU_FEAS * v.size))

    def sample(self, rng, margin=0.0):
        # margin keeps every entry >= margin / dim, away from the boundary
        p = rng.exponential(size=self.dim)
        p /= p.sum()
        return (1.0 - margin) * p + margin / self.dim


class ProductSet(FeasibleSet):
    def __init__(self, x_set: FeasibleSet, y_set: FeasibleSet):
        self.x_set = x_set
        self.y_set = y_set

    def contains(self, p: Point):
        return self.x_set.contains(p.x) and self.y_set.contains(p.y)

    def sample(self, rng, margin=0.0):
        return Point(self.x_set.sample(rng, margin), self.y_set.sample(rng, margin))


# ---------------------------------------------------------------------------
# Conjugate oracle for quadratics
# ---------------------------------------------------------------------------


class ConjugateOracle:
    """Closed-form evaluators for f, grad f, f*, grad f* of a quadratic.

    f(x) = 1/2 x^T M x + b^T x with positive-definite M (dense or diagonal).
    The inverse map uses a factorization of M fixed at construction, so
    grad_fstar(grad_f(x)) == x to numerical precision.
    """

    def __init__(self, M, b=None):
        M = np.asarray(M, dtype=float)
        self.diag = M.ndim == 1
        self.M = M
        d = M.shape[0]
        self.b = np.zeros(d) if b is None else np.asarray(b, dtype=float)
        if self.diag:
            if np.any(M <= 0):
                raise ValueError("diagonal M must be positive")
            self._inv = 1.0 / M
        else:
            try:
                self._chol = np.linalg.cholesky(M)
            except np.linalg.LinAlgError as e:
                raise ValueError("M must be positive definite") from e

    def _solve(self, v):
        if self.diag:
            return self._inv * v
        z = np.linalg.solve(self._chol, v)
        return np.linalg.solve(self._chol.T, z)

    def f(self, x):
        Mx = self.M * x if self.diag else self.M @ x
        return 0.5 * float(np.dot(x, Mx)) + float(np.dot(self.b, x))

    def grad_f(self, x):
        return (self.M * x if self.diag else self.M @ x) + self.b

    def fstar(self, y):
        v = y - self.b
        return 0.5 * float(np.dot(v, self._solve(v)))

    def grad_fstar(self, y):
        return self._solve(y - self.b)


# ---------------------------------------------------------------------------
# Block regularizers (defined over a single vector)
# ---------------------------------------------------------------------------


class BlockRegularizer:
    """Distance-generating function over one vector block."""

    def value(self, v) -> float:
        raise NotImplementedError

    def grad(self, v):
        raise NotImplementedError

    def divergence(self, a, b) -> float:
        """Bregman divergence from a to b: r(b) - r(a) - <grad r(a), b - a>."""
        ga = self.grad(a)
        return self.value(b) - self.value(a) - float(np.dot(ga, b - a))

    def prox(self, z, g):
        """argmin_v <g, v> + V_z(v) over the feasible set."""
        raise NotImplementedError


class ScaledEuclidean(BlockRegularizer):
    """r(v) = mu/2 ||v||_2^2 over free space."""

    def __init__(self, mu=1.0):
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        self.mu = mu

    def value(self, v):
        return 0.5 * self.mu * float(np.dot(v, v))

    def grad(self, v):
        return self.mu * v

    def divergence(self, a, b):
        d = b - a
        return 0.5 * self.mu * float(np.dot(d, d))

    def prox(self, z, g):
        return z - g / self.mu

    def blended_prox(self, zt, wt, g, lam, m):
        return (zt + (m / lam) * wt - g / (self.mu * lam)) / (1.0 + m / lam)


class NegativeEntropy(BlockRegularizer):
    """r(v) = c * sum_i v_i log v_i over the probability simplex."""

    def __init__(self, scale=1.0):
        if scale <= 0:
            raise ValueError("entropy scale must be positive")
        self.scale = scale

    def value(self, v):
        w = np.maximum(v, 0.0)
        return self.scale * float(np.sum(np.where(w > 0, w * np.log(np.maximum(w, 1e-300)), 0.0)))

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


class ConjugateRegularizer(BlockRegularizer):
    """r = f* for a quadratic f given by a :class:`ConjugateOracle`.

    Divergences are evaluated through the dual identity
    V^{f*}_{grad f(a)}(grad f(b)) = V^f_b(a), so only primal quantities are
    ever formed.
    """

    def __init__(self, oracle: ConjugateOracle):
        self.oracle = oracle

    def value(self, v):
        return self.oracle.fstar(v)

    def grad(self, v):
        return self.oracle.grad_fstar(v)

    def divergence(self, a, b):
        xa = self.oracle.grad_fstar(a)
        xb = self.oracle.grad_fstar(b)
        o = self.oracle
        return o.f(xa) - o.f(xb) - float(np.dot(o.grad_f(xb), xa - xb))

    def prox(self, z, g):
        # argmin_y <g, y> + V^{f*}_z(y) solves grad f*(y) = grad f*(z) - g
        return self.oracle.grad_f(self.oracle.grad_fstar(z) - g)


# ---------------------------------------------------------------------------
# Point-level regularizers
# ---------------------------------------------------------------------------


class ProductRegularizer:
    """Separable regularizer r(x, y) = r_x(x) + r_y(y) over a product set."""

    def __init__(self, rx: BlockRegularizer, ry: BlockRegularizer):
        self.rx = rx
        self.ry = ry

    def value(self, p: Point):
        return self.rx.value(p.x) + self.ry.value(p.y)

    def grad(self, p: Point):
        return Point(self.rx.grad(p.x), self.ry.grad(p.y))

    def divergence(self, a: Point, b: Point):
        return self.rx.divergence(a.x, b.x) + self.ry.divergence(a.y, b.y)

    def prox(self, z: Point, g: Point):
        return Point(self.rx.prox(z.x, g.x), self.ry.prox(z.y, g.y))

    def blended_prox(self, zt: Point, wt: Point, g: Point, lam, m):
        return Point(self.rx.blended_prox(zt.x, wt.x, g.x, lam, m),
                     self.ry.blended_prox(zt.y, wt.y, g.y, lam, m))


def divergence(reg, a, b) -> float:
    """Bregman divergence V^r_a(b) for any regularizer/point pairing."""
    if isinstance(a, Point) and not a.finite():
        raise DomainError("non-finite point")
    if isinstance(a, np.ndarray) and not np.all(np.isfinite(a)):
        raise DomainError("non-finite point")
    val = reg.divergence(a, b)
    if val < -TAU_NUM * max(1.0, abs(val)):
        raise DomainError(f"negative divergence {val}; regularizer not convex here")
    return val
