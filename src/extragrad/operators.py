"""Monotone operator constructions, smoothness constants and coordinate sampling.

The randomness contract for everything in this package: seeds feed a Philox
counter-based 64-bit generator (`numpy.random.Philox`), so identical seeds
produce identical traces on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import Point


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Smoothness metadata
# ---------------------------------------------------------------------------


@dataclass
class SmoothnessProfile:
    """Smoothness/strong-convexity constants of an objective.

    L_i holds the per-coordinate smoothnesses; s_half is sum_i sqrt(L_i), the
    normalization of the sampling distribution used by the coordinate method.
    """

    L: float
    mu: float
    L_i: np.ndarray

    def __post_init__(self):
        if not (0 < self.mu <= self.L < np.inf):
            raise ValueError("need 0 < mu <= L, both finite")
        self.L_i = np.asarray(self.L_i, dtype=float)
        if not self.L_i.size or not np.all(self.L_i > 0):  # a NaN too
            raise ValueError("need one or more coordinate smoothnesses, all positive")
        with np.errstate(over="ignore"):  # an infinite constant is refused below
            lams = float(lambda_fenchel(self)), float(lambda_coord(self))
        if not max(lams) * max(lams) < np.inf:  # the solvers square both step constants
            raise ValueError(f"L/mu or (sum_i sqrt(L_i))^2/mu overflows: the step constants "
                             f"{lams[0]!r} and {lams[1]!r} must square to finite numbers")

    @property
    def s_half(self) -> float:
        return float(np.sum(np.sqrt(self.L_i)))

    def coord_probabilities(self) -> np.ndarray:
        return np.sqrt(self.L_i) / self.s_half


def lambda_fenchel(profile: SmoothnessProfile) -> float:
    """Relative Lipschitzness constant of the primal-dual smooth game."""
    return 1.0 + np.sqrt(profile.L / profile.mu)


def lambda_coord(profile: SmoothnessProfile) -> float:
    """Expected relative Lipschitzness constant for coordinate sampling."""
    return 1.0 + profile.s_half / np.sqrt(profile.mu)


# ---------------------------------------------------------------------------
# Box-simplex game
# ---------------------------------------------------------------------------


def _dense_products(m: int, n: int, nnz: int) -> bool:
    """Whether dense products beat compressed-row ones for an m x n matrix
    with nnz stored entries.

    Measured per (A x, A^T y) pair on a 2-vCPU x86 machine (numpy 2.4, scipy
    1.17, OpenBLAS): dense about 4 + 3.6e-4 m n us, compressed-row about
    13 + 2.1e-3 nnz us; the constants are the per-call overhead.
    """
    return 4.0 + 3.6e-4 * m * n < 13.0 + 2.1e-3 * nnz


class BoxSimplexInstance:
    """Bilinear game min_{x in [-1,1]^n} max_{y in simplex} y^T A x - b^T y + c^T x.

    ``A`` is the game's matrix in compressed-row form.  The products use
    ``A_op``, ``At``, ``abs_A`` and ``abs_At``: A, A^T, |A| and |A|^T, dense
    where ``_dense_products`` says a dense product is cheaper and compressed-row
    otherwise.  Each transpose is a view on its matrix's arrays (a
    compressed-column view of a sparse one), built once, since building a
    transpose per product costs several times the product.  ``row_l1`` holds
    the row sums ||A_i||_1.
    """

    kind = "box-simplex"

    def __init__(self, A, b, c):
        A = sp.csr_matrix(A, dtype=float)
        abs_A = sp.csr_matrix(abs(A))
        self.A = A
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.m, self.n = A.shape
        if not self.m or self.b.size != self.m or self.c.size != self.n:
            raise ValueError("A needs a row, and b, c dimensions must match A")
        # ell_inf -> ell_inf operator norm: max row ell_1 norm
        self.row_l1 = np.asarray(abs_A.sum(axis=1)).ravel()
        self.op_norm = float(self.row_l1.max())
        if not self.op_norm < np.inf:
            raise ValueError(f"operator norm {self.op_norm!r} is too large")
        if _dense_products(self.m, self.n, A.nnz):
            A, abs_A = A.toarray(), abs_A.toarray()
        self.A_op, self.abs_A = A, abs_A
        self.At, self.abs_At = A.T, abs_A.T

    def operator(self, z: Point) -> Point:
        return Point(self.At @ z.y + self.c, self.b - self.A_op @ z.x)


# ---------------------------------------------------------------------------
# Coupled-quadratic minimax family
# ---------------------------------------------------------------------------


@dataclass
class MinimaxProfile:
    """Blockwise Hessian operator-norm bounds and strong convexity moduli."""

    L_xx: float
    L_xy: float
    L_yy: float
    mu_x: float
    mu_y: float

    def __post_init__(self):
        if not (0 < self.mu_x < np.inf and 0 < self.mu_y < np.inf):
            raise ValueError("need mu_x > 0 and mu_y > 0, both finite")
        # lambda_minimax divides by mu_x*mu_y, which can underflow to 0
        if not (self.mu_x * self.mu_y > 0 and lambda_minimax(self) < np.inf):
            raise ValueError(f"lambda_minimax is not finite for mu_x = {self.mu_x!r}, "
                             f"mu_y = {self.mu_y!r} and coupling norm {self.L_xy!r}")


def lambda_minimax(profile: MinimaxProfile) -> float:
    """Relative Lipschitzness of the blockwise minimax operator."""
    p = profile
    return p.L_xx / p.mu_x + np.sqrt(p.L_xy**2 / (p.mu_x * p.mu_y)) + p.L_yy / p.mu_y


class MinimaxInstance:
    """Built-in test family f(x,y) = mu_x/2 |x|^2 + x^T C y - mu_y/2 |y|^2 + q^T x - r^T y.

    Quadratic coupling keeps the blockwise bounds exact: L_xy is the top
    singular value of C, and L_xx, L_yy equal the diagonal moduli.  C is stored
    F-ordered, as the reader reads it: the order decides the bits of a product.
    """

    kind = "minimax"

    def __init__(self, mu_x, mu_y, C, q, r):
        self.C = np.asfortranarray(C, dtype=float)
        n, m = self.C.shape
        self.mu_x = float(mu_x)
        self.mu_y = float(mu_y)
        self.q = np.asarray(q, dtype=float)
        self.r = np.asarray(r, dtype=float)
        if self.q.shape != (n,) or self.r.shape != (m,):
            raise ValueError(f"q and r must have {n} and {m} entries for a {n}x{m} C")
        sigma = float(np.linalg.svd(self.C, compute_uv=False)[0]) if self.C.size else 0.0
        if not sigma * sigma < np.inf:  # lambda_minimax squares it
            raise ValueError(f"coupling norm {sigma!r} is too large")
        self.profile = MinimaxProfile(self.mu_x, sigma, self.mu_y, self.mu_x, self.mu_y)

    def f(self, x, y) -> float:
        return float(
            0.5 * self.mu_x * x @ x + x @ (self.C @ y) - 0.5 * self.mu_y * y @ y
            + self.q @ x - self.r @ y
        )

    def operator(self, z: Point) -> Point:
        gx = self.mu_x * z.x + self.C @ z.y + self.q
        gy = self.mu_y * z.y - self.C.T @ z.x + self.r
        return Point(gx, gy)

    def saddle_point(self) -> Point:
        # stationarity: mu_x x + C y = -q,  -C^T x + mu_y y = -r
        n, m = self.C.shape
        K = np.block([
            [self.mu_x * np.eye(n), self.C],
            [-self.C.T, self.mu_y * np.eye(m)],
        ])
        sol = np.linalg.solve(K, np.concatenate([-self.q, -self.r]))
        return Point(sol[:n], sol[n:])


# ---------------------------------------------------------------------------
# Coordinate sampling
# ---------------------------------------------------------------------------


class AliasTable:
    """O(1) sampling from a fixed discrete distribution (Vose's method)."""

    def __init__(self, p):
        p = np.asarray(p, dtype=float)
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
            raise ValueError("probabilities must be nonnegative and sum to 1")
        d = p.size
        scaled = p * d
        self.prob = np.zeros(d)
        self.alias = np.zeros(d, dtype=np.int64)
        small = [i for i in range(d) if scaled[i] < 1.0]
        large = [i for i in range(d) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s, l = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = scaled[l] + scaled[s] - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        for i in large + small:
            self.prob[i] = 1.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` independent draws as one int64 array."""
        i = rng.integers(self.prob.size, size=size)
        return np.where(rng.random(size) < self.prob[i], i, self.alias[i])
