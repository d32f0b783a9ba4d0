"""Box-simplex bilinear games end to end.

Preprocessing, the coupled box-entropy regularizer with its alternating
minimization prox, mirror prox at lam = 3, the duality-gap oracle, and the
reduction from box-constrained ell_inf regression.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .core import Point
from .operators import BoxSimplexInstance
from .solvers import SolverTrace

LAMBDA_BOX_SIMPLEX = 3.0
ENTROPY_SCALE_FACTOR = 10.0

Y_FLOOR = 1e-300  # multiplicative updates cannot hit exact zero, underflow can
PROX_MAX_ROUNDS = 32  # hard cap on the rounds of one prox call


class ZTerms(NamedTuple):
    """The parts of a prox at z that do not depend on g."""

    zy: np.ndarray       # max(z_y, Y_FLOOR)
    atz_y: np.ndarray    # |A|^T zy
    az_x2: np.ndarray    # |A| z_x^2
    log_zy: np.ndarray   # log zy
    grad_zx: np.ndarray  # 2 (|A|^T zy) z_x, the x block of grad r(z)


class ShermanRegularizer:
    """r(x, y) = y^T |A| (x^2) + 10 ||A|| sum_i y_i log y_i over [-1,1]^n x simplex.

    ``prox`` stops once its output's optimality gap is at most ``tol``, by
    default 1e-10 max(||A||, 1).
    """

    def __init__(self, inst: BoxSimplexInstance, tol: float | None = None):
        self.inst = inst
        self.alpha = ENTROPY_SCALE_FACTOR * inst.op_norm
        self.tol = 1e-10 * max(inst.op_norm, 1.0) if tol is None else tol
        self.last_rounds = 0
        self.last_gap = 0.0
        self.last_gamma_inf = 0.0
        # per-round scratch for the y block; outputs are always fresh arrays
        self._gamma = np.empty(inst.m)
        self._logw = np.empty(inst.m)
        self._h_y = np.empty(inst.m)

    def value(self, p: Point):
        y = np.maximum(p.y, Y_FLOOR)
        ent = float(np.sum(np.where(p.y > 0, y * np.log(y), 0.0)))
        return float(p.y @ (self.inst.abs_A @ (p.x**2))) + self.alpha * ent

    def grad(self, p: Point):
        y = np.maximum(p.y, Y_FLOOR)
        gx = 2.0 * (self.inst.abs_At @ p.y) * p.x
        gy = self.inst.abs_A @ (p.x**2) + self.alpha * (1.0 + np.log(y))
        return Point(gx, gy)

    def divergence(self, a: Point, b: Point):
        return self._divergence(a, b, self.value(a), self.value(b))

    def _divergence(self, a: Point, b: Point, value_a: float, value_b: float):
        """The divergence from a to b, given r(a) and r(b)."""
        return value_b - value_a - self.grad(a).dot(b - a)

    def z_terms(self, z: Point) -> ZTerms:
        inst = self.inst
        zy = np.maximum(z.y, Y_FLOOR)
        atz_y = inst.abs_At @ zy
        return ZTerms(zy, atz_y, inst.abs_A @ (z.x**2), np.log(zy), 2.0 * atz_y * z.x)

    def prox(self, z: Point, g: Point, zt: ZTerms | None = None):
        """argmin_u <g, u> + V_z(u) over [-1,1]^n x simplex by alternating exact
        block minimization, until the output's optimality gap is at most tol.

        For an output w let h = g + grad r(w) - grad r(z), the gradient of the
        subproblem at w.  The subproblem is convex, so its suboptimality at w
        is at most the linear-minimization gap over box x simplex
            delta(w) = <h, w> + ||h_x||_1 - min_i h_{y,i},
        with h_x = g_x - grad_zx + 2 (|A|^T w_y) w_x and
        h_y = gamma + alpha (log max(w_y, floor) - log zy).  |A|^T w_y is also
        the next round's curvature, so the test costs one product per call.
        ``zt`` passes ``z_terms(z)`` in when several calls share z.
        """
        inst = self.inst
        alpha = self.alpha
        tol = self.tol
        if zt is None:
            zt = self.z_terms(z)
        lin_x = g.x - zt.grad_zx
        neg_lin_x = -lin_x
        gamma, logw, h_y = self._gamma, self._logw, self._h_y
        a_coef = zt.atz_y  # round 1 starts from y = zy
        gamma_max = 0.0
        for r in range(PROX_MAX_ROUNDS):
            rounds = r + 1
            with np.errstate(divide="ignore", invalid="ignore"):
                x = neg_lin_x / (2.0 * a_coef)
            flat = ~(a_coef > 1e-300)  # no curvature (NaN included): go to the edge
            if flat.any():
                x[flat] = -np.sign(lin_x[flat])
            np.clip(x, -1.0, 1.0, out=x)  # also maps +-inf to +-1
            if np.isnan(x).any():
                x[np.isnan(x)] = 0.0
            np.add(g.y, inst.abs_A @ (x**2), out=gamma)
            gamma -= zt.az_x2
            gamma_max = max(gamma_max, float(np.abs(gamma).max()))
            np.divide(gamma, alpha, out=logw)
            np.subtract(zt.log_zy, logw, out=logw)
            logw -= logw.max()
            y = np.exp(logw)
            y /= y.sum()
            a_coef = inst.abs_At @ y
            h_x = lin_x + 2.0 * a_coef * x
            np.maximum(y, Y_FLOOR, out=h_y)
            np.log(h_y, out=h_y)
            h_y -= zt.log_zy
            h_y *= alpha
            h_y += gamma
            gap = (float(h_x @ x) + float(np.abs(h_x).sum())
                   + float(h_y @ y) - float(h_y.min()))
            if gap <= tol:
                break
        self.last_rounds = rounds
        self.last_gap = gap
        self.last_gamma_inf = gamma_max
        if not gap <= tol:
            warnings.warn(
                f"alternating prox stopped at gap {gap:.3e} "
                f"after {rounds} rounds (tol {tol:.3e})", RuntimeWarning)
        return Point(x, y)


# ---------------------------------------------------------------------------
# Preprocessing and the regression reduction
# ---------------------------------------------------------------------------


def preprocess(inst: BoxSimplexInstance) -> BoxSimplexInstance:
    """Drop dominated rows and shift b so its minimum is 0.

    Rows with b_i >= min b + 2 ||A|| never hold the best simplex response, so
    removing them (and shifting, which is value-neutral on the simplex)
    leaves the game value unchanged while placing b in [0, 2 ||A||].
    """
    b = inst.b
    shift = float(b.min()) if b.size else 0.0
    keep = np.flatnonzero(b < shift + 2.0 * inst.op_norm)
    out = BoxSimplexInstance(inst.A[keep], b[keep] - shift, inst.c)
    out.shift = shift
    out.kept_rows = keep
    return out


def linf_regression_reduction(A, b) -> BoxSimplexInstance:
    """Box-simplex game whose value is min_{x in [-1,1]^n} ||Ax - b||_inf.

    Stacks A, b with negated copies; c = 0.  The instance carries the
    preprocessing shift applied afterwards (attribute ``shift``) so game
    values can be mapped back.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    stacked = BoxSimplexInstance(
        np.vstack([A, -A]), np.concatenate([b, -b]), np.zeros(A.shape[1]))
    return preprocess(stacked)


def duality_gap(inst: BoxSimplexInstance, x, y) -> float:
    """max_{y'} f(x, y') - min_{x'} f(x', y), both best responses in closed form."""
    best_y = float(np.max(inst.A @ x - inst.b)) + float(inst.c @ x)
    aty_c = inst.At @ y + inst.c
    best_x = -float(np.abs(aty_c).sum()) - float(inst.b @ y)
    return best_y - best_x


# ---------------------------------------------------------------------------
# The lam = 3 mirror prox solve
# ---------------------------------------------------------------------------


def iteration_budget(inst: BoxSimplexInstance, eps: float) -> int:
    """Budget 50 ||A|| log m / eps; the constant absorbs prox inexactness."""
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return int(np.ceil(50.0 * inst.op_norm * np.log(max(inst.m, 2)) / eps))


def solve_box_simplex(inst: BoxSimplexInstance, eps: float,
                      max_iters: int | None = None,
                      certify: bool = False):
    """Mirror prox with lam = 3 in the coupled regularizer from z0 = (0, uniform).

    Returns (x, y, gap, trace) for the averaged iterate.  With ``certify`` the
    trace records, per iteration: the worst entrywise ratio of successive
    simplex iterates (multiplicative stability), the local relative
    Lipschitzness margin at lam = 3, and the sup-norm of the entropic
    subproblem's linear term.

    Each prox call stops at gap eps / (8 lam), but no tighter than a prox
    called on its own.  The two calls of an iteration then add at most eps / 4
    to the averaged gap bound; the sum of the gaps is
    ``trace.summary["prox_gap_sum"]``.
    """
    lam = LAMBDA_BOX_SIMPLEX
    reg = ShermanRegularizer(inst, max(1e-10 * max(inst.op_norm, 1.0), eps / (8.0 * lam)))
    budget = iteration_budget(inst, eps) if max_iters is None else max_iters
    tol_rl = 1e-8 * max(1.0, inst.op_norm)
    z = Point(np.zeros(inst.n), np.full(inst.m, 1.0 / inst.m))
    z0 = z
    x_acc = np.zeros(inst.n)
    y_acc = np.zeros(inst.m)
    trace = SolverTrace()
    trace.summary["stability_ok"] = True
    trace.summary["local_rl_ok"] = True
    trace.summary["gamma_inf_max"] = 0.0
    trace.summary["stability_lo"] = 1.0
    trace.summary["stability_hi"] = 1.0
    best = None
    t = 0
    prox_gap_sum = 0.0
    if certify:
        value_z = reg.value(z)  # r(z_next) of one iteration is r(z) of the next
    while t < budget:
        zt = reg.z_terms(z)  # both prox calls start from z
        gz = inst.operator(z)
        w = reg.prox(z, (1.0 / lam) * gz, zt)
        gamma_inf = reg.last_gamma_inf
        prox_gap_sum += reg.last_gap
        gw = inst.operator(w)
        z_next = reg.prox(z, (1.0 / lam) * gw, zt)
        gamma_inf = max(gamma_inf, reg.last_gamma_inf)
        prox_gap_sum += reg.last_gap
        if certify:
            base = zt.zy
            ratio_hi = max(float(np.max(w.y / base)), float(np.max(z_next.y / base)))
            ratio_lo = min(float(np.min(w.y / base)), float(np.min(z_next.y / base)))
            trace.summary["stability_lo"] = min(trace.summary["stability_lo"], ratio_lo)
            trace.summary["stability_hi"] = max(trace.summary["stability_hi"], ratio_hi)
            if ratio_hi > 2.0 or ratio_lo < 0.5:
                trace.summary["stability_ok"] = False
            lhs = (gw - gz).dot(w - z_next)
            value_w, value_next = reg.value(w), reg.value(z_next)
            rhs = lam * (reg._divergence(z, w, value_z, value_w)
                         + reg._divergence(w, z_next, value_w, value_next))
            value_z = value_next
            if lhs > rhs + tol_rl:
                trace.summary["local_rl_ok"] = False
            trace.regrets.append(lhs - rhs)
            trace.summary["gamma_inf_max"] = max(trace.summary["gamma_inf_max"], gamma_inf)
        x_acc += w.x
        y_acc += w.y
        t += 1
        xb, yb = x_acc / t, y_acc / t
        gap = duality_gap(inst, xb, yb)
        trace.gaps.append(gap)
        if best is None or gap < best[2]:
            best = (xb, yb, gap)
        if gap <= eps:
            break
        z = z_next
    else:
        if best is None:  # a zero budget answers with z0 itself
            best = (z0.x, z0.y, duality_gap(inst, z0.x, z0.y))
        if not best[2] <= eps:  # only z0 can already meet eps here; NaN gaps warn
            warnings.warn(
                f"box-simplex budget of {budget} iterations exhausted; "
                f"best gap {best[2]:.3e} > eps {eps:.3e}", RuntimeWarning)
    xb, yb, gap = best
    trace.summary.update({"algorithm": "box-simplex", "iterations": t, "lam": lam,
                          "gap": gap, "budget": budget, "prox_gap_sum": prox_gap_sum})
    return xb, yb, gap, trace
