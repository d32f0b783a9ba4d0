"""Box-simplex bilinear games end to end.

Preprocessing, the coupled box-entropy regularizer with its alternating
minimization prox, mirror prox with backtracking lam capped at 3 that
restarts from the better of its average and its last iterate whenever the
duality gap halves, the duality-gap oracle, and the reduction from
box-constrained ell_inf regression.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import Point
from .operators import BoxSimplexInstance
from .solvers import NonFiniteIterateError, ceil_count

LAMBDA_BOX_SIMPLEX = 3.0  # the cap on lam: a step at 3 passes the local test
LAMBDA_SHRINK = 0.8  # lam <- 0.8 lam after an accepted step
LAMBDA_GROW = 2.0    # lam <- min(2 lam, cap) after a rejected try
RESTART_FACTOR = 0.5  # restart once the average or z' has halved the epoch start's gap
ENTROPY_SCALE_FACTOR = 10.0

Y_FLOOR = 1e-300  # multiplicative updates cannot hit exact zero, underflow can
PROX_MAX_ROUNDS = 32  # hard cap on the rounds of one prox call


class ZTerms(NamedTuple):
    """The parts of a prox at z that do not depend on g, with r(z).

    They also give grad r(z) without a product with |A|.
    """

    zy: np.ndarray       # max(z_y, Y_FLOOR)
    atz_y: np.ndarray    # |A|^T zy
    az_x2: np.ndarray    # |A| z_x^2
    log_zy: np.ndarray   # log zy
    grad_zx: np.ndarray  # 2 (|A|^T zy) z_x, the x block of grad r(z)
    r_z: float           # r(z) = z_y^T az_x2 + alpha z_y^T log_zy


class ShermanRegularizer:
    """r(x, y) = y^T |A| (x^2) + 10 ||A|| sum_i y_i log y_i over [-1,1]^n x simplex.

    It keeps ``inst``, ``alpha`` and ``last_rounds``, and nothing else:
    ``prox`` takes its tolerance, returns what it measured and works on fresh
    arrays.  ``last_rounds`` is the latest prox's round count, which
    ``perfbench/tracing.py`` counts.
    """

    def __init__(self, inst: BoxSimplexInstance):
        self.inst = inst
        self.alpha = ENTROPY_SCALE_FACTOR * inst.op_norm
        self.last_rounds = 0

    def grad(self, p: Point):
        return self._grad(self.z_terms(p))

    def divergence(self, a: Point, b: Point):
        return self._divergence(a, b, self.z_terms(a), self.z_terms(b))

    def _grad(self, t: ZTerms) -> Point:
        """grad r(p) of the point p with z-terms ``t``."""
        return Point(t.grad_zx, t.az_x2 + self.alpha * (1.0 + t.log_zy))

    def _divergence(self, a: Point, b: Point, ta: ZTerms, tb: ZTerms):
        """The divergence from a to b, given z_terms(a) and z_terms(b)."""
        return tb.r_z - ta.r_z - self._grad(ta).dot(b - a)

    def _max_divergence(self, z: Point, t: ZTerms) -> float:
        """D(z) = max_u V_z(u) over box x simplex, given z_terms(z).

        r is convex, since alpha = 10 ||A|| >= 10 ||A_i||_1, so V_z is too and
        its maximum is at a vertex (s, e_i) with s in {-1, 1}^n, where r = ||A_i||_1:
            D(z) = max_i (||A_i||_1 - d_{y_i} r(z)) + ||grad_x r(z)||_1 - r(z) + <grad r(z), z>.
        """
        g = self._grad(t)
        return (float(np.max(self.inst.row_l1 - g.y)) + float(np.abs(g.x).sum())
                - t.r_z + g.dot(z))

    def z_terms(self, z: Point) -> ZTerms:
        inst = self.inst
        zy = np.maximum(z.y, Y_FLOOR)
        atz_y = inst.abs_At @ zy
        az_x2, log_zy = inst.abs_A @ (z.x**2), np.log(zy)
        return ZTerms(zy, atz_y, az_x2, log_zy, 2.0 * atz_y * z.x,
                      float(z.y @ az_x2) + self.alpha * float(z.y @ log_zy))

    def prox(self, z: Point, g: Point, zt: ZTerms, tol: float):
        """argmin_u <g, u> + V_z(u) over [-1,1]^n x simplex by alternating exact
        block minimization, until the output's optimality gap is at most ``tol``.

        Returns (w, terms, gap, gamma_inf): the output, its z-terms (equal to
        ``z_terms(w)``), its optimality gap delta(w), above ``tol`` if the rounds
        ran out, and the largest sup-norm of the rounds' entropic linear terms.

        For an output w let h = g + grad r(w) - grad r(z), the gradient of the
        subproblem at w.  The subproblem is convex, so its suboptimality at w
        is at most the linear-minimization gap over box x simplex
            delta(w) = <h, w> + ||h_x||_1 - min_i h_{y,i},
        with h_x = g_x - grad_zx + 2 (|A|^T w_y) w_x and
        h_y = gamma + alpha (log max(w_y, floor) - log zy).  |A|^T w_y is also
        the next round's curvature, so the test costs one product per call.
        ``zt`` is ``z_terms(z)``, which the calls from one z share; the last
        round's products of its own output make the returned terms.

        Each round's x is -lin_x / (2 a) clipped to the box, with a = |A|^T y
        the curvature.  Where a = 0 that is -sign(lin_x); any positive a, however
        small, gives the clipped quotient, and a NaN a gives x = 0.
        """
        inst = self.inst
        alpha = self.alpha
        lin_x = g.x - zt.grad_zx
        neg_lin_x = -lin_x
        a_coef = zt.atz_y  # round 1 starts from y = zy
        gamma_max = 0.0
        for r in range(PROX_MAX_ROUNDS):
            rounds = r + 1
            with np.errstate(divide="ignore", invalid="ignore"):
                x = neg_lin_x / (2.0 * a_coef)
            # a column without curvature gives +-inf, clipped to -sign(lin_x), or 0/0, set to 0
            np.clip(x, -1.0, 1.0, out=x)
            if np.isnan(x).any():
                x[np.isnan(x)] = 0.0
            ax2 = inst.abs_A @ (x**2)
            gamma = g.y + ax2 - zt.az_x2
            gamma_max = max(gamma_max, float(np.abs(gamma).max()))
            logw = zt.log_zy - gamma / alpha
            logw -= logw.max()
            y = np.exp(logw)
            y /= y.sum()
            wy = np.maximum(y, Y_FLOOR)
            a_coef = inst.abs_At @ wy
            grad_wx = 2.0 * a_coef * x
            h_x = lin_x + grad_wx
            log_wy = np.log(wy)
            h_y = (log_wy - zt.log_zy) * alpha + gamma
            gap = (float(h_x @ x) + float(np.abs(h_x).sum())
                   + float(h_y @ y) - float(h_y.min()))
            if gap <= tol:
                break
        self.last_rounds = rounds
        terms = ZTerms(wy, a_coef, ax2, log_wy, grad_wx,
                       float(y @ ax2) + alpha * float(y @ log_wy))
        return Point(x, y), terms, gap, gamma_max


# ---------------------------------------------------------------------------
# Preprocessing and the regression reduction
# ---------------------------------------------------------------------------


class PreprocessedInstance(BoxSimplexInstance):
    """The rows ``kept_rows`` of a game, with b lowered by ``shift``."""

    def __init__(self, inst: BoxSimplexInstance, keep: np.ndarray, shift: float):
        super().__init__(inst.A[keep], inst.b[keep] - shift, inst.c)
        self.kept_rows = keep
        self.shift = shift


def preprocess(inst: BoxSimplexInstance) -> PreprocessedInstance:
    """Drop dominated rows and shift b so its minimum is 0.

    Rows with b_i >= min b + 2 ||A|| never hold the best simplex response
    (rows at min b stay, also when ||A|| = 0), so removing them (and
    shifting, which is value-neutral on the simplex) leaves the game value
    unchanged while placing b in [0, 2 ||A||].
    """
    shift = float(inst.b.min())
    keep = np.flatnonzero((inst.b < shift + 2.0 * inst.op_norm) | (inst.b == shift))
    return PreprocessedInstance(inst, keep, shift)


def linf_regression_reduction(A, b) -> PreprocessedInstance:
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


def _gap_from_operator(inst: BoxSimplexInstance, x, y, g: Point) -> float:
    """The duality gap at (x, y) given g = operator((x, y)) = (A^T y + c, b - A x).

    max_{y'} f(x, y') = max(A x - b) + c^T x = -min(g_y) + c^T x, with
    fl(b - A x) = -fl(A x - b) entry by entry, and min_{x'} f(x', y) =
    -||g_x||_1 - b^T y.
    """
    best_y = -float(g.y.min()) + float(inst.c @ x)
    best_x = -float(np.abs(g.x).sum()) - float(inst.b @ y)
    return best_y - best_x


def duality_gap(inst: BoxSimplexInstance, x, y) -> float:
    """max_{y'} f(x, y') - min_{x'} f(x', y), both best responses in closed form."""
    return _gap_from_operator(inst, x, y, inst.operator(Point(x, y)))


# ---------------------------------------------------------------------------
# Mirror prox with backtracking lam
# ---------------------------------------------------------------------------


def iteration_budget(inst: BoxSimplexInstance, eps: float) -> int:
    """Budget 50 ||A|| log m / eps; the constant absorbs prox inexactness.

    It counts accepted steps, and holds for every lam schedule capped at 3.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return ceil_count(50.0 * inst.op_norm * np.log(max(inst.m, 2)) / eps, eps, "iteration budget")


class BoxSimplexTrace(NamedTuple):
    """The record of one ``solve_box_simplex`` run."""

    gaps: list     # the running-sum gap of the average after each accepted step
    lams: list     # the lam of each accepted step
    margins: list  # a certified run's lhs - rhs of the try at lam = 3, per accepted step
    summary: dict


class _Try(NamedTuple):
    """One mirror prox try from z at lam and what the local test reads of it."""

    w: Point
    gw: Point            # g(w)
    z_next: Point
    terms_next: ZTerms   # z_terms(z_next), from the prox that made it
    delta: float         # the optimality gaps of its two prox calls
    margin: float        # <g(w) - g(z), w - z'> - lam (V_z(w) + V_w(z'))
    ratio_lo: float      # the least ratio w_y / z_y or z'_y / z_y
    ratio_hi: float      # the largest one
    gamma_inf: float     # sup-norm of the entropic subproblems' linear terms
    stalls: int          # how many of its two prox calls stopped above their tol

    @property
    def stable(self) -> bool:
        return 0.5 <= self.ratio_lo and self.ratio_hi <= 2.0


def _mirror_prox_try(reg: ShermanRegularizer, z: Point, gz: Point, zt: ZTerms,
                     lam: float, eps: float) -> _Try:
    """w = Prox_z(g(z)/lam) and z' = Prox_z(g(w)/lam), given g(z) and z_terms(z).

    Each prox stops at gap eps / (8 lam), but no tighter than 1e-10
    max(||A||, 1).  The prox outputs' own z-terms give r and grad r at w and
    z', so the test costs no product."""
    tol = max(1e-10 * max(reg.inst.op_norm, 1.0), eps / (8.0 * lam))
    w, tw, delta_w, gamma_w = reg.prox(z, (1.0 / lam) * gz, zt, tol)
    gw = reg.inst.operator(w)
    z_next, tn, delta_next, gamma_next = reg.prox(z, (1.0 / lam) * gw, zt, tol)
    ratio_w, ratio_next = w.y / zt.zy, z_next.y / zt.zy
    lhs = (gw - gz).dot(w - z_next)
    rhs = lam * (reg._divergence(z, w, zt, tw) + reg._divergence(w, z_next, tw, tn))
    return _Try(w, gw, z_next, tn, delta_w + delta_next, lhs - rhs,
                min(float(ratio_w.min()), float(ratio_next.min())),
                max(float(ratio_w.max()), float(ratio_next.max())),
                max(gamma_w, gamma_next), (not delta_w <= tol) + (not delta_next <= tol))


def solve_box_simplex(inst: BoxSimplexInstance, eps: float,
                      max_iters: int | None = None,
                      certify: bool = False):
    """Mirror prox in the coupled regularizer from z0 = (0, uniform), with
    backtracking lam capped at 3, in epochs that restart from the better of
    their average and their last iterate.

    A try at lam from z computes w = Prox_z(g(z)/lam), z' = Prox_z(g(w)/lam)
    and passes the local test when the local relative-Lipschitz inequality
        <g(w) - g(z), w - z'> <= lam (V_z(w) + V_w(z')) + 1e-8 max(1, ||A||)
    holds and every ratio w_y / z_y and z'_y / z_y lies in [0.5, 2].  The
    first try is at lam = 3; lam shrinks by 0.8 after an accepted step and
    doubles, up to 3, after a failed try, which is redone from the same z.
    A try at lam = 3 is always accepted.

    An epoch starts at a point z_r, the first at z0, and averages its own
    accepted w_t weighted by 1/lam_t.  The gap of that average is read from
    the same weighted sums of g(w_t), with no product, after each accepted
    step; where it meets eps, ``duality_gap`` confirms it, and a confirmed
    average ends the run.  Otherwise the step queries g(z'), which the next
    step needs as its g(z), reads the exact gap of z' from it, and ends the
    run if that meets eps.  Once the smaller of the two gaps is at most half
    the gap of z_r, the next epoch starts at that point (the average on a
    tie), with its sums zeroed and lam carried on; a start at the average
    queries g there.  A game is a linear program, so its gap grows linearly
    with the distance to the solutions, and halving epochs give a linear
    rate.  The summary's ``queries`` counts the operator calls, those of
    ``duality_gap`` included.

    Returns (x, y, gap, trace), with gap the exact duality gap of (x, y), and
    the summary's ``answer`` "last" for a z' and "average" for an average:
    the one of least running-sum gap over all epochs when the budget runs
    out, z0 for a zero budget.  ``trace.gaps`` and ``trace.lams`` hold the
    running-sum gap of the average and the lam of each accepted step, and
    the summary's ``restarts`` the number of epochs after the first.
    ``gap_bound_ok`` tells whether every such gap stayed within the bound
        (D(z_r) + sum delta + sum_t max(0, lhs_t - rhs_t) / lam_t) / sum_t 1/lam_t
    that the accepted steps of its epoch prove, with sums over the epoch,
    delta the prox gaps (below) and D(z_r) = max_u V_{z_r}(u), which is
    ||A|| (1 + 10 log m) at z0.

    ``certify`` checks the paper's claim that a step at lam = 3 passes the
    local test from every point: from each accepted step's z it also makes
    the try at lam = 3 (the accepted one itself when lam_t = 3) and records
    in the summary whether stability (``stability_ok``, with the extreme
    ratios ``stability_lo`` and ``stability_hi``) and local relative
    Lipschitzness (``local_rl_ok``) held in all of them, the largest sup-norm
    of their entropic subproblems' linear term (``gamma_inf_max``), and in
    ``trace.margins`` each one's lhs - rhs.  Certifying never changes the
    iterates.

    Each prox call of a try at lam stops at gap eps / (8 lam), but no tighter
    than 1e-10 max(||A||, 1).  The calls of an epoch's accepted steps
    then add at most eps / 4 to its gap bound; the sum of their gaps over
    all epochs is ``trace.summary["prox_gap_sum"]``.  ``prox_stalls`` counts
    the calls of every try, certifying ones included, that ran out of rounds
    above that tolerance.  A run out of budget returns gap > eps, and a
    non-finite gap of z0 or of an average raises ``NonFiniteIterateError``.
    """
    cap = LAMBDA_BOX_SIMPLEX
    reg = ShermanRegularizer(inst)
    budget = iteration_budget(inst, eps) if max_iters is None else max_iters
    tol_rl = 1e-8 * max(1.0, inst.op_norm)
    z = Point(np.zeros(inst.n), np.full(inst.m, 1.0 / inst.m))
    z0 = z
    zt = reg.z_terms(z)  # afterwards each z's terms come from the prox that made it
    d_start = reg._max_divergence(z, zt)  # ||A|| (1 + 10 log m) at z0
    gap_start = duality_gap(inst, z.x, z.y)
    if not math.isfinite(gap_start):
        raise NonFiniteIterateError(f"non-finite duality gap {gap_start!r} at z0")
    gz = None  # g(z), queried when a step needs it
    x_acc, gx_acc = np.zeros(inst.n), np.zeros(inst.n)
    y_acc, gy_acc = np.zeros(inst.m), np.zeros(inst.m)
    weight = 0.0
    trace = BoxSimplexTrace([], [], [], {})
    s = trace.summary
    s["gap_bound_ok"] = True
    if certify:
        s.update(stability_ok=True, local_rl_ok=True, gamma_inf_max=0.0,
                 stability_lo=1.0, stability_hi=1.0)
    best, answer = None, (z0.x, z0.y, gap_start, "average")  # z0 answers a zero budget
    lam = cap
    t = retries = restarts = prox_stalls = 0
    queries = 1  # the gap of z0
    prox_gap_sum = epoch_delta = excess = 0.0
    while t < budget:
        if gz is None:  # z0, or an epoch average restarted from
            gz = inst.operator(z)
            queries += 1
        while True:  # tries from z until one passes the local test or lam = cap
            step = _mirror_prox_try(reg, z, gz, zt, lam, eps)
            queries += 1
            prox_stalls += step.stalls
            if lam >= cap or (step.stable and step.margin <= tol_rl):
                break
            lam = min(LAMBDA_GROW * lam, cap)
            retries += 1
        if certify:
            at_cap = step
            if lam < cap:
                at_cap = _mirror_prox_try(reg, z, gz, zt, cap, eps)
                queries += 1
                prox_stalls += at_cap.stalls
            s["stability_ok"] = s["stability_ok"] and at_cap.stable
            s["local_rl_ok"] = s["local_rl_ok"] and at_cap.margin <= tol_rl
            s["stability_lo"] = min(s["stability_lo"], at_cap.ratio_lo)
            s["stability_hi"] = max(s["stability_hi"], at_cap.ratio_hi)
            s["gamma_inf_max"] = max(s["gamma_inf_max"], at_cap.gamma_inf)
            trace.margins.append(at_cap.margin)
        prox_gap_sum += step.delta
        epoch_delta += step.delta
        excess += max(0.0, step.margin) / lam
        x_acc += step.w.x / lam
        y_acc += step.w.y / lam
        gx_acc += step.gw.x / lam
        gy_acc += step.gw.y / lam
        weight += 1.0 / lam
        t += 1
        trace.lams.append(lam)
        xb, yb = x_acc / weight, y_acc / weight
        # the sums of g(w_t) give the average's operator output without a product
        gap = _gap_from_operator(inst, xb, yb, Point(gx_acc / weight, gy_acc / weight))
        if not math.isfinite(gap):
            raise NonFiniteIterateError(f"non-finite duality gap {gap!r} at t={t}")
        trace.gaps.append(gap)
        if not gap <= (d_start + epoch_delta + excess) / weight:
            s["gap_bound_ok"] = False
        if best is None or gap < best[2]:
            best = (xb, yb, gap)
        if gap <= eps:  # confirmed by the exact gap, or the run goes on
            queries += 1
            exact = duality_gap(inst, xb, yb)
            if exact <= eps:
                answer = (xb, yb, exact, "average")
                break
        if t == budget:  # the best average answers, at its exact gap
            queries += 1
            answer = (best[0], best[1], duality_gap(inst, best[0], best[1]), "average")
            break
        # g(z') is the next step's g(z), and with it z' has an exact gap for free
        z, zt = step.z_next, step.terms_next
        gz = inst.operator(z)
        queries += 1
        gap_z = _gap_from_operator(inst, z.x, z.y, gz)
        if gap_z <= eps:
            answer = (z.x, z.y, gap_z, "last")
            break
        from_z = gap_z < gap  # ties go to the average
        gap_r = gap_z if from_z else gap
        if gap_r <= RESTART_FACTOR * gap_start:  # restart, lam carried on
            if not from_z:
                z = Point(xb, yb)
                zt = reg.z_terms(z)
                gz = None
            d_start = reg._max_divergence(z, zt)
            gap_start = gap_r
            for acc in (x_acc, y_acc, gx_acc, gy_acc):
                acc[:] = 0.0
            weight = epoch_delta = excess = 0.0
            restarts += 1
        lam *= LAMBDA_SHRINK
    xb, yb, gap, s["answer"] = answer
    s.update({"algorithm": "box-simplex", "iterations": t, "retries": retries,
              "restarts": restarts, "lam_min": min(trace.lams, default=cap), "lam_max": cap,
              "gap": gap, "budget": budget, "prox_gap_sum": prox_gap_sum,
              "prox_stalls": prox_stalls, "queries": queries})
    return xb, yb, gap, trace
