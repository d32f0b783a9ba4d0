"""Numerical certification of the defining inequalities.

Sampling can only falsify a constant or accumulate evidence for it, so every
report labels a pass as "no violation in N samples".  A NaN sample is a
violation: it fails the report, with ``worst`` NaN.  Reports are
deterministic under a fixed (seed, N).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import Point, TAU_NUM, vdot
from .operators import make_rng, lambda_coord
from .problems import write_manifest
from .solvers import eg_coord_accel

TAU_REL_RATIO = 1e-6  # relative slack on ratio comparisons
SIMPLEX_MARGIN = 1e-3  # keep entropy gradients finite


@dataclass
class TripleSampler:
    """Draws feasible points (with interior margin) for inequality checks."""

    domain: object  # Everywhere, Box, Simplex, or a ProductSet of them
    count: int = 1000
    seed: int = 0

    def points(self):
        rng = make_rng(self.seed)
        for _ in range(self.count):
            yield tuple(self.domain.sample(rng, SIMPLEX_MARGIN) for _ in range(3))


@dataclass
class CertificateReport:
    inequality: str
    constant: float
    n_tested: int
    worst: float            # worst ratio (or violation margin)
    witness: tuple = ()
    passed: bool = False
    n_skipped: int = 0
    details: dict = field(default_factory=dict)

    def save(self, path):
        write_manifest(path, {
            "inequality": self.inequality, "constant": float(self.constant),
            "n_tested": self.n_tested, "n_skipped": self.n_skipped,
            "worst": float(self.worst), "passed": self.passed, **self.details})
        with open(path + ".witness.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["role", "block", "values"])
            for role, pt in zip(("z", "w", "u"), self.witness):
                if isinstance(pt, Point):
                    blocks = (("x", pt.x), ("y", pt.y))
                elif isinstance(pt, tuple):  # an implicit coordinate point (x, v)
                    blocks = zip(("x", "v"), pt)
                else:
                    blocks = (("x", np.atleast_1d(pt)),)
                for block, values in blocks:
                    writer.writerow([role, block] + [repr(float(v)) for v in values])


def check_relative_lipschitzness(g, r, lam, sampler: TripleSampler) -> CertificateReport:
    """Worst sampled ratio of <g(w)-g(z), w-u> to V_z(w) + V_w(u).

    Passes when no triple exceeds lam up to relative slack.  Triples with a
    vanishing denominator are skipped unless the numerator is itself
    non-negligible, which counts as an outright violation (ratio inf).  A NaN
    ratio is a violation too; either ends the sampling with that witness.
    """
    worst = -np.inf
    witness = ()
    skipped = 0
    n = 0
    for z, w, u in sampler.points():
        n += 1
        num = vdot(g(w) - g(z), w - u)
        den = r.divergence(z, w) + r.divergence(w, u)
        if den < TAU_NUM and num <= TAU_NUM:
            skipped += 1
            continue
        ratio = num / den if not den < TAU_NUM else num * np.inf  # inf, or NaN for a NaN num
        if not ratio <= worst:  # a larger ratio, or a NaN one
            worst = ratio
            witness = (z, w, u)
            if not ratio < np.inf:
                break
    passed = worst <= lam * (1.0 + TAU_REL_RATIO) + TAU_NUM
    return CertificateReport(
        inequality="relative-lipschitzness", constant=lam, n_tested=n,
        worst=worst, witness=witness, passed=passed, n_skipped=skipped,
        details={"semantics": "no violation in N samples" if passed else "violation found"})


def check_relative_smoothness_implies(g, r, L, sampler: TripleSampler) -> CertificateReport:
    """Gradient of an L-relatively-smooth f is L-relatively Lipschitz wrt r."""
    rep = check_relative_lipschitzness(g, r, L, sampler)
    rep.inequality = "relative-smoothness-implies-relative-lipschitzness"
    return rep


def check_strong_monotonicity(g, r, m, sampler: TripleSampler) -> CertificateReport:
    """Worst sampled ratio of <g(w)-g(z), w-z> to V_w(z) + V_z(w), compared to m; a NaN
    ratio fails it and ends the sampling, even over a vanishing denominator."""
    worst = np.inf
    witness = ()
    skipped = 0
    n = 0
    for z, w, _ in sampler.points():
        n += 1
        num = vdot(g(w) - g(z), w - z)
        den = r.divergence(w, z) + r.divergence(z, w)
        if den < TAU_NUM and num == num:
            skipped += 1
            continue
        ratio = num / den if not den < TAU_NUM else np.nan
        if not ratio >= worst:  # a smaller ratio, or a NaN one
            worst = ratio
            witness = (z, w)
            if ratio != ratio:
                break
    passed = worst >= m * (1.0 - TAU_REL_RATIO) - TAU_NUM
    return CertificateReport(
        inequality="strong-monotonicity", constant=m, n_tested=n,
        worst=worst, witness=witness, passed=passed, n_skipped=skipped)


def check_regret_certificate(trace, g, r, lam, z0, u):
    """Sum of <g(w_t), w_t - u> against lam * V_{z0}(u); returns (passed, margin)."""
    lhs = 0.0
    for w in trace.iterates:
        lhs += vdot(g(w), w - u)
    rhs = lam * r.divergence(z0, u)
    T = len(trace.iterates)
    margin = rhs - lhs
    return lhs <= rhs + T * TAU_NUM, margin


# ---------------------------------------------------------------------------
# Coordinate estimator conditions, by exhaustive enumeration
# ---------------------------------------------------------------------------


def _fenchel_div(problem, z1, z2):
    """V^r for r(x, y) = mu/2 |x|^2 + f*(y) between implicit points (x, v)."""
    mu = problem.profile.mu
    (x1, v1), (x2, v2) = z1, z2
    dx = x2 - x1
    # V^{f*}_{grad f(v1)}(grad f(v2)) = V^f_{v2}(v1)
    dual = problem.f(v1) - problem.f(v2) - float(np.dot(problem.grad(v2), v1 - v2))
    return 0.5 * mu * float(np.dot(dx, dx)) + dual


def coord_step(x, v, i, g_v, g_vh, lam, mu, p_i):
    """One explicit shared-randomness coordinate step from (x, v) along i.

    g_v and g_vh are the i-th partials of f at v and at the half-point
    v_half = (1 - 1/lam) v + x/lam, which is the same for every i.  Returns
    (x_half, x_next, v_next); the inputs are not modified.  lam is taken as a
    numpy float, so a lam whose square underflows gives infinite steps.
    """
    lam = np.float64(lam)
    x_half = x.copy()
    x_half[i] -= g_v / (mu * lam * p_i)
    x_next = x.copy()
    x_next[i] -= g_vh / (mu * lam * p_i)
    v_next = (1.0 - 1.0 / lam + 1.0 / lam**2) * v + (1.0 / lam - 1.0 / lam**2) * x
    v_next[i] -= g_v / (mu * lam**2 * p_i**2)
    return x_half, x_next, v_next


def coord_iteration_outcomes(problem, x_t, v_t, lam, p):
    """All per-coordinate outcomes of one shared-randomness iteration.

    For each i returns (w_i = (x_half, v_half), z_next_i = (x_next, v_next));
    v_half is the same deterministic point for every i.
    """
    mu = problem.profile.mu
    v_half = (1.0 - 1.0 / lam) * v_t + x_t / lam
    g_v, g_vh = problem.grad(np.stack([v_t, v_half]))
    outcomes = []
    for i in range(x_t.size):
        x_half, x_next, v_next = coord_step(x_t, v_t, i, g_v[i], g_vh[i], lam, mu, p[i])
        outcomes.append(((x_half, v_half), (x_next, v_next)))
    return outcomes, v_half, g_v, g_vh


def coord_trajectory(problem, x0, steps, seed=0, p=None):
    """Explicit randomized-coordinate trajectory at lam = lambda_coord(profile),
    sampling by ``p`` (default p_i ~ sqrt(L_i)); returns the visited (x, v) states."""
    prof = problem.profile
    lam = lambda_coord(prof)
    if p is None:
        p = prof.coord_probabilities()
    mu = prof.mu
    rng = make_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    v = x.copy()
    states = [(x, v)]
    for _ in range(steps - 1):
        i = int(rng.choice(p.size, p=p))
        v_half = (1.0 - 1.0 / lam) * v + x / lam
        g_v, g_vh = problem.grad(np.stack([v, v_half]))
        _, x, v = coord_step(x, v, i, g_v[i], g_vh[i], lam, mu, p[i])
        states.append((x, v))
    return states


def coord_shadow_error(problem, x0, eps, eps0=None, seed=0):
    """Run ``eg_coord_accel`` beside an explicit copy of its iterates.

    The explicit pair (x, v) starts from each fresh implicit iterate (B = I,
    so (x, v) = (p, q)) and takes ``coord_step`` with the solver's own
    coordinate and partials after every inner step, summing its half-points
    v_half = (1 - 1/lam) v + x/lam on the way.  Returns the solver's info with
    ``shadow_err``: the worst disagreement with the reconstructed implicit
    iterate over all steps, and of the mean explicit half-point with the
    solver's restart point at every restart, relative to the max-norm of the
    explicit point (at least 1).
    """
    prof = problem.profile
    lam, mu, p = lambda_coord(prof), prof.mu, prof.coord_probabilities()
    x = v = v_sum = None
    steps = 0
    worst = 0.0

    def disagreement(implicit, explicit):
        scale = max([1.0] + [float(np.max(np.abs(e))) for e in explicit])
        return max(float(np.max(np.abs(a - e))) for a, e in zip(implicit, explicit)) / scale

    def shadow(i, g_v, g_vh, state):
        nonlocal x, v, v_sum, steps, worst
        if i is None:
            if steps:
                worst = max(worst, disagreement((state.p,), (v_sum / steps,)))
            x, v = state.p.copy(), state.q.copy()
            v_sum, steps = np.zeros_like(x), 0
            return
        v_sum += (1.0 - 1.0 / lam) * v + x / lam
        steps += 1
        _, x, v = coord_step(x, v, i, g_v, g_vh, lam, mu, p[i])
        worst = max(worst, disagreement(state.reconstruct(), (x, v)))

    _, info = eg_coord_accel(problem, x0, eps, eps0=eps0, seed=seed, callback=shadow)
    info["shadow_err"] = worst
    return info


def check_estimator_conditions(problem, states, u, lam=None, p=None) -> CertificateReport:
    """Verify both randomized-operator conditions exactly at recorded iterates.

    ``states`` is a sequence of (x_t, v_t) pairs; ``u`` an (x, v) comparator.
    Enumerates every coordinate outcome (d <= 16; exactness is the point, so
    larger d is refused):

    * the expectation over i of <g_i(w^(i)), w^(i) - u> equals the regret of
      the merged point (x_t + sum_i delta_i, grad f(v_half)), and
    * the expected relative Lipschitzness inequality at
      lam = 1 + sum_i sqrt(L_i) / sqrt(mu) with p_i ~ sqrt(L_i).
    """
    states = list(states)
    prof = problem.profile
    d = prof.L_i.size
    if d > 16:
        raise ValueError("exhaustive enumeration limited to d <= 16")
    if p is None:
        p = prof.coord_probabilities()
    if lam is None:
        lam = lambda_coord(prof)
    ux, uv = u
    gf_u = problem.grad(uv)
    worst_identity = 0.0
    worst_ineq = -np.inf
    witness = ()
    for x_t, v_t in states:
        outcomes, v_half, g_v, gf_vh = coord_iteration_outcomes(problem, x_t, v_t, lam, p)
        # condition 1: expectation identity against the merged point
        lhs = 0.0
        x_bar = x_t.copy()
        for i, ((x_half, _), _) in enumerate(outcomes):
            delta = x_half - x_t
            x_bar += delta
            shifted = x_t + delta / p[i]
            est_x = gf_vh[i] / p[i] * (x_half[i] - ux[i])
            est_y = float(np.dot(v_half - shifted, gf_vh - gf_u))
            lhs += p[i] * (est_x + est_y)
        rhs = float(np.dot(gf_vh, x_bar - ux)) + float(np.dot(v_half - x_bar, gf_vh - gf_u))
        worst_identity = np.maximum(worst_identity, abs(lhs - rhs))  # a NaN stays
        # condition 2: expected relative Lipschitzness of the estimator pair
        num = 0.0
        den = 0.0
        for i, (w_i, z_next_i) in enumerate(outcomes):
            (x_half, _), (x_next, v_next) = w_i, z_next_i
            gf_vn = problem.grad(v_next)
            # <g_i(w) - g_i(z), w - z_next> expanded blockwise
            term_x = (gf_vh[i] - g_v[i]) / p[i] * (x_half[i] - x_next[i])
            delta = x_half[i] - x_t[i]
            shifted_i = x_t.copy()
            shifted_i[i] += delta / p[i]
            wy_minus_zy = gf_vh - gf_vn  # y-blocks are grad f at v points
            gy_w = v_half - shifted_i
            gy_z = v_t - x_t
            term_y = float(np.dot(gy_w - gy_z, wy_minus_zy))
            num += p[i] * (term_x + term_y)
            den += p[i] * (_fenchel_div(problem, (x_t, v_t), w_i)
                           + _fenchel_div(problem, w_i, (x_next, v_next)))
        ratio = num / den if not den <= 0 else -np.inf  # a NaN den gives a NaN ratio
        if not ratio <= worst_ineq and worst_ineq == worst_ineq:  # a NaN ratio stays worst
            worst_ineq = ratio
            witness = ((x_t, v_t),)
    passed = worst_identity < 1e-10 and worst_ineq <= lam * (1.0 + TAU_REL_RATIO) + TAU_NUM
    return CertificateReport(
        inequality="coordinate-estimator-conditions", constant=lam,
        n_tested=len(states), worst=worst_ineq, witness=witness, passed=passed,
        details={"worst_identity_error": worst_identity})
