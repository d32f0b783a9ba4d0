"""Numerical certification of the defining inequalities.

Sampling can only falsify a constant or accumulate evidence for it, so every
sampled report labels a pass "no violation in N samples".  Those certificates
judge any iterable of point triples, such as ``sample_triples`` draws.  One scan,
``_worst_ratio``, decides every ratio certificate under one noise rule.
Reports are deterministic under a fixed (seed, N).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import Point
from .operators import make_rng, lambda_coord
from .problems import write_manifest
from .solvers import eg_coord_accel

TAU_NUM = 1e-9  # absolute slack on ratio comparisons and identities
TAU_REL_RATIO = 1e-6  # relative slack on ratio comparisons
NOISE = 16 * np.finfo(float).eps  # rounding of a sum, per unit of the |terms| it adds up
SIMPLEX_MARGIN = 1e-3  # keep entropy gradients finite


def sample_triples(domain, count, seed):
    """``count`` triples (z, w, u) of points of ``domain`` (Everywhere, Box,
    Simplex, or a ProductSet of them), drawn in turn from ``make_rng(seed)``
    with interior margin SIMPLEX_MARGIN."""
    rng = make_rng(seed)
    for _ in range(count):
        yield tuple(domain.sample(rng, SIMPLEX_MARGIN) for _ in range(3))


@dataclass
class CertificateReport:
    inequality: str
    constant: float
    n_tested: int
    worst: float            # worst ratio
    witness: tuple
    passed: bool
    n_skipped: int
    details: dict = field(default_factory=dict)

    def save(self, path):
        write_manifest(path, {
            "inequality": self.inequality, "constant": float(self.constant),
            "n_tested": self.n_tested, "n_skipped": self.n_skipped,
            "worst": float(self.worst), "passed": self.passed,
            "semantics": "no violation in N samples" if self.passed else "violation found",
            **self.details})
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


def _worst_ratio(inequality, constant, samples, sign) -> CertificateReport:
    """The worst ratio num/den over ``(num, num_mag, den, den_mag, witness)``
    samples, against ``constant``: the largest for ``sign`` 1, the smallest for -1.

    The one noise rule: NOISE times a magnitude, the sum of the |terms| that its
    value adds up, bounds that value's rounding (Higham's gamma_n at 16 ulps):
    * a NaN or infinite num or magnitude is a violation (ratio inf, NaN for a NaN);
    * num is read as sign*num - NOISE*num_mag, with slack in the passing direction;
    * a den <= NOISE*den_mag vanishes: the sample is skipped when the read num is
      <= TAU_NUM, and is otherwise a violation (ratio inf);
    * a sample whose NOISE*num_mag exceeds both its den and |num| decides nothing,
      its ratio known neither to within 1 nor to within itself, and is skipped;
    * any other sample gives the read num over den, NaN for a NaN den.
    An inf or NaN ratio is the worst and ends the scan.  The report passes when
    the worst is within relative slack TAU_REL_RATIO and absolute TAU_NUM of it.
    """
    worst, witness, n, skipped = -np.inf, (), 0, 0
    for num, num_mag, den, den_mag, sample in samples:  # num, worst: signed so that larger is worse
        n += 1
        slack = NOISE * num_mag
        if not (abs(num) < np.inf and num_mag < np.inf and den_mag < np.inf):
            ratio = (abs(num) + num_mag + den_mag) * np.inf  # inf, or NaN for a NaN
        elif den <= NOISE * den_mag:
            if sign * num - slack <= TAU_NUM:
                skipped += 1
                continue
            ratio = np.inf
        elif slack > den and slack > abs(num):
            skipped += 1
            continue
        else:
            ratio = (sign * num - slack) / den
        if not ratio <= worst:  # a worse ratio, or a NaN one
            worst, witness = ratio, sample
            if not ratio < np.inf:
                break
    passed = worst <= sign * constant * (1.0 + sign * TAU_REL_RATIO) + TAU_NUM
    return CertificateReport(inequality, constant, n, sign * worst, witness, passed, skipped)


def _dot(a, b):
    """``a.dot(b)`` of a Point or an array, as a float, and the sum of |a_i b_i|."""
    blocks = ((a.x, b.x), (a.y, b.y)) if isinstance(a, Point) else ((a, b),)
    return float(a.dot(b)), float(sum(np.dot(abs(s), abs(t)) for s, t in blocks))


def check_relative_lipschitzness(g, r, lam, triples) -> CertificateReport:
    """Largest ratio of <g(w)-g(z), w-u> to V_z(w) + V_w(u) over ``triples``, against lam."""
    return _worst_ratio("relative-lipschitzness", lam, (
        (*_dot(g(w) - g(z), w - u), r.divergence(z, w) + r.divergence(w, u), 0.0, (z, w, u))
        for z, w, u in triples), 1)


def check_relative_smoothness_implies(g, r, L, triples) -> CertificateReport:
    """Gradient of an L-relatively-smooth f is L-relatively Lipschitz wrt r."""
    rep = check_relative_lipschitzness(g, r, L, triples)
    rep.inequality = "relative-smoothness-implies-relative-lipschitzness"
    return rep


def check_strong_monotonicity(g, r, m, triples) -> CertificateReport:
    """Smallest ratio of <g(w)-g(z), w-z> to V_w(z) + V_z(w) over ``triples``, against m."""
    return _worst_ratio("strong-monotonicity", m, (
        (*_dot(g(w) - g(z), w - z), r.divergence(w, z) + r.divergence(z, w), 0.0, (z, w))
        for z, w, _ in triples), -1)


def check_regret_certificate(ws, g, r, lam, z0, u):
    """Sum of <g(w_t), w_t - u> over the list ``ws`` of a run's w_t, each queried
    anew, against lam * V_{z0}(u); returns (passed, margin)."""
    lhs = sum(float(g(w).dot(w - u)) for w in ws)
    rhs = lam * r.divergence(z0, u)
    return lhs <= rhs + len(ws) * TAU_NUM, rhs - lhs


# ---------------------------------------------------------------------------
# Coordinate estimator conditions, by exhaustive enumeration
# ---------------------------------------------------------------------------


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


def coord_trajectory(problem, x0, steps, seed, p=None):
    """Explicit randomized-coordinate trajectory at lam = lambda_coord(profile),
    sampling by ``p`` (default p_i ~ sqrt(L_i)); returns the visited (x, v) states."""
    prof = problem.profile
    lam, mu = lambda_coord(prof), prof.mu
    if p is None:
        p = prof.coord_probabilities()
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


def coord_shadow_error(problem, x0, eps, eps0, seed):
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
    Each coordinate outcome (x_half, x_next, v_next) of ``coord_step`` is built
    once and feeds both conditions (d <= 16; exactness is the point, so larger
    d is refused):

    * the expectation over i of <g_i(w^(i)), w^(i) - u> equals the regret of
      the merged point (x_t + sum_i delta_i, grad f(v_half)), up to 1e-10 or
      NOISE times the magnitudes that the two sides add up, and
    * the expected relative Lipschitzness inequality at
      lam = 1 + sum_i sqrt(L_i) / sqrt(mu) with p_i ~ sqrt(L_i), with
      w^(i) = (x_half, v_half) and the divergence of r(x, y) = mu/2 |x|^2 + f*(y)
      between implicit points, whose dual part V^{f*}_{grad f(a)}(grad f(b)) is
      V^f_b(a).
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
    mu = prof.mu
    ux, uv = u
    gf_u = problem.grad(uv)
    worst_identity, identity_ok = 0.0, True
    samples = []
    for x_t, v_t in states:
        v_half = (1.0 - 1.0 / lam) * v_t + x_t / lam
        g_v, gf_vh = problem.grad(np.stack([v_t, v_half]))
        # grad f(v_half) again as a 1-D call: a stacked row need not round like one for a dense M
        f_vt, f_vh, gf_vh1 = problem.f(v_t), problem.f(v_half), problem.grad(v_half)
        dual_w = f_vt - f_vh - float(np.dot(gf_vh1, v_t - v_half))  # in V_{z_t}(w^(i)) for all i
        # the magnitudes that the dual parts cancel; f(v_half) is in both
        den_mag = abs(f_vt) + 2 * abs(f_vh) + float(np.dot(np.abs(gf_vh1), abs(v_t) + abs(v_half)))
        gy_z, gy_u = v_t - x_t, gf_vh - gf_u
        lhs = size = num = num_mag = den = 0.0  # size: the magnitudes that lhs and rhs add up
        x_bar = x_t.copy()
        for i in range(d):
            x_half, x_next, v_next = coord_step(x_t, v_t, i, g_v[i], gf_vh[i], lam, mu, p[i])
            delta = x_half[i] - x_t[i]
            x_bar[i] += delta
            shifted = x_t.copy()
            shifted[i] += delta / p[i]
            gy_w = v_half - shifted  # the y-block of g_i(w^(i)); its x-block is grad f(v_half)
            gf_vn = problem.grad(v_next)
            # condition 1: the estimator's regret against u
            regret_x = gf_vh[i] / p[i] * (x_half[i] - ux[i])
            lhs += p[i] * (regret_x + float(np.dot(gy_w, gy_u)))
            size += p[i] * (abs(regret_x) + float(abs(gy_w) @ abs(gy_u)))
            # condition 2: <g_i(w) - g_i(z_t), w - z_next> expanded blockwise
            term_x = (gf_vh[i] - g_v[i]) / p[i] * (x_half[i] - x_next[i])
            gy_dw, gf_dv = gy_w - gy_z, gf_vh - gf_vn
            num += p[i] * (term_x + float(np.dot(gy_dw, gf_dv)))
            num_mag += p[i] * (abs(term_x) + float(abs(gy_dw) @ abs(gf_dv)))
            f_vn = problem.f(v_next)
            dual_next = f_vh - f_vn - float(np.dot(gf_vn, v_half - v_next))
            den_mag += p[i] * (abs(f_vn) + float(np.dot(np.abs(gf_vn), abs(v_half) + abs(v_next))))
            dx = x_next[i] - x_half[i]
            den += p[i] * ((0.5 * mu * (delta * delta) + dual_w)
                           + (0.5 * mu * (dx * dx) + dual_next))
        rhs = float(np.dot(gf_vh, x_bar - ux)) + float(np.dot(v_half - x_bar, gy_u))
        size += float(abs(gf_vh) @ abs(x_bar - ux)) + float(abs(v_half - x_bar) @ abs(gy_u))
        worst_identity = np.maximum(worst_identity, abs(lhs - rhs))  # a NaN stays
        identity_ok = identity_ok and abs(lhs - rhs) < max(1e-10, NOISE * size)
        samples.append((num, num_mag, den, den_mag, ((x_t, v_t),)))
    rep = _worst_ratio("coordinate-estimator-conditions", lam, samples, 1)
    rep.n_tested = len(states)  # the identity is checked at every state
    rep.passed = identity_ok and rep.passed
    rep.details["worst_identity_error"] = worst_identity
    return rep
