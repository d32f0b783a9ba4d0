"""End-to-end guarantees, one test per criterion.

Each test prints a single PASS line on success; the pytest verdict line is the
authoritative pass/fail record per criterion.
"""

import numpy as np
import pytest
import scipy.optimize

from extragrad import (
    Point, Box, Simplex, Everywhere, ProductSet, ScaledEuclidean,
    NegativeEntropy, ProductRegularizer, QuadraticProblem, ConjugateRegularizer,
    make_rng, mirror_prox, dual_extrapolation, mirror_prox_sm,
    baseline_unaccelerated, eg_accel, general_norm_accel,
    eg_coord_accel, gen_quadratic, gen_box_simplex, gen_minimax,
    lambda_minimax, lambda_fenchel, solve_box_simplex, linf_regression_reduction,
)
from extragrad.verify import (
    TripleSampler, check_relative_lipschitzness, check_regret_certificate,
    check_estimator_conditions, coord_trajectory, coord_shadow_error,
)
from extragrad.cli import _fenchel_pair, _vi

EUCLID_PAIR = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(1.0))


def bilinear_game(seed, d=5):
    """10-dim bilinear game g(x, y) = (Cy + q, r - C^T x) with known equilibrium."""
    rng = make_rng(seed)
    C = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    q = rng.standard_normal(d)
    r = rng.standard_normal(d)

    def g(z):
        return Point(C @ z.y + q, r - C.T @ z.x)

    u = Point(np.linalg.solve(C.T, r), np.linalg.solve(C, -q))
    lam = float(np.linalg.svd(C, compute_uv=False)[0])
    z0 = Point(rng.standard_normal(d), rng.standard_normal(d))
    return g, u, lam, z0


def test_criterion_01_mirror_prox_regret():
    T = 100
    for seed in range(100):
        g, u, lam, z0 = bilinear_game(seed)
        trace = mirror_prox(g, EUCLID_PAIR, z0, lam, T, u=u)
        margin = trace.summary["regret_bound"] - trace.cum_regret()
        assert margin >= -T * 1e-9, f"seed {seed}: regret margin {margin}"
    print("criterion 1 mirror-prox regret certificate: PASS")


def test_criterion_02_dual_extrapolation_potential():
    T = 200
    for seed in range(100):
        g, u, lam, z0 = bilinear_game(seed)
        trace = dual_extrapolation(g, EUCLID_PAIR, z0, lam, T, u=u)
        pots = np.array(trace.potentials)
        assert np.all(np.diff(pots) <= 1e-9), f"seed {seed}: potential increased"
        assert trace.cum_regret() <= trace.summary["regret_bound"] + T * 1e-9
    print("criterion 2 dual-extrapolation potential: PASS")


def test_criterion_03_accel_phase_halving():
    eps = 1e-8
    lam = 1.0 + np.sqrt(100.0)
    assert 4 * int(np.ceil(lam)) == 44  # T per phase
    for seed in range(20):
        prob = gen_quadratic(50, 1.0, 100.0, diag=(seed % 2 == 0), seed=seed)
        x0 = np.zeros(50)
        eps0 = prob.error(x0)
        errs = []
        x = eg_accel(prob, x0, eps, eps0=eps0,
                     collect=lambda k, xp: errs.append(prob.error(xp)))
        prev = eps0
        for e in errs:
            assert e <= 0.5 * prev * (1 + 1e-9) + 1e-15, f"seed {seed}"
            prev = e
        assert len(errs) <= int(np.ceil(np.log2(eps0 / eps)))
        assert prob.error(x) <= eps
    print("criterion 3 accelerated phase halving: PASS")


def test_criterion_04_acceleration_vs_baseline():
    prob = gen_quadratic(50, 1.0, 1e4, diag=True, seed=0)
    x0 = np.zeros(50)
    eps0 = prob.error(x0)
    phases = []
    x = eg_accel(prob, x0, 1e-6, eps0=eps0, collect=lambda k, xp: phases.append(k))
    assert prob.error(x) <= 1e-6
    inner_per_phase = 4 * int(np.ceil(1.0 + np.sqrt(1e4)))
    accel_iters = len(phases) * inner_per_phase
    # run the baseline for exactly as many iterations: still far above 1e-2
    trace = baseline_unaccelerated(prob, x0, accel_iters)
    assert trace.summary["f_err"] > 1e-2, (
        f"baseline already at {trace.summary['f_err']} after {accel_iters} iters")
    # and its 1/T guarantee holds as an inequality
    for T in (10, 100, 1000):
        tr = baseline_unaccelerated(prob, x0, T)
        assert tr.summary["f_err"] <= tr.summary["bound"] + 1e-9
    print("criterion 4 acceleration vs unaccelerated baseline: PASS")


def test_criterion_05_strongly_monotone_contraction():
    T = 200
    m = 1.0
    for seed in range(20):
        inst = gen_minimax(5, 5, 1.0, 2.0, 3.0, seed=seed)
        vi = _vi(inst)
        g, r = vi.g, vi.r
        lam = lambda_minimax(inst.profile)
        z0 = Point(np.ones(5), np.ones(5))
        trace = mirror_prox_sm(g, r, z0, lam, m, T, z_star=inst.saddle_point())
        rate = 1.0 / (1.0 + m / lam)
        divs = trace.divs_to_opt
        # once ||z - z*|| ~ eps * ||z*||, the divergence itself carries an
        # absolute rounding error near (1e-16)^2; floor the check there
        floor = 1e-28 * max(1.0, divs[0])
        for t in range(T):
            assert divs[t + 1] <= rate * divs[t] * (1 + 1e-9) + floor, (
                f"seed {seed}, iter {t}")
        assert divs[T] <= rate**T * divs[0] * (1 + 1e-6) + floor
    print("criterion 5 strongly-monotone contraction: PASS")


def test_criterion_06_box_simplex_certified():
    budget_cap = int(np.ceil(50.0 * np.log(50) / 0.01)) + 1  # ~2e4
    for seed in range(10):
        inst = gen_box_simplex(50, 40, 0.5, seed=seed)
        eps = 0.01 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps, certify=True)
        s = trace.summary
        assert s["stability_ok"], f"seed {seed}: multiplicative stability broke"
        assert s["local_rl_ok"], f"seed {seed}: local relative Lipschitzness broke"
        assert s["gap_bound_ok"], f"seed {seed}: a gap exceeded the bound the steps prove"
        assert gap <= eps, f"seed {seed}: gap {gap} > {eps}"
        assert s["iterations"] <= budget_cap
    print("criterion 6 box-simplex stability/certificates/gap: PASS")


def test_criterion_07_linf_regression_reference():
    for seed in range(5):
        rng = make_rng(100 + seed)
        A = rng.standard_normal((10, 5))
        b = rng.standard_normal(10)
        inst = linf_regression_reduction(A, b)
        tol = 2e-3 * inst.op_norm
        # independent LP reference: min t s.t. -t <= Ax - b <= t, x in the box
        res = scipy.optimize.linprog(
            c=np.r_[np.zeros(5), 1.0],
            A_ub=np.block([[A, -np.ones((10, 1))], [-A, -np.ones((10, 1))]]),
            b_ub=np.r_[b, -b],
            bounds=[(-1, 1)] * 5 + [(0, None)],
            method="highs")
        assert res.status == 0
        ref = float(res.fun)
        x, y, gap, trace = solve_box_simplex(inst, 0.75 * tol)
        assert trace.summary["gap_bound_ok"], f"seed {seed}: a gap exceeded the proven bound"
        val = float(np.abs(A @ x - b).max())
        assert abs(val - ref) <= tol, f"seed {seed}: {val} vs reference {ref}"
    print("criterion 7 l-inf regression vs LP reference: PASS")


def test_criterion_08_coordinate_method():
    # (a) implicit iterates track an explicit shadow to 1e-8 over >= 1e3 steps
    prob = gen_quadratic(10, 1.0, 40.0, diag=True, seed=0)
    info = coord_shadow_error(prob, np.zeros(10), 1e-10, eps0=1.0, seed=1)
    assert info["inner_iterations"] >= 1000
    assert info["shadow_err"] <= 1e-8

    # (b) estimator conditions verified exactly by enumeration on d = 4
    prob4 = gen_quadratic(4, 1.0, 9.0, diag=True, seed=2)
    states = coord_trajectory(prob4, np.ones(4), 30, seed=3)
    rep = check_estimator_conditions(prob4, states, (prob4.x_star, prob4.x_star))
    assert rep.passed and rep.details["worst_identity_error"] < 1e-10

    # (c) d = 50, sum of sqrt(L_i/mu) near 250: median of 21 runs hits eps
    # within 8x the S_half * log2(eps0/eps) budget
    prob50 = gen_quadratic(50, 1.0, 200.0, diag=True, seed=4)
    s_half = prob50.profile.s_half
    assert 200.0 <= s_half <= 300.0
    eps = 1e-4
    errs = []
    for seed in range(21):
        x, info = eg_coord_accel(prob50, np.zeros(50), eps, seed=seed)
        errs.append(prob50.error(x))
        eps0 = max(prob50.error(np.zeros(50)), eps)
        K = int(np.ceil(np.log2(eps0 / eps)))
        assert info["inner_iterations"] <= 8 * s_half * K
        # (d) exactly two generalized partial-derivative queries per iteration
        assert info["queries"] == 2 * info["inner_iterations"]
    assert float(np.median(errs)) <= eps
    print("criterion 8 coordinate method (shadow/estimators/budget/queries): PASS")


def test_criterion_09_general_norm_budget():
    eps = 1e-6
    for seed in range(5):
        prob = gen_quadratic(20, 1.0, 25.0, diag=False, seed=seed)
        x0 = np.zeros(20)
        eps0 = prob.error(x0)
        T = int(np.ceil(4 * np.sqrt(25.0) * np.log(2 * 25.0 * eps0 / eps)))
        x = general_norm_accel(prob, ScaledEuclidean(1.0), x0, eps, T=T)
        assert prob.error(x) <= eps, f"seed {seed}"
    print("criterion 9 general-norm accelerated budget: PASS")


def test_criterion_10_property_suites():
    N = 10_000
    rng = make_rng(0)

    # three-point equality for the Euclidean regularizer, vectorized
    reg = ScaledEuclidean(1.3)
    a, b, c = (rng.standard_normal((N, 6)) for _ in range(3))
    lhs = np.einsum("ij,ij->i", 1.3 * (a - b), b - c)
    V = lambda p, q: 0.5 * 1.3 * np.einsum("ij,ij->i", q - p, q - p)
    rhs = V(c, a) - V(c, b) - V(b, a)
    assert np.max(np.abs(lhs - rhs)) < 1e-9

    # prox optimality for entropy on the simplex
    ent = NegativeEntropy(1.0)
    s = Simplex(5)
    worst = 0.0
    for _ in range(N):
        z = s.sample(rng, 1e-3)
        g = rng.standard_normal(5)
        w = ent.prox(z, g)
        u = s.sample(rng, 1e-3)
        worst = min(worst, float((g + ent.grad(w) - ent.grad(z)) @ (u - w)))
    assert worst >= -1e-9

    # conjugate strong convexity: V^{f*} >= |.|^2 / (2L), and the dual
    # divergence identity V^{f*}_{grad f(a)}(grad f(b)) = V^f_b(a)
    M = np.array([1.0, 2.5, 4.0])
    L = 4.0
    oracle = QuadraticProblem(M, np.zeros(3))
    creg = ConjugateRegularizer(oracle)
    pa, pb = rng.standard_normal((N, 3)), rng.standard_normal((N, 3))
    ya, yb = pa * M, pb * M
    div = 0.5 * np.einsum("ij,ij->i", (pb - pa) ** 2 * M, np.ones((N, 3)))
    lower = 0.5 / L * np.einsum("ij,ij->i", yb - ya, yb - ya)
    assert np.all(div >= lower - 1e-9)
    primal = 0.5 * np.einsum("ij,ij->i", (pa - pb) ** 2 * M, np.ones((N, 3)))
    assert np.max(np.abs(div - primal)) < 1e-9  # dual identity, closed form
    spot = creg.divergence(ya[0], yb[0])
    assert spot == pytest.approx(float(div[0]), abs=1e-9)

    # relative-Lipschitzness certifier: paper constants pass, undersized fail
    count = N
    settings = []
    g0, _, lam0, _ = bilinear_game(0)
    dom0 = ProductSet(Box(-np.ones(5), np.ones(5)), Box(-np.ones(5), np.ones(5)))
    settings.append(("bilinear", g0, EUCLID_PAIR, lam0, dom0))

    quad = gen_quadratic(4, 1.0, 4.0, diag=True, seed=1)
    gf, rf = _fenchel_pair(quad)
    lamf = lambda_fenchel(quad.profile)
    domf = ProductSet(Everywhere(4), Everywhere(4))
    settings.append(("fenchel", gf, rf, lamf, domf))

    mm = gen_minimax(4, 4, 1.0, 1.5, 2.0, seed=2)
    vi = _vi(mm)
    gm, rm = vi.g, vi.r
    lamm = lambda_minimax(mm.profile)
    domm = ProductSet(Everywhere(4), Everywhere(4))
    settings.append(("minimax", gm, rm, lamm, domm))

    for name, g, r, lam, dom in settings:
        sampler = TripleSampler(dom, count=count, seed=3)
        rep = check_relative_lipschitzness(g, r, lam, sampler)
        assert rep.passed, f"{name}: certified constant {lam} rejected"
        undersized = 0.5 * rep.worst
        rep_bad = check_relative_lipschitzness(g, r, undersized, sampler)
        assert not rep_bad.passed, f"{name}: undersized constant not falsified"
    print("criterion 10 property suites and certifier calibration: PASS")
