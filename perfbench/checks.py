"""Answer checks computed apart from the library, and perturbations for their self-test.

Every check returns a list of failure messages; an empty list accepts the
answer.  The references are made here: game values from a HiGHS linear
program, primal and dual values from dense numpy, and quadratic optima from
an LU solve.  Nothing here calls ``extragrad``.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Box-simplex games: min_{x in [-1,1]^n} max_{y in simplex} y^T A x - b^T y + c^T x
# ---------------------------------------------------------------------------


def game_value_lp(A, b, c):
    """v* = min t + c^T x  s.t.  A x - t 1 <= b,  x in [-1, 1]^n."""
    import scipy.optimize
    import scipy.sparse as sp

    m, n = A.shape
    A_ub = sp.hstack([sp.csr_matrix(A), sp.csr_matrix(-np.ones((m, 1)))], format="csr")
    res = scipy.optimize.linprog(
        c=np.r_[c, 1.0], A_ub=A_ub, b_ub=b,
        bounds=[(-1.0, 1.0)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def linf_value_lp(A, b):
    """min_{x in [-1,1]^n} ||A x - b||_inf, the reference of criterion 07."""
    import scipy.optimize

    m, n = A.shape
    res = scipy.optimize.linprog(
        c=np.r_[np.zeros(n), 1.0],
        A_ub=np.block([[A, -np.ones((m, 1))], [-A, -np.ones((m, 1))]]),
        b_ub=np.r_[b, -b],
        bounds=[(-1.0, 1.0)] * n + [(0.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def game_primal_dual(A, b, c, x, y):
    """Best-response values: max_y' f(x, y') and min_x' f(x', y), A dense."""
    primal = float(np.max(A @ x - b)) + float(c @ x)
    dual = -float(np.sum(np.abs(A.T @ y + c))) - float(b @ y)
    return primal, dual


def check_game(A, b, c, v_star, x, y, gap, eps):
    """Feasibility, primal(x) >= v* >= dual(y), primal - dual <= eps, reported gap."""
    fails = []
    scale = max(1.0, float(np.abs(A).sum(axis=1).max()))
    lp_tol = 1e-6 * scale  # HiGHS stops at feasibility tolerance 1e-7
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return ["non-finite answer"]
    if np.abs(x).max() > 1.0 + 1e-12:
        fails.append(f"x leaves the box by {np.abs(x).max() - 1.0:.3e}")
    if y.min() < 0.0 or abs(y.sum() - 1.0) > 1e-9:
        fails.append(f"y off the simplex (min {y.min():.3e}, sum {y.sum():.15g})")
    primal, dual = game_primal_dual(A, b, c, x, y)
    if primal < v_star - lp_tol:
        fails.append(f"primal {primal:.12g} below the LP value {v_star:.12g}")
    if dual > v_star + lp_tol:
        fails.append(f"dual {dual:.12g} above the LP value {v_star:.12g}")
    own_gap = primal - dual
    if own_gap > eps + 1e-12 * (abs(primal) + abs(dual) + eps):
        fails.append(f"gap {own_gap:.6e} > eps {eps:.6e}")
    if abs(own_gap - gap) > 1e-9 * scale:
        fails.append(f"reported gap {gap:.12e} differs from {own_gap:.12e}")
    return fails


def check_linf(A0, b0, ref, x, tol):
    """Criterion 07: | ||A0 x - b0||_inf - LP optimum | <= tol."""
    val = float(np.abs(A0 @ x - b0).max())
    if abs(val - ref) > tol:
        return [f"||Ax - b||_inf = {val:.12g} vs LP {ref:.12g} (tol {tol:.3e})"]
    return []


def check_cli(code, summary, certified):
    """Exit code 0; with --check, both certificates in the summary hold."""
    fails = []
    if code != 0 or summary.get("exit_code") != "0":
        fails.append(f"exit code {code}, summary exit_code {summary.get('exit_code')}")
    if certified:
        for key in ("stability_ok", "local_rl_ok"):
            if summary.get(key) != "1":
                fails.append(f"{key}={summary.get(key)}")
    return fails


# ---------------------------------------------------------------------------
# Quadratics f(x) = 1/2 x^T M x + b^T x, M dense or diagonal
# ---------------------------------------------------------------------------


def quad_minimizer(M, b):
    """x* = -M^{-1} b by LU (dense) or division (diagonal)."""
    return -b / M if M.ndim == 1 else np.linalg.solve(M, -b)


def quad_error(M, x_star, x):
    """f(x) - f* = 1/2 (x - x*)^T M (x - x*), free of cancellation."""
    d = np.asarray(x, dtype=float) - x_star
    Md = M * d if M.ndim == 1 else M @ d
    return 0.5 * float(d @ Md)


def check_accel(M, x_star, eps, eps0, x, phase_xs):
    """Criterion 03 (each phase at most halves the error), phase count, f - f* <= eps."""
    fails = []
    phases = max(math.ceil(math.log2(eps0 / eps)), 0)
    if len(phase_xs) != phases:
        fails.append(f"{len(phase_xs)} phases, expected {phases}")
    floor = 1e-12 * eps0  # rounding level of the error once it has converged
    prev = eps0
    for k, xp in enumerate(phase_xs):
        e = quad_error(M, x_star, xp)
        if e > 0.5 * prev * (1.0 + 1e-9) + floor:
            fails.append(f"phase {k}: error {e:.6e} > half of {prev:.6e}")
        prev = e
    err = quad_error(M, x_star, x)
    if not err <= eps:
        fails.append(f"f(x) - f* = {err:.6e} > eps {eps:.6e}")
    return fails


def check_coord(M_diag, mu, x_star, eps, eps0, x, queries, inner, phases):
    """Two queries per inner iteration, phases * 4 ceil(lam) iterations, f - f* <= eps."""
    fails = []
    lam = 1.0 + math.fsum(np.sqrt(M_diag)) / math.sqrt(mu)
    want_phases = max(math.ceil(math.log2(eps0 / eps)), 1)
    if phases != want_phases:
        fails.append(f"{phases} phases, expected {want_phases}")
    if queries != 2 * inner:
        fails.append(f"queries {queries} != 2 * inner iterations {inner}")
    if inner != want_phases * 4 * math.ceil(lam):
        fails.append(f"inner iterations {inner} != {want_phases} * 4 ceil({lam:.6f})")
    err = quad_error(M_diag, x_star, x)
    if not err <= eps:
        fails.append(f"f(x) - f* = {err:.6e} > eps {eps:.6e}")
    return fails


# ---------------------------------------------------------------------------
# Perturbations for the self-test
# ---------------------------------------------------------------------------


def worst_box_point(A, b, c):
    """The box corner that maximizes the primal value max_i (A x - b)_i + c^T x."""
    rows = A + c
    return np.sign(rows[np.argmax(np.abs(rows).sum(axis=1) - b)])


def push_error(M, x_star, x, eps):
    """Move x along one coordinate so that f - f* >= 2 eps for certain.

    Along e_j with the step's sign matching grad_j f, the error grows by at
    least h^2 M_jj / 2, which is 2 eps for h^2 = 4 eps / M_jj.
    """
    diag = M if M.ndim == 1 else np.diag(M)
    g0 = (M * (x - x_star))[0] if M.ndim == 1 else float(M[0] @ (x - x_star))
    out = np.array(x, dtype=float, copy=True)
    out[0] += (1.0 if g0 >= 0 else -1.0) * math.sqrt(4.0 * eps / diag[0])
    return out
