"""The extragradient algorithm family.

Deterministic methods: mirror prox, dual extrapolation, the strongly-monotone
variant, an unaccelerated smooth-minimization baseline, the accelerated
primal-dual method and its general-norm cousin.  Randomized: coordinate
acceleration with implicit O(1) iterate maintenance.

The three variational-inequality methods are generators that yield their
steps without end; the caller's ``itertools.islice`` sets the step count, and
the caller computes whatever it measures the steps by (regret against a
comparator, a potential, a distance to the solution).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, cycle, islice

import numpy as np

from .core import Point, ProductRegularizer, ScaledEuclidean
from .operators import make_rng, AliasTable, lambda_coord, lambda_fenchel


class NonFiniteIterateError(RuntimeError):
    pass


def ceil_count(value, eps, what):
    """ceil(value) as an int, for a count that eps sets; a ValueError if it overflows."""
    if not np.isfinite(value):
        raise ValueError(f"eps {eps!r} is too small: the {what} overflows")
    return int(np.ceil(value))


def _check_finite(z, t):
    ok = z.finite() if isinstance(z, Point) else bool(np.all(np.isfinite(z)))
    if not ok:
        raise NonFiniteIterateError(f"non-finite iterate at t={t}")


# ---------------------------------------------------------------------------
# Mirror prox and dual extrapolation
# ---------------------------------------------------------------------------


def mirror_prox(g, r, z0, lam):
    """Mirror prox: w_t = Prox_{z_t}(g(z_t)/lam), z_{t+1} = Prox_{z_t}(g(w_t)/lam).

    Yields (w_t, g(w_t), z_{t+1}) per step.  Whenever (g, r) is lam-relatively
    Lipschitz, the regrets <g(w_t), w_t - u> sum to at most lam * V_{z0}(u)
    for every comparator u.
    """
    z = z0
    for t in count():
        w = r.prox(z, (1.0 / lam) * g(z))
        gw = g(w)
        z = r.prox(z, (1.0 / lam) * gw)
        _check_finite(w, t)
        _check_finite(z, t)
        yield w, gw, z


def dual_extrapolation(g, r, z_bar, lam):
    """Dual extrapolation: lazy mirror prox driven by the dual state s_t.

    Yields (w_t, g(w_t), z_{t+1}) per step, with s_{t+1} = s_t + g(w_t)/lam and
    z_{t+1} = Prox_{z_bar}(s_{t+1}).  Under relative Lipschitzness the potential
    Phi_t = (1/lam) sum_{k<t} <g(w_k), w_k - z_bar> - <s_t, z_t - z_bar> - V_{z_bar}(z_t)
    does not increase, and the regrets obey mirror prox's bound.
    """
    s = 0.0 * z_bar  # zero dual state
    z = r.prox(z_bar, s)
    for t in count():
        w = r.prox(z, (1.0 / lam) * g(z))
        gw = g(w)
        _check_finite(w, t)
        s = s + (1.0 / lam) * gw
        z = r.prox(z_bar, s)
        _check_finite(z, t)
        yield w, gw, z


def mirror_prox_sm(g, r, z0, lam, m):
    """Strongly-monotone mirror prox with the blended second prox step.

    z_{t+1} minimizes <g(w_t)/lam, z> + V_{z_t}(z) + (m/lam) V_{w_t}(z); the
    regularizer must supply this blended prox in closed form.  Yields z_{t+1}
    per step; V_{z_t}(z*) to the VI solution z* contracts by (1 + m/lam)^{-1}
    per step.
    """
    blocks = (r.rx, r.ry) if isinstance(r, ProductRegularizer) else (r,)
    if not all(hasattr(b, "blended_prox") for b in blocks):
        raise TypeError("regularizer lacks a closed-form blended prox")
    z = z0
    for t in count():
        w = r.prox(z, (1.0 / lam) * g(z))
        z = r.blended_prox(z, w, g(w), lam, m)
        _check_finite(z, t)
        yield z


# ---------------------------------------------------------------------------
# Smooth minimization
# ---------------------------------------------------------------------------


def baseline_unaccelerated(problem, x0, T, eps=None):
    """Mirror prox on g = grad f with r = L/2 ||.||^2 at lam = 1 (1/T rate).

    Returns the mean of the half-iterates w_t after at most T steps and the
    f-error of each step's mean; the mean satisfies
    f(mean) - f* <= L ||x0 - x*||^2 / (2T).  With eps given, stops at the first
    mean iterate with f(mean) - f* <= eps.  With no step taken the mean is x0.
    """
    x0 = np.asarray(x0, dtype=float)
    steps = mirror_prox(problem.grad, ScaledEuclidean(problem.profile.L), x0, 1.0)
    acc = np.zeros_like(x0)
    mean, f_errors = x0, []
    for t, (w, _, _) in enumerate(islice(steps, T)):
        acc += w
        mean = acc / (t + 1)
        f_errors.append(problem.error(mean))
        if eps is not None and f_errors[-1] <= eps:
            break
    return mean, f_errors


def _initial_error_bound(problem, x0, eps):
    """max(f(x0) - f*, eps) bounded from above from two gradients: by mu-strong
    convexity f* >= f(x1) - |grad f(x1)|^2 / (2 mu), with x1 = x0 - grad f(x0) / L."""
    L, mu = problem.profile.L, problem.profile.mu
    x1 = x0 - problem.grad(x0) / L
    g1 = problem.grad(x1)
    lower = problem.f(x1) - 0.5 / mu * float(np.dot(g1, g1))
    return max(problem.f(x0) - lower, eps)


def phase_length(lam):
    """Inner iterations per phase of the accelerated phase methods: T = 4*ceil(lam)."""
    return 4 * int(np.ceil(lam))


def _phase_count(problem, x0, eps, eps0):
    """Phases that halve an error of at most eps0 down to eps, none when eps0 <= eps;
    eps0 is ``_initial_error_bound`` unless given."""
    if eps0 is None:
        eps0 = _initial_error_bound(problem, x0, eps)
    return 0 if eps0 <= eps else ceil_count(np.log2(eps0 / eps), eps, "phase count")


def eg_accel(problem, x0, eps, eps0=None, collect=None):
    """Accelerated smooth minimization via mirror prox on the Fenchel game.

    Runs K = ceil(log2(eps0/eps)) phases of T = 4*ceil(lam) inner iterations
    with lam = 1 + sqrt(L/mu); each phase halves the function error of the
    averaged half-iterate, so eps0 must bound f(x0) - f* from above; by
    default it is ``_initial_error_bound``.  Only gradient queries are issued.
    A step's two queries, at v and at v_half, are both fixed before either is
    answered, so one ``grad`` call on the two stacked rows answers them.  The
    rest of the step is linear: the rows (x, v_sum, v, v_half) of the next step
    are ``MIX`` times the rows (x, v_sum, v, v_half, grad f(v), grad f(v_half))
    of this one.
    """
    mu = problem.profile.mu
    lam = lambda_fenchel(problem.profile)
    T = phase_length(lam)
    x0 = np.asarray(x0, dtype=float)
    K = _phase_count(problem, x0, eps, eps0)
    # x' = x - s g_vh, v_sum' = v_sum + v_half and v' = v + c (x - s g_v - v_half),
    # with v_half = c x + (1 - c) v
    c, s = 1.0 / lam, 1.0 / (mu * lam)
    a = c * (1.0 - c)
    MIX = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, -s],
                    [0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
                    [a, 0.0, 1.0 - a, 0.0, -c * s, 0.0],
                    np.zeros(6)])
    MIX[3] = c * MIX[0] + (1.0 - c) * MIX[2]  # v_half' = c x' + (1 - c) v'
    W = np.empty((2, 6) + x0.shape)  # W[t % 2] holds step t's six rows
    # per parity: the query rows (v, v_half), their gradients, all rows, the next four
    views = [(W[p, 2:4], W[p, 4:], W[p], W[1 - p, :4]) for p in (0, 1)]
    x_phase = x0.copy()
    for k in range(K):
        W[0, :4] = x_phase  # x = v = v_half = x_phase
        W[0, 1] = 0.0
        for queries, grads, rows, nxt in islice(cycle(views), T):
            grads[...] = problem.grad(queries)
            np.dot(MIX, rows, out=nxt)
        x_phase = W[T % 2, 1] / T
        _check_finite(x_phase, k)
        if collect is not None:
            collect(k, x_phase)
    return x_phase


def general_norm_accel(problem, rx, x0, eps, T=None):
    """Accelerated minimization in a general norm via strongly-monotone mirror prox.

    Solves min_x mu*omega(x) + max_y <y,x> - h*(y) with h = f - mu*omega, using
    r(x, y) = mu*omega(x) + h*(y), m = 1, lam = 1 + sqrt(L/mu).  The dual block
    is maintained implicitly as grad h(v), so only grad h = grad f - mu*grad
    omega queries occur.  ``rx`` is the x-block regularizer mu*omega, a
    regularizer with ``grad``, ``prox`` and a closed-form ``blended_prox``.
    By default T is the theorem's count for f(x0) - f* at most
    ``_initial_error_bound``.
    """
    L, mu = problem.profile.L, problem.profile.mu
    lam = lambda_fenchel(problem.profile)
    m = 1.0
    x0 = np.asarray(x0, dtype=float)
    if T is None:
        err0 = _initial_error_bound(problem, x0, eps)
        steps = 4 * np.sqrt(L / mu) * np.log(max(2 * L / mu * err0 / eps, np.e))
        T = ceil_count(steps, eps, "step count")

    x, v = x0.copy(), x0.copy()
    ry = ScaledEuclidean(1.0)  # the dual block lives in v-space
    for t in range(T):
        # grad f at v and at v_half, both fixed before the step: one stacked call
        v_half = (1.0 - 1.0 / lam) * v + x / lam
        gf_v, gf_vh = problem.grad(np.stack([v, v_half]))
        # w_t = Prox_{z_t}(g(z_t)/lam); y-block prox reduces to a v-space mix
        gx = gf_v - rx.grad(v) + rx.grad(x)
        x_half = rx.prox(x, gx / lam)
        # blended second step against w_t
        gx_w = gf_vh - rx.grad(v_half) + rx.grad(x_half)
        gy_w = v_half - x_half
        x = rx.blended_prox(x, x_half, gx_w, lam, m)
        v = ry.blended_prox(v, v_half, gy_w, lam, m)
        _check_finite(x, t)
    return x


# ---------------------------------------------------------------------------
# Coordinate acceleration with implicit iterates
# ---------------------------------------------------------------------------


@dataclass
class ImplicitIterate:
    """(x_t | v_t) = (p_t | q_t) B_t with B_t a 2x2 matrix.

    One-sparse dual updates then cost O(1): only p_i, q_i move.
    """

    B: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def reconstruct(self):
        x = self.B[0, 0] * self.p + self.B[1, 0] * self.q
        v = self.B[0, 1] * self.p + self.B[1, 1] * self.q
        return x, v

    def refactor(self):
        x, v = self.reconstruct()
        self.p, self.q = x, v
        self.B = np.eye(2)


def eg_coord_accel(problem, x0, eps, eps0=None, seed=0, callback=None):
    """Coordinate-accelerated smooth minimization with shared-randomness estimators.

    Samples coordinate i with p_i ~ sqrt(L_i), takes 1-sparse extragradient
    steps maintained implicitly as (p, q, B), and uses two generalized partial
    derivative queries per inner iteration.  Each phase runs T = 4*ceil(lam)
    iterations and restarts from the average of its half-iterates, the form the
    halving guarantee is stated for.  A phase draws its T coordinates up front,
    in one alias-table call.  K and eps0 are as in ``eg_accel``; the default's two
    gradients are 2d partial queries, in ``info["bound_queries"]``.

    Every step costs O(1).  The iterate matrix A = [[1, a01], [0, a11]] keeps
    B_t = [[1, beta], [0, gamma]] from B_0 = I, so x = p and v = beta p + gamma q;
    det B_t = a11^t >= 0.015 within a phase, so B never needs refactoring.  The
    half-point v_half = a_t p + b_t q is summed lazily as S_a p + S_b q - c, with
    c absorbing each coordinate move.  A phase holds p, q and c as lists and
    steps on Python floats, which cost a third of numpy scalars and round alike.

    ``callback(i, g_v, g_vh, state)`` runs after every inner step with the
    sampled coordinate, its partials at v and at the half-point (floats), and
    the implicit iterate, whose p_i, q_i and B are then current;
    ``callback(None, None, None, state)`` runs whenever a fresh iterate with
    B = I is built (at the start and at every phase restart).
    ``verify.coord_shadow_error`` checks the iterates through it.

    Returns (x, info) with the query, iteration and phase counts.
    """
    prof = problem.profile
    mu, lam = float(prof.mu), float(lambda_coord(prof))
    a01, a11 = 1.0 / lam - 1.0 / lam**2, 1.0 - 1.0 / lam + 1.0 / lam**2
    w_x, w_v = 1.0 / lam, 1.0 - 1.0 / lam  # v_half = w_v v + w_x x
    mu_lam, mu_lam2 = mu * lam, mu * lam**2
    T = phase_length(lam)
    x0 = np.asarray(x0, dtype=float)
    K = _phase_count(problem, x0, eps, eps0)
    p_dist = prof.coord_probabilities()
    alias = AliasTable(p_dist)
    rng = make_rng(seed)
    state = ImplicitIterate(np.eye(2), x0.copy(), x0.copy())
    if callback is not None:
        callback(None, None, None, state)
    queries = 0
    inner_iters = 0

    for k in range(K):
        p, q = state.p.tolist(), state.q.tolist()
        c = [0.0] * len(p)
        beta, gamma = 0.0, 1.0
        s_a = s_b = 0.0
        draws = alias.draw(rng, T)
        for i, p_i in zip(draws.tolist(), p_dist[draws].tolist()):
            s_a += w_x + w_v * beta
            s_b += w_v * gamma
            x_i = p[i]
            v_i = beta * x_i + gamma * q[i]
            vh_i = w_v * v_i + x_i / lam
            g_v = problem.partial_at(i, v_i)
            g_vh = problem.partial_at(i, vh_i)
            s1 = g_vh / (mu_lam * p_i)
            s2 = g_v / (mu_lam2 * p_i**2)
            beta, gamma = a01 + a11 * beta, a11 * gamma
            dq = (s1 * beta - s2) / gamma
            p[i] -= s1
            q[i] += dq
            c[i] += s_b * dq - s_a * s1
            if callback is not None:
                state.p[i], state.q[i] = p[i], q[i]
                state.B[0, 1], state.B[1, 1] = beta, gamma
                callback(i, g_v, g_vh, state)
        inner_iters += draws.size
        queries += 2 * draws.size
        x_next = (s_a * np.array(p) + s_b * np.array(q) - np.array(c)) / T
        state = ImplicitIterate(np.eye(2), x_next, x_next.copy())
        if callback is not None:
            callback(None, None, None, state)

    x_final = state.p
    info = {
        "queries": queries,
        "inner_iterations": inner_iters,
        "phases": K,
        "bound_queries": 0 if eps0 is not None else 2 * x0.size,  # two gradients
    }
    return x_final, info
