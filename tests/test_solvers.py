"""Deterministic solver family: fixed points, hand-simulated steps, certificates."""

from itertools import chain, islice

import numpy as np
import pytest

from extragrad import (
    Point, ScaledEuclidean, NegativeEntropy, ProductRegularizer, make_rng,
    mirror_prox, dual_extrapolation, mirror_prox_sm, baseline_unaccelerated,
    eg_accel, eg_coord_accel, general_norm_accel, gen_quadratic, gen_minimax,
    lambda_minimax, NonFiniteIterateError,
)
from extragrad import cli

EUCLID_PAIR = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(1.0))


def rotation_game(z):
    """g(x, y) = (y, -x): the canonical 1-Lipschitz bilinear operator."""
    return Point(z.y, -z.x)


class TestMirrorProx:
    def test_zero_operator_fixed_point(self):
        z0 = Point([1.0, -2.0], [0.5])
        for w, _, _ in islice(mirror_prox(lambda z: 0.0 * z, EUCLID_PAIR, z0, 1.0), 5):
            assert np.allclose(w.x, z0.x) and np.allclose(w.y, z0.y)

    def test_hand_simulated_rotation_step(self):
        z0 = Point([1.0], [1.0])
        w0, _, z1 = next(mirror_prox(rotation_game, EUCLID_PAIR, z0, 1.0))
        assert np.allclose(w0.x, [0.0]) and np.allclose(w0.y, [2.0])
        assert np.allclose(z1.x, [-1.0]) and np.allclose(z1.y, [1.0])

    def test_regret_certificate_bilinear(self):
        rng = make_rng(0)
        for _ in range(10):
            C = rng.standard_normal((2, 2))
            lam = float(np.linalg.svd(C, compute_uv=False)[0])

            def g(z, C=C):
                return Point(C @ z.y, -C.T @ z.x)

            z0 = Point(rng.standard_normal(2), rng.standard_normal(2))
            u = Point(np.zeros(2), np.zeros(2))  # equilibrium of the pure bilinear game
            T = 50
            steps = islice(mirror_prox(g, EUCLID_PAIR, z0, lam), T)
            regrets = [gw.dot(w - u) for w, gw, _ in steps]
            assert sum(regrets) <= lam * EUCLID_PAIR.divergence(z0, u) + T * 1e-9

    def test_a_step_yields_g_at_w_and_takes_no_divergence(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ProductRegularizer, "divergence",
                            lambda self, a, b: calls.append(1))
        z0 = Point([1.0, 0.3], [-0.4, 0.2])
        for w, gw, _ in islice(mirror_prox(rotation_game, EUCLID_PAIR, z0, 1.0), 10):
            assert np.array_equal(gw.x, rotation_game(w).x)
            assert np.array_equal(gw.y, rotation_game(w).y)
        assert calls == []

    def test_telescoping_slack_nonnegative(self):
        z0 = Point([1.0, 0.3], [-0.4, 0.2])
        u = Point(np.zeros(2), np.zeros(2))
        steps = list(islice(mirror_prox(rotation_game, EUCLID_PAIR, z0, 1.0), 40))
        zs = [z0]
        for w, _, _ in steps:  # z_{t+1} = Prox_{z_t}(g(w_t) / lam), replayed
            zs.append(EUCLID_PAIR.prox(zs[-1], rotation_game(w)))
        final = steps[-1][2]
        assert np.array_equal(zs[-1].x, final.x) and np.array_equal(zs[-1].y, final.y)
        # V_{z_t}(u) - V_{z_{t+1}}(u) - <g(w_t), w_t - u> / lam, per step
        slack = [EUCLID_PAIR.divergence(z, u) - EUCLID_PAIR.divergence(z_next, u)
                 - gw.dot(w - u) / 1.0 for z, z_next, (w, gw, _) in zip(zs, zs[1:], steps)]
        assert len(slack) == 40 and min(slack) >= -1e-9

    def test_nonfinite_iterate_aborts(self):
        def blowup(z):
            return Point([np.nan], [np.nan])

        with pytest.raises(NonFiniteIterateError):
            next(mirror_prox(blowup, EUCLID_PAIR, Point([1.0], [1.0]), 1.0))


class TestDualExtrapolation:
    def test_zero_operator_stays_at_base(self):
        z_bar = Point([0.7], [-0.1])
        for w, _, _ in islice(dual_extrapolation(lambda z: 0.0 * z, EUCLID_PAIR, z_bar, 1.0), 5):
            assert np.allclose(w.x, z_bar.x) and np.allclose(w.y, z_bar.y)

    def test_potential_nonincreasing(self):
        rng = make_rng(1)
        z_bar = Point(rng.standard_normal(3), rng.standard_normal(3))
        u = Point(np.zeros(3), np.zeros(3))
        # Phi_t = sum_{k<t} <g(w_k), w_k - zbar> - <s_t, z_t - zbar> - V_{zbar}(z_t), lam = 1
        pots, regrets, s, base = [], [], 0.0 * z_bar, 0.0
        for w, gw, z in islice(dual_extrapolation(rotation_game, EUCLID_PAIR, z_bar, 1.0), 100):
            s = s + gw
            base += gw.dot(w - z_bar)
            pots.append(base - s.dot(z - z_bar) - EUCLID_PAIR.divergence(z_bar, z))
            regrets.append(gw.dot(w - u))
        assert np.all(np.diff(pots) <= 1e-9)
        assert sum(regrets) <= EUCLID_PAIR.divergence(z_bar, u) + 100 * 1e-9

    def test_each_step_computes_its_dual_prox_once(self):
        calls = []

        class Counting(ProductRegularizer):
            def prox(self, z, g):
                calls.append(z)
                return super().prox(z, g)

        z_bar = Point([0.3, -0.2], [0.5, 0.1])
        r = Counting(ScaledEuclidean(1.0), ScaledEuclidean(1.0))
        steps = list(islice(dual_extrapolation(rotation_game, r, z_bar, 2.0), 10))
        # z_0, then w_t and z_{t+1} = Prox_zbar(s_{t+1}) per step; z_{t+1} is reused
        assert len(calls) == 2 * 10 + 1
        s = sum((rotation_game(w) for w, _, _ in steps), Point([0.0, 0.0], [0.0, 0.0]))
        final = steps[-1][2]  # z_T = z_bar - s_T with s_T = sum_t g(w_t) / lam
        assert np.allclose(final.x, z_bar.x - s.x / 2.0)
        assert np.allclose(final.y, z_bar.y - s.y / 2.0)

    def test_each_step_queries_the_operator_twice(self, monkeypatch):
        calls, divergences = [], []

        def counting(z):
            calls.append(z)
            return rotation_game(z)

        monkeypatch.setattr(ProductRegularizer, "divergence",
                            lambda self, a, b: divergences.append(1))
        z_bar = Point([0.3, -0.2], [0.5, 0.1])
        assert len(list(islice(dual_extrapolation(counting, EUCLID_PAIR, z_bar, 2.0), 10))) == 10
        # g(z_t) and g(w_t) per step; the zero dual state needs no query
        assert len(calls) == 2 * 10
        assert divergences == []  # the potential is the caller's to compute


class TestStronglyMonotone:
    def test_identity_operator_halves(self):
        # g(z) = z, m = lam = 1: w0 = z0/2... the second step is the blended prox
        r = ScaledEuclidean(1.0)
        z0 = np.array([1.0])
        z1 = next(mirror_prox_sm(lambda z: z, r, z0, 1.0, 1.0))
        # z1 = (z0 + w0 - g(w0)) / 2 with w0 = z0 - z0 = 0
        assert np.allclose(z1, [0.5])

    def test_solution_is_fixed_point(self):
        inst = gen_minimax(4, 3, 1.0, 1.0, 2.0, seed=2)
        r = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(1.0))
        z_star = inst.saddle_point()
        lam = lambda_minimax(inst.profile)
        *_, z = islice(mirror_prox_sm(inst.operator, r, z_star, lam, 1.0), 10)
        assert r.divergence(z, z_star) < 1e-20

    def test_contraction_on_minimax(self):
        inst = gen_minimax(5, 4, 1.0, 2.0, 3.0, seed=3)
        r = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(2.0))
        lam = lambda_minimax(inst.profile)
        z0 = Point(np.ones(5), np.ones(4))
        T = 60
        z_star = inst.saddle_point()
        steps = islice(mirror_prox_sm(inst.operator, r, z0, lam, 1.0), T)
        rate = 1.0 / (1.0 + 1.0 / lam)
        divs = [r.divergence(z, z_star) for z in chain([z0], steps)]
        for t in range(T):
            assert divs[t + 1] <= rate * divs[t] * (1 + 1e-9) + 1e-15

    def test_requires_blended_prox(self):
        class NoBlend:
            def prox(self, z, g):
                return z

            def divergence(self, a, b):
                return 0.0

        with pytest.raises(TypeError):
            next(mirror_prox_sm(lambda z: z, NoBlend(), np.zeros(1), 1.0, 1.0))
        # a product is only as blendable as its blocks; entropy has no closed form
        no_blend_y = ProductRegularizer(ScaledEuclidean(1.0), NegativeEntropy(1.0))
        with pytest.raises(TypeError):
            next(mirror_prox_sm(lambda z: z, no_blend_y, Point([0.0], [0.5, 0.5]), 1.0, 1.0))


class TestBaseline:
    def test_starts_at_optimum(self):
        prob = gen_quadratic(5, 1.0, 4.0, diag=True, seed=4)
        _, f_errors = baseline_unaccelerated(prob, prob.x_star.copy(), 10)
        assert max(f_errors) < 1e-20

    def test_scalar_bound(self):
        prob = gen_quadratic(1, 1.0, 1.0, diag=True, seed=0)
        prob.b[:] = 0.0
        prob.x_star = np.zeros(1)
        prob.f_star = 0.0
        _, f_errors = baseline_unaccelerated(prob, np.ones(1), 10)
        assert f_errors[-1] <= 1.0 / 20.0 + 1e-9

    def test_bound_holds_random_quadratic(self):
        prob = gen_quadratic(20, 1.0, 50.0, diag=False, seed=5)
        dist2 = float(np.dot(prob.x_star, prob.x_star))  # |x0 - x*|^2 from x0 = 0
        for T in (1, 10, 100):
            _, f_errors = baseline_unaccelerated(prob, np.zeros(20), T)
            assert f_errors[-1] <= prob.profile.L * dist2 / (2 * T) + 1e-9

    def test_eps_stops_at_first_mean_iterate_below(self):
        prob = gen_quadratic(20, 1.0, 50.0, diag=False, seed=5)
        _, full = baseline_unaccelerated(prob, np.zeros(20), 500)
        first = next(t for t, e in enumerate(full) if e <= 1e-2)
        _, f_errors = baseline_unaccelerated(prob, np.zeros(20), 500, eps=1e-2)
        assert f_errors == full[:first + 1]

    @pytest.mark.parametrize("diag", [True, False])
    def test_is_mirror_prox_replayed_by_hand(self, diag):
        # mirror prox on grad f with r = L/2 |.|^2 at lam = 1, written out
        prob = gen_quadratic(20, 1.0, 50.0, diag=diag, seed=6)
        L, T = prob.profile.L, 300
        mean, f_errors = baseline_unaccelerated(prob, np.zeros(20), T)
        z, acc, replayed = np.zeros(20), np.zeros(20), []
        for t in range(T):
            w = z - prob.grad(z) / L
            z = z - prob.grad(w) / L
            acc += w
            replayed.append(prob.error(acc / (t + 1)))
        assert f_errors == replayed and np.array_equal(mean, acc / T)

    def test_zero_steps_answer_x0(self):
        prob = gen_quadratic(5, 1.0, 4.0, diag=True, seed=4)
        mean, f_errors = baseline_unaccelerated(prob, np.ones(5), 0)
        assert np.array_equal(mean, np.ones(5)) and f_errors == []


class TestEgAccel:
    def test_starts_at_optimum(self):
        prob = gen_quadratic(5, 1.0, 9.0, diag=True, seed=6)
        x = eg_accel(prob, prob.x_star.copy(), 1e-10, eps0=1.0)
        assert np.allclose(x, prob.x_star, atol=1e-9)

    def test_scalar_quadratic(self):
        prob = gen_quadratic(1, 1.0, 1.0, diag=True, seed=0)
        prob.b[:] = 0.0
        prob.x_star = np.zeros(1)
        prob.f_star = 0.0
        x = eg_accel(prob, np.ones(1), 1e-6, eps0=0.5)
        assert abs(x[0]) <= 1e-3

    def test_phase_halving(self):
        prob = gen_quadratic(30, 1.0, 100.0, diag=False, seed=7)
        errs = []
        eg_accel(prob, np.zeros(30), 1e-8,
                 eps0=prob.error(np.zeros(30)),
                 collect=lambda k, x: errs.append(prob.error(x)))
        prev = prob.error(np.zeros(30))
        for e in errs:
            assert e <= 0.5 * prev * (1 + 1e-9) + 1e-12
            prev = e

    def test_default_eps0_is_honest(self, monkeypatch):
        # each accelerated method's default start bounds f(x0) - f* from above:
        # the phase methods run enough phases to halve the true initial error
        # down to eps, and general_norm_accel at least the theorem's steps for it
        def phases_of_eg_accel(prob, eps):
            phases = []
            x = eg_accel(prob, np.zeros(50), eps, collect=lambda k, xp: phases.append(k))
            return x, len(phases), np.ceil(np.log2(prob.error(np.zeros(50)) / eps))

        def phases_of_eg_coord_accel(prob, eps):
            x, info = eg_coord_accel(prob, np.zeros(50), eps, seed=0)
            return x, info["phases"], np.ceil(np.log2(prob.error(np.zeros(50)) / eps))

        def steps_of_general_norm_accel(prob, eps):
            grad, stacked = prob.grad, []  # one stacked grad call per step
            monkeypatch.setattr(prob, "grad", lambda x: stacked.append(x.ndim == 2) or grad(x))
            x = general_norm_accel(prob, ScaledEuclidean(1.0), np.zeros(50), eps)
            theorem = np.ceil(4 * np.sqrt(1e4) * np.log(2 * 1e4 * prob.error(np.zeros(50)) / eps))
            return x, sum(stacked), theorem

        for run in (phases_of_eg_accel, phases_of_eg_coord_accel, steps_of_general_norm_accel):
            for seed, eps in ((s, e) for s in range(6) for e in (1e-2, 1e-4)):
                prob = gen_quadratic(50, 1.0, 1e4, diag=True, seed=seed)
                x, count, needed = run(prob, eps)
                assert prob.error(x) <= eps, (run.__name__, seed, eps)
                assert count >= needed, (run.__name__, seed, eps)

    def test_no_phase_when_eps0_is_at_most_eps(self):
        # both phase methods share K = max(ceil(log2(eps0/eps)), 0): x0 comes back
        # untouched, and the default bound's 2d partials are all eg_coord_accel asks
        prob = gen_quadratic(6, 1.0, 10.0, diag=True, seed=5)
        x0 = make_rng(5).standard_normal(6)
        for eps, eps0 in ((1.0, 0.5), (1.0, 1.0), (1e6, None)):
            phases = []
            x = eg_accel(prob, x0, eps, eps0=eps0, collect=lambda k, xp: phases.append(k))
            assert phases == [] and np.array_equal(x, x0)
            x, info = eg_coord_accel(prob, x0, eps, eps0=eps0, seed=1)
            assert np.array_equal(x, x0)
            assert info["phases"] == info["inner_iterations"] == info["queries"] == 0
            assert info["bound_queries"] == (2 * x0.size if eps0 is None else 0)

    @pytest.mark.parametrize("diag", [True, False])
    def test_explicit_fenchel_game_gives_the_first_phase(self, diag):
        # mirror prox on min_x max_y <y, x> - f*(y) + mu/2 |x|^2 from (x0, grad f(x0)),
        # read back in v = grad f*(y), is the phase eg_accel runs implicitly
        for seed in range(3):
            prob = gen_quadratic(12, 1.0, 50.0, diag=diag, seed=seed)
            x0 = make_rng(seed).standard_normal(12)
            lam = 1.0 + np.sqrt(50.0)
            T = 4 * int(np.ceil(lam))
            z0 = Point(x0, prob.grad(x0))
            ws = [w for w, _, _ in islice(mirror_prox(*cli._fenchel_pair(prob), z0, lam), T)]
            assert len(ws) == T
            mean = sum(prob.grad_fstar(w.y) for w in ws) / T
            phase = eg_accel(prob, x0, 0.5, eps0=1.0)
            assert np.linalg.norm(mean - phase) <= 1e-12 * np.linalg.norm(phase)

    def test_default_eps0_costs_two_gradients(self, monkeypatch):
        prob = gen_quadratic(10, 1.0, 30.0, diag=True, seed=8)
        calls = []
        grad = prob.grad

        def counting_grad(x):
            calls.append(x.shape)
            return grad(x)

        monkeypatch.setattr(prob, "grad", counting_grad)
        phases = []
        eg_accel(prob, np.zeros(10), 1e-9, collect=lambda k, x: phases.append(k))
        T = 4 * int(np.ceil(1.0 + np.sqrt(30.0)))
        # one gradient point per 1-D call, one per row of a stacked call
        points = [1 if len(shape) == 1 else shape[0] for shape in calls]
        assert sum(points) == 2 + 2 * len(phases) * T
        # the 2 that estimate eps0, then one call on 2 rows per inner iteration
        assert calls[:2] == [(10,), (10,)]
        assert calls[2:] == [(2, 10)] * (len(phases) * T)

    @pytest.mark.parametrize("diag", [True, False])
    def test_matches_the_two_query_loop(self, diag):
        # the stacked query and the one-product step change only rounding: every
        # phase iterate matches a loop that asks grad f at v and at v_half in two
        # 1-D calls and moves each vector on its own; the last case is the regime
        # of the smooth benchmark workload, 20 phases of 404 steps
        for seed, d, kappa, K in ((0, 2, 400.0, 27), (1, 30, 400.0, 27),
                                  (2, 200, 400.0, 27), (3, 200, 1e4, 20)):
            prob = gen_quadratic(d, 1.0, kappa, diag=diag, seed=seed)
            x0 = make_rng(seed).standard_normal(d)
            mu = prob.profile.mu
            lam = 1.0 + np.sqrt(prob.profile.L / mu)
            T = 4 * int(np.ceil(lam))
            phases = []
            eg_accel(prob, x0, 2.0 ** -K, eps0=1.0, collect=lambda k, xp: phases.append(xp))
            x_phase = x0.copy()
            for got in phases:
                x, v, v_sum = x_phase.copy(), x_phase.copy(), np.zeros(d)
                for _ in range(T):
                    v_half = v + (x - v) / lam
                    x_half = x - prob.grad(v) / (mu * lam)
                    v_sum += v_half
                    x = x - prob.grad(v_half) / (mu * lam)
                    v = v + (x_half - v_half) / lam
                x_phase = v_sum / T
                assert np.max(np.abs(got - x_phase)) <= 1e-12 * np.max(np.abs(x_phase))
            assert len(phases) == K
        assert (lam, T) == (101.0, 404)  # the last case's phases

    def test_read_only_gradients(self, monkeypatch):
        # the loop copies the oracle's answer and never writes into it
        for diag in (True, False):
            prob = gen_quadratic(20, 1.0, 100.0, diag=diag, seed=12)
            want = eg_accel(prob, np.zeros(20), 1e-8)
            grad = prob.grad

            def frozen_grad(x):
                g = grad(x)
                g.setflags(write=False)
                return g

            monkeypatch.setattr(prob, "grad", frozen_grad)
            assert np.array_equal(eg_accel(prob, np.zeros(20), 1e-8), want)

    # an infinite entry meets a zero coefficient of the step's product: inf * 0
    # is NaN, and numpy says so before the iterate check raises
    @pytest.mark.parametrize("bad", [np.nan] + [
        pytest.param(v, marks=pytest.mark.filterwarnings(
            "ignore:invalid value encountered:RuntimeWarning")) for v in (np.inf, -np.inf)])
    def test_non_finite_gradient_mid_phase_raises(self, monkeypatch, bad):
        prob = gen_quadratic(10, 1.0, 30.0, diag=False, seed=13)
        T = 4 * int(np.ceil(1.0 + np.sqrt(30.0)))
        grad = prob.grad
        calls = []

        def failing_grad(x):
            # one entry of one row turns bad half-way through the second phase
            calls.append(None)
            g = grad(x)
            if len(calls) == T + T // 2:
                g[-1, 3] = bad
            return g

        monkeypatch.setattr(prob, "grad", failing_grad)
        phases = []
        with pytest.raises(NonFiniteIterateError, match="t=1"):
            eg_accel(prob, np.zeros(10), 1e-8, eps0=1.0,
                     collect=lambda k, xp: phases.append(k))
        assert phases == [0] and len(calls) == 2 * T


class TestGeneralNorm:
    def test_starts_at_optimum(self):
        prob = gen_quadratic(6, 1.0, 25.0, diag=True, seed=9)
        x = general_norm_accel(prob, ScaledEuclidean(1.0), prob.x_star.copy(), 1e-8)
        assert prob.error(x) <= 1e-8

    def test_reaches_target_within_theorem_iterations(self):
        prob = gen_quadratic(12, 1.0, 25.0, diag=False, seed=10)
        eps = 1e-6
        L, mu = prob.profile.L, prob.profile.mu
        err0 = prob.error(np.zeros(12))
        T = int(np.ceil(4 * np.sqrt(L / mu) * np.log(2 * L / mu * err0 / eps)))
        x = general_norm_accel(prob, ScaledEuclidean(mu), np.zeros(12), eps, T=T)
        assert prob.error(x) <= eps

    def test_matches_euclidean_path_rate(self):
        prob = gen_quadratic(8, 1.0, 16.0, diag=True, seed=11)
        x = general_norm_accel(prob, ScaledEuclidean(1.0), np.zeros(8), 1e-10)
        assert prob.error(x) <= 1e-10

    @pytest.mark.parametrize("diag", [True, False])
    def test_matches_the_two_query_loop(self, diag):
        # the stacked query changes only rounding: the answer matches a loop
        # that asks grad f at v and at v_half in two 1-D calls
        prob = gen_quadratic(30, 1.0, 400.0, diag=diag, seed=12)
        mu = prob.profile.mu
        lam, rx = 1.0 + np.sqrt(prob.profile.L / mu), ScaledEuclidean(mu)
        x0 = make_rng(12).standard_normal(30)
        for T in (1, 2, 40):
            x, v = x0.copy(), x0.copy()
            for _ in range(T):
                x_half = rx.prox(x, (prob.grad(v) - rx.grad(v) + rx.grad(x)) / lam)
                v_half = (1.0 - 1.0 / lam) * v + x / lam
                gx_w = prob.grad(v_half) - rx.grad(v_half) + rx.grad(x_half)
                x_next = rx.blended_prox(x, x_half, gx_w, lam, 1.0)
                v = (v + v_half / lam - (v_half - x_half) / lam) / (1.0 + 1.0 / lam)
                x = x_next
            got = general_norm_accel(prob, rx, x0, 1e-8, T=T)
            assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))


class OracleOnly:
    """A problem as the paper's accelerated methods may see it: its smoothness
    profile, f, grad f and the coordinate partials.  Any other attribute
    (``error``, ``x_star``, ``f_star``, ``grad_fstar``, ...) raises."""

    SEEN = ("profile", "f", "grad", "partial_at")

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        if name not in self.SEEN:
            raise AssertionError(f"solver read {name}")
        return getattr(self._problem, name)


class TestOracleOnly:
    @pytest.mark.parametrize("diag", [True, False])
    def test_default_paths_read_only_the_oracle(self, diag):
        prob = gen_quadratic(10, 1.0, 30.0, diag=diag, seed=3)
        oracle, x0 = OracleOnly(prob), np.zeros(10)
        assert np.array_equal(eg_accel(oracle, x0, 1e-6), eg_accel(prob, x0, 1e-6))
        assert np.array_equal(general_norm_accel(oracle, ScaledEuclidean(1.0), x0, 1e-6),
                              general_norm_accel(prob, ScaledEuclidean(1.0), x0, 1e-6))
        if diag:
            (x, info), (x_ref, info_ref) = (eg_coord_accel(p, x0, 1e-6, seed=4)
                                            for p in (oracle, prob))
            assert np.array_equal(x, x_ref) and info == info_ref

    def test_the_baseline_is_exempt(self):
        # baseline_unaccelerated is criterion 04's reference run, not a method of
        # the paper: it stops on the true error, which only favours it, and
        # reports that error per step
        prob = gen_quadratic(10, 1.0, 30.0, diag=True, seed=3)
        with pytest.raises(AssertionError, match="solver read error"):
            baseline_unaccelerated(OracleOnly(prob), np.zeros(10), 5)
