"""Coordinate-sampled accelerated solver: implicit iterates, estimators, budgets."""

import numpy as np
import pytest

from extragrad import (
    eg_coord_accel, eg_accel, gen_quadratic, make_rng,
    coord_trajectory, check_estimator_conditions, lambda_coord,
)
from extragrad.operators import AliasTable
from extragrad.problems import QuadraticProblem
from extragrad.solvers import ImplicitIterate
from extragrad.verify import coord_shadow_error


class TestImplicitIterate:
    def test_refactor_preserves_point(self):
        rng = make_rng(1)
        it = ImplicitIterate(np.eye(2), rng.standard_normal(4), rng.standard_normal(4))
        # drive the matrix toward singularity, then refactor
        A = np.array([[1.0, 0.9], [0.0, 0.1]])
        for _ in range(50):
            it.B = it.B @ A
        x, v = it.reconstruct()
        it.refactor()
        x2, v2 = it.reconstruct()
        assert np.allclose(it.B, np.eye(2))
        assert np.allclose(x2, x) and np.allclose(v2, v)


class TestShadowAgreement:
    def test_implicit_matches_explicit_1d(self):
        prob = gen_quadratic(1, 1.0, 1.0, diag=True, seed=0)
        x_imp, info = eg_coord_accel(prob, np.ones(1), 1e-6, eps0=1.0, seed=3)
        x_exp = eg_accel(prob, np.ones(1), 1e-6, eps0=1.0)
        # d=1: the only coordinate is always sampled, so paths coincide
        assert np.allclose(x_imp, x_exp, atol=1e-8)

    def test_shadow_error_small_over_long_run(self):
        prob = gen_quadratic(10, 1.0, 40.0, diag=True, seed=4)
        info = coord_shadow_error(prob, np.zeros(10), 1e-10, eps0=1.0, seed=5)
        assert info["inner_iterations"] >= 1000
        assert info["shadow_err"] <= 1e-8


class TestCallback:
    def test_floats_and_a_current_iterate_at_every_step(self):
        prob = gen_quadratic(12, 1.0, 30.0, diag=True, seed=14)
        lam, mu = lambda_coord(prob.profile), prob.profile.mu
        p = prob.profile.coord_probabilities()
        last, steps, moves = None, 0, []

        def check(i, g_v, g_vh, state):
            nonlocal last, steps
            now = state.p.copy(), state.q.copy(), state.B.copy()
            if i is None:
                assert np.array_equal(now[0], now[1]) and np.array_equal(now[2], np.eye(2))
            else:
                steps += 1
                assert type(g_v) is float and type(g_vh) is float
                (x, q, B), (x1, q1, B1) = last, now
                x_i, v_i = x[i], B[0, 1] * x[i] + B[1, 1] * q[i]
                assert g_v == prob.partial_at(i, v_i)
                assert g_vh == prob.partial_at(i, (1.0 - 1.0 / lam) * v_i + x_i / lam)
                # only coordinate i moves, by the step that B1 implies
                assert set(np.flatnonzero(x1 != x)) <= {i} and set(np.flatnonzero(q1 != q)) <= {i}
                moves.append(x1[i] != x[i])
                s1, s2 = g_vh / (mu * lam * p[i]), g_v / (mu * lam**2 * p[i]**2)
                assert x1[i] == x[i] - s1 and q1[i] == q[i] + (s1 * B1[0, 1] - s2) / B1[1, 1]
            last = now

        _, info = eg_coord_accel(prob, np.zeros(12), 1e-6, seed=15, callback=check)
        assert steps == info["inner_iterations"] > 0 and sum(moves) > steps / 2


class TestEstimators:
    def test_two_queries_per_iteration(self):
        prob = gen_quadratic(6, 1.0, 10.0, diag=True, seed=6)
        _, info = eg_coord_accel(prob, np.zeros(6), 1e-4, eps0=1.0, seed=7)
        assert info["queries"] == 2 * info["inner_iterations"]

    def test_unbiased_and_rel_lipschitz_d4(self):
        prob = gen_quadratic(4, 1.0, 9.0, diag=True, seed=8)
        lam = lambda_coord(prob.profile)
        p = prob.profile.coord_probabilities()
        states = []
        for x_t, v_t in coord_trajectory(prob, np.ones(4), 30, seed=9, p=p):
            states.append((x_t, v_t))
        u = (prob.x_star, prob.x_star)
        report = check_estimator_conditions(prob, states, u, lam, p)
        assert report.passed
        assert report.details["worst_identity_error"] < 1e-10
        assert report.worst <= lam * (1 + 1e-6) + 1e-9

    def test_wrong_probabilities_falsified(self):
        # sampling proportional to L_i (not sqrt) breaks the lambda certificate
        prob = gen_quadratic(4, 1.0, 400.0, diag=True, seed=10)
        lam = lambda_coord(prob.profile)
        p_bad = prob.profile.L_i / prob.profile.L_i.sum()
        states = list(coord_trajectory(prob, np.ones(4), 30, seed=11, p=p_bad))
        report = check_estimator_conditions(prob, states, (prob.x_star, prob.x_star),
                                            lam, p_bad)
        assert report.worst > lam * (1 + 1e-6) + 1e-9
        assert not report.passed

    @pytest.mark.parametrize("L, seed", [(100.0, 1), (100.0, 0), (1e4, 1)])
    def test_identity_error_is_judged_against_the_terms_it_sums(self, L, seed):
        # from 100 (1, ..., 1) the identity's terms are large, and its rounding
        # error (3e-9 to 1.5e-5) passes NOISE times their magnitudes
        prob = gen_quadratic(8, 1.0, L, diag=True, seed=seed)
        states = coord_trajectory(prob, 100 * np.ones(8), 50, seed=seed)
        report = check_estimator_conditions(prob, states, (prob.x_star, prob.x_star))
        assert report.passed and report.details["worst_identity_error"] > 1e-9
        assert report.worst <= report.constant

    def test_probabilities_off_their_sum_break_the_identity(self):
        # read at p (1 + 1e-9), the identity is off by 4.5e-9 while every ratio
        # stays within lam
        prob = gen_quadratic(4, 1.0, 9.0, diag=True, seed=8)
        p = prob.profile.coord_probabilities()
        states = coord_trajectory(prob, np.ones(4), 30, seed=9, p=p)
        report = check_estimator_conditions(prob, states, (prob.x_star, prob.x_star),
                                            p=p * (1.0 + 1e-9))
        assert report.worst <= report.constant and not report.passed
        assert report.details["worst_identity_error"] > 1e-9

    @pytest.mark.parametrize("d, L", [(4, 4.0), (4, 100.0), (8, 50.0)])
    @pytest.mark.parametrize("seed", range(6))
    def test_converged_states_pass(self, seed, d, L):
        # Near the optimum both sides of the ratio are rounding noise of the terms
        # that cancel in them; such a state is skipped, not failed.
        prob = gen_quadratic(d, 1.0, L, diag=True, seed=seed)
        states = coord_trajectory(prob, np.zeros(d), 400, seed=seed)
        u = (prob.x_star, prob.x_star)
        failing = [k for k in range(1, 400, 3)
                   if not check_estimator_conditions(prob, [states[k]], u).passed]
        assert failing == []

    def test_oracle_calls_per_state(self, monkeypatch):
        d, n = 4, 3
        prob = gen_quadratic(d, 1.0, 9.0, diag=True, seed=8)
        states = coord_trajectory(prob, np.ones(d), n, seed=9)
        calls = []
        for name in ("grad", "f"):
            method = getattr(QuadraticProblem, name)
            monkeypatch.setattr(QuadraticProblem, name, lambda self, x, name=name, method=method:
                                calls.append((name, np.ndim(x))) or method(self, x))
        check_estimator_conditions(prob, states, (prob.x_star, prob.x_star))
        # grad f at u once; per state one stacked call at (v_t, v_half), then
        # v_half and each v_next alone; f at v_t, v_half and each v_next
        assert calls.count(("grad", 2)) == n
        assert calls.count(("grad", 1)) == 1 + n * (d + 1)
        assert calls.count(("f", 1)) == n * (d + 2)
        assert len(calls) == 1 + n * (2 * d + 4)

    def test_enumeration_refused_in_high_dim(self):
        prob = gen_quadratic(20, 1.0, 5.0, diag=True, seed=12)
        lam = lambda_coord(prob.profile)
        p = prob.profile.coord_probabilities()
        states = list(coord_trajectory(prob, np.zeros(20), 2, seed=0, p=p))
        with pytest.raises(ValueError):
            check_estimator_conditions(prob, states, (prob.x_star, prob.x_star),
                                       lam, p)


class TestConvergence:
    def test_reaches_target_accuracy(self):
        prob = gen_quadratic(12, 1.0, 30.0, diag=True, seed=14)
        x, info = eg_coord_accel(prob, np.zeros(12), 1e-6, seed=15)
        assert prob.error(x) <= 1e-6

    def test_average_phases_variant(self):
        # averaged phases are the solver's only rule: no argument selects them
        prob = gen_quadratic(8, 1.0, 25.0, diag=True, seed=16)
        x, info = eg_coord_accel(prob, np.zeros(8), 1e-6, seed=17)
        assert prob.error(x) <= 1e-6

    @pytest.mark.parametrize("d, L, prob_seed, seeds", [
        (50, 200.0, 4, range(21)),  # criterion 08(c)'s instance
        (1, 1.0, 0, [3]), (8, 25.0, 16, [17]), (12, 30.0, 14, [15]),
    ])
    def test_phase_restarts_from_the_explicit_average(self, d, L, prob_seed, seeds):
        # the same draws, with x, v and the sum of half-points held explicitly
        prob = gen_quadratic(d, 1.0, L, diag=True, seed=prob_seed)
        lam, mu = lambda_coord(prob.profile), prob.profile.mu
        p = prob.profile.coord_probabilities()
        T = 4 * int(np.ceil(lam))
        a01, a11 = 1.0 / lam - 1.0 / lam**2, 1.0 - 1.0 / lam + 1.0 / lam**2
        step_x, step_v = 1.0 / (mu * lam * p), 1.0 / (mu * lam**2 * p**2)
        eps = 1e-4
        K = max(int(np.ceil(np.log2(max(prob.error(np.zeros(d)), eps) / eps))), 1)
        for seed in seeds:
            x_imp, info = eg_coord_accel(prob, np.zeros(d), eps, eps0=prob.error(np.zeros(d)),
                                         seed=seed)
            alias, rng = AliasTable(p), make_rng(seed)
            x_phase = np.zeros(d)
            for _ in range(K):
                x, v, v_sum = x_phase.copy(), x_phase.copy(), np.zeros(d)
                for i in alias.draw(rng, T):
                    v_half = (1.0 - 1.0 / lam) * v + x / lam
                    v_sum += v_half
                    g_v, g_vh = prob.partial_at(i, v[i]), prob.partial_at(i, v_half[i])
                    v = a11 * v + a01 * x
                    v[i] -= g_v * step_v[i]
                    x[i] -= g_vh * step_x[i]
                x_phase = v_sum / T
            assert info["inner_iterations"] == K * T
            assert np.max(np.abs(x_imp - x_phase)) <= 1e-12 * np.max(np.abs(x_phase))

    def test_a_step_costs_o1(self, monkeypatch):
        # no callback: no O(d) reconstruct and no full gradient inside a phase
        reconstructs = []
        original = ImplicitIterate.reconstruct
        monkeypatch.setattr(ImplicitIterate, "reconstruct",
                            lambda self: reconstructs.append(1) or original(self))
        prob = gen_quadratic(20, 1.0, 50.0, diag=True, seed=20)
        grads = []
        prob.grad = lambda x: grads.append(1) or type(prob).grad(prob, x)
        _, info = eg_coord_accel(prob, np.zeros(20), 1e-4, eps0=1.0, seed=21)
        assert info["inner_iterations"] > 0
        assert reconstructs == [] and grads == []
        assert info["queries"] == 2 * info["inner_iterations"]

    def test_deterministic_given_seed(self):
        prob = gen_quadratic(9, 1.0, 16.0, diag=True, seed=18)
        x1, i1 = eg_coord_accel(prob, np.zeros(9), 1e-5, seed=19)
        x2, i2 = eg_coord_accel(prob, np.zeros(9), 1e-5, seed=19)
        assert np.array_equal(x1, x2)
        assert i1["queries"] == i2["queries"]
