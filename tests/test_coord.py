"""Coordinate-sampled accelerated solver: implicit iterates, estimators, budgets."""

import numpy as np
import pytest

from extragrad import (
    eg_coord_accel, eg_accel, gen_quadratic, make_rng,
    coord_trajectory, check_estimator_conditions, lambda_coord,
)
from extragrad.solvers import ImplicitIterate
from extragrad.verify import coord_shadow_error


class TestImplicitIterate:
    def test_coord_matches_reconstruct(self):
        rng = make_rng(0)
        B = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        p, q = rng.standard_normal(6), rng.standard_normal(6)
        it = ImplicitIterate(B.copy(), p.copy(), q.copy())
        x, v = it.reconstruct()
        for i in range(6):
            xi, vi = it.coord(i)
            assert xi == pytest.approx(x[i], abs=1e-14)
            assert vi == pytest.approx(v[i], abs=1e-14)

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
        for x_t, v_t in coord_trajectory(prob, np.ones(4), 30, seed=9,
                                         lam=lam, p=p):
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
        states = list(coord_trajectory(prob, np.ones(4), 30, seed=11,
                                       lam=lam, p=p_bad))
        report = check_estimator_conditions(prob, states, (prob.x_star, prob.x_star),
                                            lam, p_bad)
        assert report.worst > lam * (1 + 1e-6) + 1e-9
        assert not report.passed

    def test_enumeration_refused_in_high_dim(self):
        prob = gen_quadratic(20, 1.0, 5.0, diag=True, seed=12)
        lam = lambda_coord(prob.profile)
        p = prob.profile.coord_probabilities()
        states = list(coord_trajectory(prob, np.zeros(20), 2, seed=0, lam=lam, p=p))
        with pytest.raises(ValueError):
            check_estimator_conditions(prob, states, (prob.x_star, prob.x_star),
                                       lam, p)


class TestConvergence:
    def test_reaches_target_accuracy(self):
        prob = gen_quadratic(12, 1.0, 30.0, diag=True, seed=14)
        x, info = eg_coord_accel(prob, np.zeros(12), 1e-6, seed=15)
        assert prob.error(x) <= 1e-6

    def test_average_phases_variant(self):
        prob = gen_quadratic(8, 1.0, 25.0, diag=True, seed=16)
        x, info = eg_coord_accel(prob, np.zeros(8), 1e-6, seed=17,
                                 average_phases=True)
        assert prob.error(x) <= 1e-6

    def test_deterministic_given_seed(self):
        prob = gen_quadratic(9, 1.0, 16.0, diag=True, seed=18)
        x1, i1 = eg_coord_accel(prob, np.zeros(9), 1e-5, seed=19)
        x2, i2 = eg_coord_accel(prob, np.zeros(9), 1e-5, seed=19)
        assert np.array_equal(x1, x2)
        assert i1["queries"] == i2["queries"]
