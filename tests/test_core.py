"""Geometry layer: points, feasible sets, divergences, prox maps, conjugates."""

import numpy as np
import pytest

from extragrad import (
    Point, Box, Simplex, Everywhere, ProductSet, DomainError,
    QuadraticProblem, ScaledEuclidean, NegativeEntropy,
    ConjugateRegularizer, ProductRegularizer, make_rng,
)


class TestPoint:
    def test_arithmetic(self):
        a = Point([1.0, 2.0], [3.0])
        b = Point([0.5, 0.5], [1.0])
        s = a + b
        assert np.allclose(s.x, [1.5, 2.5]) and np.allclose(s.y, [4.0])
        d = a - b
        assert np.allclose(d.x, [0.5, 1.5]) and np.allclose(d.y, [2.0])
        assert np.allclose((2.0 * a).x, [2.0, 4.0])
        assert a.dot(b) == pytest.approx(0.5 + 1.0 + 3.0)

    def test_empty_dual_block(self):
        p = Point([1.0, 2.0])
        assert p.y.size == 0 and p.x.size == 2
        assert p.dot(p) == pytest.approx(5.0)

    def test_finite_detection(self):
        assert Point([1.0], [2.0]).finite()
        assert not Point([np.inf], [0.0]).finite()
        assert not Point([0.0], [np.nan]).finite()


class TestFeasibleSets:
    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_simplex_sample_margin(self):
        s = Simplex(4)
        rng = make_rng(0)
        for _ in range(100):
            p = s.sample(rng, margin=1e-3)
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12
            assert np.all(p >= 1e-3 / 4 - 1e-15)

    def test_product_sample(self):
        dom = ProductSet(Box(-np.ones(2), np.ones(2)), Simplex(3))
        rng = make_rng(1)
        z = dom.sample(rng, 0.01)
        assert np.all(np.abs(z.x) <= 1.0)
        assert np.all(z.y >= 0.0) and abs(float(np.sum(z.y)) - 1.0) <= 1e-12


class TestDivergence:
    def test_scaled_euclidean_value(self):
        # half squared distance between (0,0) and (3,4)
        reg = ScaledEuclidean(1.0)
        assert reg.divergence(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_entropy_kl_to_uniform(self):
        reg = NegativeEntropy(1.0)
        val = reg.divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert val == pytest.approx(np.log(2.0), abs=1e-12)

    def test_dual_divergence_identity(self):
        # f(x) = 1/2 * 2 x^2; V^{f*}_{f'(1)}(f'(3)) equals V^f_3(1) = 4
        oracle = QuadraticProblem(np.array([2.0]), np.zeros(1), 2.0, 2.0)
        reg = ConjugateRegularizer(oracle)
        lhs = reg.divergence(np.array([2.0]), np.array([6.0]))
        x1, x3 = np.array([1.0]), np.array([3.0])
        rhs = oracle.f(x1) - oracle.f(x3) - float(oracle.grad(x3) @ (x1 - x3))
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert rhs == pytest.approx(4.0, abs=1e-12)
        # dense M, through the Cholesky solves: both equal 1/2 (x1-x3)^T M (x1-x3)
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        dense = QuadraticProblem(M, np.array([0.5, -1.0]), *np.linalg.eigvalsh(M))
        x1, x3 = np.array([1.0, -2.0]), np.array([3.0, 0.5])
        lhs = ConjugateRegularizer(dense).divergence(dense.grad(x1), dense.grad(x3))
        rhs = dense.f(x1) - dense.f(x3) - float(dense.grad(x3) @ (x1 - x3))
        assert lhs == pytest.approx(18.375, rel=1e-12)
        assert rhs == pytest.approx(18.375, rel=1e-12)

    def test_entropy_rejects_zero_base(self):
        reg = NegativeEntropy(1.0)
        with pytest.raises(DomainError):
            reg.grad(np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            reg.divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_product_sums_blockwise(self):
        reg = ProductRegularizer(ScaledEuclidean(2.0), ScaledEuclidean(1.0))
        a = Point([0.0], [0.0])
        b = Point([1.0], [2.0])
        assert reg.divergence(a, b) == pytest.approx(1.0 + 2.0)

    def test_nonnegativity_sampled(self):
        rng = make_rng(7)
        M = np.exp(rng.uniform(0, 2, size=5))
        oracle = QuadraticProblem(M, np.zeros(5), M.min(), M.max())
        regs = [ScaledEuclidean(0.7), ConjugateRegularizer(oracle)]
        for reg in regs:
            for _ in range(200):
                a = rng.standard_normal(5)
                b = rng.standard_normal(5)
                assert reg.divergence(a, b) >= -1e-9

    def test_convexity_in_second_argument_sampled(self):
        reg = NegativeEntropy(1.3)
        rng = make_rng(8)
        s = Simplex(4)
        for _ in range(200):
            a = s.sample(rng, 1e-3)
            b = s.sample(rng, 1e-3)
            c = s.sample(rng, 1e-3)
            mid = 0.5 * (b + c)
            assert (reg.divergence(a, mid)
                    <= 0.5 * reg.divergence(a, b) + 0.5 * reg.divergence(a, c) + 1e-9)


class TestProx:
    def test_euclidean_prox(self):
        reg = ScaledEuclidean(1.0)
        out = reg.prox(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 2.0])

    def test_entropy_prox_closed_form(self):
        reg = NegativeEntropy(1.0)
        out = reg.prox(np.array([0.5, 0.5]), np.array([0.0, np.log(2.0)]))
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0])

    def test_zero_gradient_returns_base(self):
        rng = make_rng(3)
        z = rng.standard_normal(4)
        assert np.allclose(ScaledEuclidean(2.5).prox(z, np.zeros(4)), z)
        s = Simplex(4).sample(rng, 1e-2)
        assert np.allclose(NegativeEntropy(3.0).prox(s, np.zeros(4)), s)

    def test_prox_optimality_sampled(self):
        # <g + grad r(w) - grad r(z), u - w> >= 0 for feasible u
        reg = NegativeEntropy(1.0)
        rng = make_rng(4)
        s = Simplex(3)
        for _ in range(100):
            z = s.sample(rng, 1e-3)
            g = rng.standard_normal(3)
            w = reg.prox(z, g)
            u = s.sample(rng, 1e-3)
            lhs = float((g + reg.grad(w) - reg.grad(z)) @ (u - w))
            assert lhs >= -1e-9


class TestConjugateOracle:
    def test_identity_quadratic(self):
        oracle = QuadraticProblem(np.eye(2), np.zeros(2), 1.0, 1.0)
        assert np.allclose(oracle.grad_fstar(np.array([5.0, -1.0])), [5.0, -1.0])

    def test_diagonal_inverse(self):
        oracle = QuadraticProblem(np.array([2.0, 4.0]), np.zeros(2), 2.0, 4.0)
        assert np.allclose(oracle.grad_fstar(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_gradients_are_inverse_maps(self):
        rng = make_rng(11)
        B = rng.standard_normal((5, 5))
        M = B @ B.T + 5 * np.eye(5)
        ev = np.linalg.eigvalsh(M)
        oracle = QuadraticProblem(M, rng.standard_normal(5), ev[0], ev[-1])
        for _ in range(20):
            x = rng.standard_normal(5)
            back = oracle.grad_fstar(oracle.grad(x))
            assert np.linalg.norm(back - x) <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([1.0, 0.0]), np.zeros(2), 1.0, 1.0)

    def test_rejects_asymmetric_matrix(self):
        # cholesky sees [[2, 0], [0, 3]], while grad uses all of M, whose
        # symmetric part [[2, 2.5], [2.5, 3]] is indefinite
        with pytest.raises(ValueError, match="M must be symmetric"):
            QuadraticProblem(np.array([[2.0, 5.0], [0.0, 3.0]]), np.zeros(2), 2.0, 3.0)

    def test_accepts_asymmetry_from_rounding(self):
        Q = np.linalg.qr(make_rng(12).standard_normal((6, 6)))[0]
        M = (Q * np.linspace(1.0, 9.0, 6)) @ Q.T
        assert not np.array_equal(M, M.T)
        oracle = QuadraticProblem(M, np.zeros(6), 1.0, 9.0)
        assert oracle.spectrum_extremes() == pytest.approx((1.0, 9.0))


class TestThreePointIdentity:
    @pytest.mark.parametrize("reg,sampler_margin", [
        (ScaledEuclidean(1.7), None),
        (NegativeEntropy(2.0), 1e-3),
    ])
    def test_three_point_equality(self, reg, sampler_margin):
        rng = make_rng(21)
        s = Simplex(4)
        for _ in range(200):
            if sampler_margin is None:
                a, b, c = (rng.standard_normal(4) for _ in range(3))
            else:
                a, b, c = (s.sample(rng, sampler_margin) for _ in range(3))
            lhs = float((reg.grad(a) - reg.grad(b)) @ (b - c))
            rhs = reg.divergence(a, c) - reg.divergence(b, c) - reg.divergence(a, b)
            assert lhs == pytest.approx(rhs, abs=1e-9)
