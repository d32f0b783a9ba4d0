"""Operator constructions: smoothness constants, box-simplex, minimax, alias sampling."""

import numpy as np
import pytest
import scipy.sparse as sp

from extragrad import (
    Point, make_rng, SmoothnessProfile, lambda_fenchel, lambda_coord,
    lambda_minimax, BoxSimplexInstance, MinimaxProfile, MinimaxInstance,
    AliasTable, ScaledEuclidean, ProductRegularizer, gen_box_simplex,
    linf_regression_reduction,
)


class TestSmoothnessProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothnessProfile(L=1.0, mu=2.0, L_i=[1.0])
        with pytest.raises(ValueError):
            SmoothnessProfile(L=1.0, mu=0.0, L_i=[1.0])
        with pytest.raises(ValueError):
            SmoothnessProfile(L=4.0, mu=1.0, L_i=[1.0, -1.0])

    def test_s_half_and_probabilities(self):
        prof = SmoothnessProfile(L=9.0, mu=1.0, L_i=[1.0, 4.0, 9.0])
        assert prof.s_half == pytest.approx(1.0 + 2.0 + 3.0)
        p = prof.coord_probabilities()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6])


class TestLambdaFormulas:
    def test_lambda_fenchel_values(self):
        assert lambda_fenchel(SmoothnessProfile(4.0, 1.0, [1.0, 4.0])) == pytest.approx(3.0)
        assert lambda_fenchel(SmoothnessProfile(7.0, 7.0, [7.0])) == pytest.approx(2.0)
        assert lambda_fenchel(SmoothnessProfile(100.0, 1.0, [1.0, 100.0])) == pytest.approx(11.0)

    def test_lambda_minimax_values(self):
        # bilinear coupling only
        assert lambda_minimax(MinimaxProfile(0.0, 1.0, 0.0, 1.0, 1.0)) == pytest.approx(1.0)
        # all blocks equal
        assert lambda_minimax(MinimaxProfile(5.0, 5.0, 5.0, 1.0, 1.0)) == pytest.approx(15.0)
        # mixed arithmetic: 2/1 + sqrt(36/4) + 8/4
        assert lambda_minimax(MinimaxProfile(2.0, 6.0, 8.0, 1.0, 4.0)) == pytest.approx(7.0)

    def test_lambda_coord(self):
        prof = SmoothnessProfile(9.0, 1.0, L_i=[1.0, 4.0, 9.0])
        assert lambda_coord(prof) == pytest.approx(7.0)


class TestBoxSimplexInstance:
    def test_zero_instance(self):
        inst = BoxSimplexInstance(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        out = inst.operator(Point([0.5, -0.5], [0.5, 0.5]))
        assert np.allclose(out.x, 0.0) and np.allclose(out.y, 0.0)

    def test_scalar_instance(self):
        inst = BoxSimplexInstance([[1.0]], [0.0], [0.0])
        out = inst.operator(Point([1.0], [1.0]))
        assert np.allclose(out.x, [1.0]) and np.allclose(out.y, [-1.0])

    def test_against_dense_reference(self):
        rng = make_rng(2)
        A = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        c = rng.standard_normal(2)
        inst = BoxSimplexInstance(A, b, c)
        x = rng.uniform(-1, 1, 2)
        y = np.array([0.2, 0.3, 0.5])
        out = inst.operator(Point(x, y))
        assert np.allclose(out.x, A.T @ y + c, atol=1e-12)
        assert np.allclose(out.y, b - A @ x, atol=1e-12)

    def test_operator_norm_is_max_row_l1(self):
        A = np.array([[1.0, -2.0], [0.5, 0.25]])
        inst = BoxSimplexInstance(A, np.zeros(2), np.zeros(2))
        assert inst.op_norm == pytest.approx(3.0)

    def test_operator_is_affine(self):
        rng = make_rng(3)
        inst = BoxSimplexInstance(rng.standard_normal((4, 3)),
                                  rng.standard_normal(4), rng.standard_normal(3))
        z = Point(rng.uniform(-1, 1, 3), np.full(4, 0.25))
        w = Point(rng.uniform(-1, 1, 3), np.array([0.1, 0.2, 0.3, 0.4]))
        for alpha in (0.0, 0.3, 1.0):
            mix = alpha * z + (1 - alpha) * w
            lhs = inst.operator(mix)
            rhs = alpha * inst.operator(z) + (1 - alpha) * inst.operator(w)
            assert np.allclose(lhs.x, rhs.x, atol=1e-12)
            assert np.allclose(lhs.y, rhs.y, atol=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            BoxSimplexInstance(np.zeros((2, 2)), np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("make, dense", [
        (lambda: linf_regression_reduction(make_rng(100).standard_normal((10, 5)),
                                           make_rng(101).standard_normal(10)), True),
        (lambda: gen_box_simplex(50, 40, 0.5, seed=0), True),
        (lambda: gen_box_simplex(400, 300, 0.01, seed=0), False),
        (lambda: gen_box_simplex(2000, 1500, 0.01, seed=0), False),
    ], ids=["linf 10x5 stacked", "50x40 at 50%", "400x300 at 1%", "2000x1500 at 1%"])
    def test_product_storage_follows_size_and_density(self, make, dense):
        inst = make()
        assert sp.issparse(inst.A) and inst.A.format == "csr"
        operands = (inst.A_op, inst.At, inst.abs_A, inst.abs_At)
        if dense:
            assert all(isinstance(M, np.ndarray) for M in operands)
            assert np.array_equal(inst.A_op, inst.A.toarray())
            assert np.array_equal(inst.abs_A, abs(inst.A).toarray())
        else:
            assert all(sp.issparse(M) for M in operands)
            assert inst.A_op is inst.A


class TestMinimaxInstance:
    def test_decoupled_operator(self):
        inst = MinimaxInstance(2.0, 3.0, np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        out = inst.operator(Point([1.0, -1.0], [0.5, 0.5]))
        assert np.allclose(out.x, [2.0, -2.0])
        assert np.allclose(out.y, [1.5, 1.5])

    def test_operator_vanishes_at_saddle(self):
        rng = make_rng(4)
        inst = MinimaxInstance(1.0, 2.0, rng.standard_normal((3, 2)),
                               rng.standard_normal(3), rng.standard_normal(2))
        z = inst.saddle_point()
        out = inst.operator(z)
        assert np.linalg.norm(out.x) < 1e-10 and np.linalg.norm(out.y) < 1e-10

    def test_decoupled_saddle_closed_form(self):
        q, r = np.array([2.0, -4.0]), np.array([6.0])
        inst = MinimaxInstance(2.0, 3.0, np.zeros((2, 1)), q, r)
        z = inst.saddle_point()
        assert np.allclose(z.x, -q / 2.0)
        assert np.allclose(z.y, -r / 3.0)

    def test_operator_matches_finite_differences(self):
        rng = make_rng(5)
        inst = MinimaxInstance(1.5, 0.5, rng.standard_normal((3, 2)),
                               rng.standard_normal(3), rng.standard_normal(2))
        x, y = rng.standard_normal(3), rng.standard_normal(2)
        h = 1e-4
        gx = np.zeros(3)
        for i in range(3):
            e = np.zeros(3); e[i] = h
            gx[i] = (inst.f(x + e, y) - inst.f(x - e, y)) / (2 * h)
        gy = np.zeros(2)
        for j in range(2):
            e = np.zeros(2); e[j] = h
            gy[j] = -(inst.f(x, y + e) - inst.f(x, y - e)) / (2 * h)
        out = inst.operator(Point(x, y))
        assert np.max(np.abs(out.x - gx)) < 1e-5
        assert np.max(np.abs(out.y - gy)) < 1e-5

    def test_strong_monotonicity_sampled(self):
        rng = make_rng(6)
        inst = MinimaxInstance(1.0, 2.0, rng.standard_normal((3, 2)), np.zeros(3), np.zeros(2))
        r = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(2.0))
        for _ in range(200):
            z = Point(rng.standard_normal(3), rng.standard_normal(2))
            w = Point(rng.standard_normal(3), rng.standard_normal(2))
            lhs = (inst.operator(w) - inst.operator(z)).dot(w - z)
            rhs = r.divergence(w, z) + r.divergence(z, w)
            assert lhs >= rhs - 1e-9


class TestAliasTable:
    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            AliasTable([0.5, 0.6])
        with pytest.raises(ValueError):
            AliasTable([1.5, -0.5])

    def test_draw_frequencies(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        table = AliasTable(p)
        rng = make_rng(123)
        counts = np.zeros(4)
        n = 40000
        for _ in range(n):
            counts[table.draw(rng)] += 1
        assert np.max(np.abs(counts / n - p)) < 0.01

    def test_degenerate_distribution(self):
        table = AliasTable([0.0, 1.0])
        rng = make_rng(0)
        assert all(table.draw(rng) == 1 for _ in range(50))
