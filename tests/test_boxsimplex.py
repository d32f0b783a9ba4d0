"""Box-simplex games: coupled regularizer, preprocessing, certified solve."""

import itertools

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from extragrad import (
    Point, Simplex, make_rng, gen_box_simplex, BoxSimplexInstance,
    solve_box_simplex, duality_gap, preprocess, linf_regression_reduction,
    iteration_budget, ShermanRegularizer,
)
from extragrad import boxsimplex, cli, operators
from extragrad.solvers import NonFiniteIterateError
from extragrad.boxsimplex import (LAMBDA_BOX_SIMPLEX, LAMBDA_GROW, LAMBDA_SHRINK,
                                  ENTROPY_SCALE_FACTOR)


def small_instance(seed=0, m=6, n=5, density=0.7):
    return gen_box_simplex(m, n, density, seed=seed)


def tol_floor(inst):
    """The tightest prox tolerance a solve uses: 1e-10 max(||A||, 1)."""
    return 1e-10 * max(inst.op_norm, 1.0)


def prox_point(reg, z, g):
    """The output point of a prox from z alone, at the tightest tolerance."""
    return reg.prox(z, g, reg.z_terms(z), tol_floor(reg.inst))[0]


def sample_domain(inst, rng, margin=1e-2):
    x = rng.uniform(-1 + margin, 1 - margin, size=inst.n)
    y = Simplex(inst.m).sample(rng, margin)
    return Point(x, y)


class TestPreprocess:
    def test_dominated_row_dropped(self):
        # ||A|| = 1; rows with b_i >= min b + 2 are never the best response
        A = np.array([[1.0], [1.0], [1.0]])
        inst = BoxSimplexInstance(A, np.array([0.0, 5.0, 1.0]), np.zeros(1))
        out = preprocess(inst)
        assert list(out.kept_rows) == [0, 2]
        assert np.allclose(out.b, [0.0, 1.0])
        assert out.shift == 0.0

    def test_shift_to_zero_minimum(self):
        A = np.array([[1.0], [-1.0]])
        inst = BoxSimplexInstance(A, np.array([3.0, 4.0]), np.zeros(1))
        out = preprocess(inst)
        assert np.allclose(out.b, [0.0, 1.0])
        assert out.shift == 3.0
        assert list(out.kept_rows) == [0, 1]

    def test_all_equal_b_keeps_everything(self):
        inst = small_instance(seed=1)
        inst2 = BoxSimplexInstance(inst.A, np.full(inst.m, 7.0), inst.c)
        out = preprocess(inst2)
        assert out.m == inst.m
        assert np.allclose(out.b, 0.0)

    def test_value_preserved_up_to_shift(self):
        inst = small_instance(seed=2)
        out = preprocess(inst)
        rng = make_rng(3)
        x = rng.uniform(-1, 1, size=inst.n)
        # best simplex response value is invariant: dominated rows never win
        best_full = float(np.max(inst.A @ x - inst.b)) + float(inst.c @ x)
        best_kept = float(np.max(out.A @ x - out.b)) + float(out.c @ x)
        assert best_full == pytest.approx(best_kept - out.shift, abs=1e-12)


class TestShermanRegularizer:
    def test_zero_gradient_prox_is_identity(self):
        inst = small_instance(seed=4)
        reg = ShermanRegularizer(inst)
        rng = make_rng(5)
        z = sample_domain(inst, rng)
        out = prox_point(reg, z, Point(np.zeros(inst.n), np.zeros(inst.m)))
        assert np.allclose(out.x, z.x, atol=1e-8)
        assert np.allclose(out.y, z.y, atol=1e-8)

    def test_value_range(self):
        inst = small_instance(seed=6)
        reg = ShermanRegularizer(inst)
        rng = make_rng(7)
        lo = -ENTROPY_SCALE_FACTOR * inst.op_norm * np.log(inst.m)
        hi = inst.op_norm
        for _ in range(100):
            val = reg.z_terms(sample_domain(inst, rng, margin=1e-6)).r_z
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_divergence_nonnegative(self):
        inst = small_instance(seed=8)
        reg = ShermanRegularizer(inst)
        rng = make_rng(9)
        for _ in range(100):
            a, b = sample_domain(inst, rng), sample_domain(inst, rng)
            assert reg.divergence(a, b) >= -1e-10

    def test_scalar_prox_matches_grid_search(self):
        # m = n = 1: y is pinned to 1, the x subproblem is solved on a fine grid
        inst = BoxSimplexInstance(np.array([[0.8]]), np.zeros(1), np.zeros(1))
        reg = ShermanRegularizer(inst)
        z = Point(np.array([0.3]), np.array([1.0]))
        g = Point(np.array([0.5]), np.array([0.0]))
        out = prox_point(reg, z, g)
        grid = np.linspace(-1.0, 1.0, 10001)
        objective = [g.x[0] * x
                     + reg.divergence(Point(np.array([x]), np.array([1.0])), z)
                     for x in grid]
        best = grid[int(np.argmin(objective))]
        assert out.x[0] == pytest.approx(best, abs=1e-4)

    def test_prox_optimality_sampled(self):
        inst = small_instance(seed=10, m=4, n=3)
        reg = ShermanRegularizer(inst)
        rng = make_rng(11)
        for _ in range(20):
            z = sample_domain(inst, rng)
            g = Point(0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(4))
            w = prox_point(reg, z, g)
            gr = reg.grad(w) - reg.grad(z) + g
            for _ in range(10):
                u = sample_domain(inst, rng)
                assert gr.dot(u - w) >= -1e-6 * max(1.0, inst.op_norm)

    def test_hessian_diagonal_lower_bound(self):
        # finite-difference quadratic forms of grad dominate the diagonal model
        inst = small_instance(seed=14, m=5, n=4)
        reg = ShermanRegularizer(inst)
        rng = make_rng(15)
        h = 1e-5
        for _ in range(30):
            z = sample_domain(inst, rng, margin=0.05)
            v = Point(rng.standard_normal(inst.n), rng.standard_normal(inst.m))
            v = (1.0 / np.sqrt(v.dot(v))) * v
            gp = reg.grad(Point(z.x + h * v.x, z.y + h * v.y))
            gm = reg.grad(Point(z.x - h * v.x, z.y - h * v.y))
            quad = (gp - gm).dot(v) / (2 * h)
            diag_x = np.asarray(inst.abs_A.T @ z.y).ravel()
            model = float(diag_x @ v.x**2) \
                + 2.0 * inst.op_norm * float(np.sum(v.y**2 / z.y))
            assert quad >= model - 1e-4 * max(1.0, abs(quad))


class TestProxGap:
    @staticmethod
    def lp_gap(reg, z, g, w):
        """<h, w> - min over box x simplex of <h, u>, the minimum by linprog."""
        inst = reg.inst
        h = g + reg.grad(w) - reg.grad(z)
        c = np.concatenate([h.x, h.y])
        res = scipy.optimize.linprog(
            c, A_eq=np.r_[np.zeros(inst.n), np.ones(inst.m)][None, :], b_eq=[1.0],
            bounds=[(-1.0, 1.0)] * inst.n + [(0.0, None)] * inst.m, method="highs")
        assert res.status == 0
        return h.dot(w) - float(c @ res.x)

    @pytest.mark.parametrize("max_rounds", [1, 2, 3])
    def test_last_gap_matches_linprog(self, max_rounds, monkeypatch):
        monkeypatch.setattr(boxsimplex, "PROX_MAX_ROUNDS", max_rounds)
        inst = small_instance(seed=40, m=7, n=5)
        reg = ShermanRegularizer(inst)
        rng = make_rng(41 + max_rounds)
        for _ in range(10):
            z = sample_domain(inst, rng)
            g = Point(rng.standard_normal(inst.n), rng.standard_normal(inst.m))
            w, _, gap, _ = reg.prox(z, g, reg.z_terms(z), tol_floor(inst))
            assert gap == pytest.approx(self.lp_gap(reg, z, g, w), rel=1e-9)

    def test_default_tol_bounds_the_gap(self):
        inst = small_instance(seed=42, m=7, n=5)
        reg = ShermanRegularizer(inst)
        rng = make_rng(43)
        for _ in range(10):
            z = sample_domain(inst, rng)
            g = Point(rng.standard_normal(inst.n), rng.standard_normal(inst.m))
            w, _, gap, _ = reg.prox(z, g, reg.z_terms(z), tol_floor(inst))
            assert gap <= 1e-10 * max(inst.op_norm, 1.0)
            assert self.lp_gap(reg, z, g, w) <= 1e-8 * max(inst.op_norm, 1.0)

    def test_shared_z_terms_give_identical_output(self):
        inst = small_instance(seed=44, m=9, n=6)
        rng = make_rng(45)
        shared, alone = ShermanRegularizer(inst), ShermanRegularizer(inst)
        for _ in range(10):
            z = sample_domain(inst, rng)
            zt = shared.z_terms(z)
            for _ in range(2):  # two calls from one z, as in an iteration
                g = Point(0.3 * rng.standard_normal(inst.n),
                          0.3 * rng.standard_normal(inst.m))
                a, _, gap_a, _ = shared.prox(z, g, zt, tol_floor(inst))
                b, _, gap_b, _ = alone.prox(z, g, alone.z_terms(z), tol_floor(inst))
                assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
                assert gap_a == gap_b
                assert shared.last_rounds == alone.last_rounds

    def test_last_terms_are_the_outputs_z_terms(self):
        inst = small_instance(seed=46, m=9, n=6)
        reg = ShermanRegularizer(inst)
        rng = make_rng(47)
        for _ in range(10):
            z = sample_domain(inst, rng)
            g = Point(0.3 * rng.standard_normal(inst.n), 0.3 * rng.standard_normal(inst.m))
            w, terms, _, _ = reg.prox(z, g, reg.z_terms(z), tol_floor(inst))
            for a, b in zip(terms, reg.z_terms(w)):
                assert np.array_equal(a, b)

    def test_holds_only_inst_alpha_and_last_rounds(self):
        # a prox call rebinds nothing else (below), so this holds after calls too
        reg = ShermanRegularizer(small_instance(seed=50))
        assert set(vars(reg)) == {"inst", "alpha", "last_rounds"}

    def test_prox_rebinds_no_attribute_but_last_rounds(self):
        # what a call reads comes in as arguments and what it measured goes
        # out as its return value; only the round count stays behind
        inst = small_instance(seed=48, m=9, n=6)
        reg = ShermanRegularizer(inst)
        rng = make_rng(49)
        for tol in (0.0, tol_floor(inst)):  # at 0 it runs every round and stalls
            z = sample_domain(inst, rng)
            g = Point(0.3 * rng.standard_normal(inst.n), 0.3 * rng.standard_normal(inst.m))
            before = dict(vars(reg))
            reg.prox(z, g, reg.z_terms(z), tol)
            after = vars(reg)
            assert after.keys() == before.keys()
            assert {k for k in before if after[k] is not before[k]} <= {"last_rounds"}


class TestMaxDivergence:
    def test_matches_the_largest_vertex_divergence(self):
        for seed in range(20):
            inst = gen_box_simplex(4, 3, 0.8, seed=seed)
            reg = ShermanRegularizer(inst)
            rng = make_rng(seed)
            z = sample_domain(inst, rng)
            d = reg._max_divergence(z, reg.z_terms(z))
            vertices = [Point(np.array(s), np.eye(inst.m)[i])
                        for s in itertools.product((-1.0, 1.0), repeat=inst.n)
                        for i in range(inst.m)]
            assert d == pytest.approx(max(reg.divergence(z, u) for u in vertices), rel=1e-12)
            for _ in range(500):
                u = Point(rng.uniform(-1.0, 1.0, inst.n), rng.dirichlet(np.full(inst.m, 0.2)))
                assert reg.divergence(z, u) <= d

    def test_at_z0_it_is_the_initial_divergence_bound(self):
        inst = gen_box_simplex(50, 40, 0.5, seed=0)
        reg = ShermanRegularizer(inst)
        z0 = Point(np.zeros(inst.n), np.full(inst.m, 1.0 / inst.m))
        bound = inst.op_norm * (1.0 + ENTROPY_SCALE_FACTOR * np.log(inst.m))
        assert reg._max_divergence(z0, reg.z_terms(z0)) == pytest.approx(
            bound, rel=1e-12)


def storage(M):
    """The array that holds M's values: M itself if dense, its data if sparse."""
    return M.data if sp.issparse(M) else M


def each_storage(monkeypatch, seed):
    """One 6x5 game built with its product operands dense, then compressed-row."""
    out = []
    for dense in (True, False):
        monkeypatch.setattr(operators, "_dense_products", lambda m, n, nnz: dense)
        inst = small_instance(seed=seed)
        assert sp.issparse(inst.At) != dense
        out.append(inst)
    return out


class TestTransposes:
    def test_transposes_share_storage(self, monkeypatch):
        for inst in each_storage(monkeypatch, 30):
            assert np.shares_memory(storage(inst.At), storage(inst.A_op))
            assert np.shares_memory(storage(inst.abs_At), storage(inst.abs_A))

    def test_transposed_products_match(self, monkeypatch):
        for inst in each_storage(monkeypatch, 31):
            y = Simplex(inst.m).sample(make_rng(32), 1e-2)
            assert np.array_equal(inst.At @ y, inst.A_op.T @ y)
            assert np.array_equal(inst.abs_At @ y, inst.abs_A.T @ y)


def solve_parity_instances():
    """Criterion 06's ten certified solves and the sixteen seed-0 linf-reg solves."""
    out = []
    for seed in range(10):
        inst = gen_box_simplex(50, 40, 0.5, seed=seed)
        out.append((inst, solve_box_simplex(inst, 0.01 * inst.op_norm, certify=True)))
    for j in range(16):
        rng = make_rng(100 + j)
        A, b = rng.standard_normal((10, 5)), rng.standard_normal(10)
        inst = linf_regression_reduction(A, b)
        out.append((inst, solve_box_simplex(inst, 0.07 * inst.op_norm)))
    return out


def test_dense_and_sparse_products_take_the_same_steps(monkeypatch):
    dense = solve_parity_instances()
    monkeypatch.setattr(operators, "_dense_products", lambda m, n, nnz: False)
    csr = solve_parity_instances()
    flags = ("iterations", "retries", "restarts", "gap_bound_ok", "stability_ok", "local_rl_ok")
    for (inst_d, (_, _, gap_d, trace_d)), (inst_s, (_, _, gap_s, trace_s)) in zip(dense, csr):
        assert isinstance(inst_d.A_op, np.ndarray) and sp.issparse(inst_s.A_op)
        sd, ss = trace_d.summary, trace_s.summary
        assert [sd.get(k) for k in flags] == [ss.get(k) for k in flags]
        assert gap_d == pytest.approx(gap_s, rel=1e-12, abs=0.0)


class TestProxXUpdate:
    def test_zero_column_takes_the_sign_branch(self, monkeypatch):
        # columns 1 and 3 of A are zero, so their curvature a_coef is 0
        monkeypatch.setattr(boxsimplex, "PROX_MAX_ROUNDS", 1)
        A = np.array([[0.5, 0.0, -1.0, 0.0],
                      [2.0, 0.0, 0.25, 0.0],
                      [-0.3, 0.0, 0.0, 0.0]])
        inst = BoxSimplexInstance(A, np.zeros(3), np.zeros(4))
        reg = ShermanRegularizer(inst)
        z = Point(np.array([0.2, -0.4, 0.9, 0.1]), np.array([0.5, 0.3, 0.2]))
        g = Point(np.array([0.7, 0.3, -5.0, -0.2]), np.array([0.1, -0.2, 0.05]))
        out, _, gap, _ = reg.prox(z, g, reg.z_terms(z), tol_floor(inst))
        assert gap > tol_floor(inst)  # one round stalls above the tolerance
        # one round from y = z.y, in the where / nan_to_num / clip form
        a_coef = np.abs(A).T @ z.y
        lin_x = g.x - 2.0 * a_coef * z.x
        with np.errstate(divide="ignore", invalid="ignore"):
            x_old = np.where(a_coef > 1e-300, -lin_x / (2.0 * a_coef), -np.sign(lin_x))
        x_old = np.clip(np.nan_to_num(x_old), -1.0, 1.0)
        assert np.array_equal(out.x, x_old)
        assert out.x[1] == -1.0 and out.x[3] == 1.0
        assert out.x[2] == 1.0  # clipped from outside the box

    def test_zero_column_with_zero_linear_term_stays_at_zero(self, monkeypatch):
        # column 1 of A is zero and so is its linear term: 0 / 0 goes to x = 0
        monkeypatch.setattr(boxsimplex, "PROX_MAX_ROUNDS", 1)
        A = np.array([[0.5, 0.0, -1.0],
                      [2.0, 0.0, 0.25]])
        inst = BoxSimplexInstance(A, np.zeros(2), np.zeros(3))
        reg = ShermanRegularizer(inst)
        z = Point(np.array([0.2, 0.7, -0.3]), np.array([0.6, 0.4]))
        g = Point(np.array([0.4, 0.0, -0.1]), np.array([0.1, -0.2]))
        w, terms, gap, _ = reg.prox(z, g, reg.z_terms(z), tol_floor(inst))
        assert w.x[1] == 0.0
        assert np.isfinite(w.x).all() and np.isfinite(w.y).all() and np.isfinite(gap)
        assert terms.grad_zx[1] == 0.0


class TestDualityGap:
    def test_zero_instance(self):
        inst = BoxSimplexInstance(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        assert duality_gap(inst, np.zeros(2), np.full(2, 0.5)) == 0.0

    def test_scalar_example(self):
        inst = BoxSimplexInstance(np.array([[1.0]]), np.zeros(1), np.zeros(1))
        assert duality_gap(inst, np.zeros(1), np.ones(1)) == pytest.approx(1.0)

    def test_identity_saddle_has_zero_gap(self):
        inst = BoxSimplexInstance(np.eye(3), np.zeros(3), np.zeros(3))
        gap = duality_gap(inst, -np.ones(3), np.full(3, 1.0 / 3.0))
        assert abs(gap) <= 1e-12

    def test_gap_is_nonnegative(self):
        inst = small_instance(seed=16)
        rng = make_rng(17)
        for _ in range(50):
            z = sample_domain(inst, rng)
            assert duality_gap(inst, z.x, z.y) >= -1e-12

    @pytest.mark.parametrize("m, n, density", [(20, 5, 0.5), (2000, 1500, 0.01)])
    def test_gap_from_an_operator_output_is_the_duality_gap(self, m, n, density):
        # the gap that picks a restart point reads g(z) = (A^T y + c, b - A x);
        # it equals duality_gap and the direct best-response form bit for bit
        inst = gen_box_simplex(m, n, density, seed=40)
        assert sp.issparse(inst.A_op) == (m == 2000)
        rng = make_rng(41)
        points = [Point(np.zeros(n), np.full(m, 1.0 / m))]
        points += [sample_domain(inst, rng, margin=0.0) for _ in range(10)]
        for z in points:
            gap = boxsimplex._gap_from_operator(inst, z.x, z.y, inst.operator(z))
            direct = ((float(np.max(inst.A_op @ z.x - inst.b)) + float(inst.c @ z.x))
                      - (-float(np.abs(inst.At @ z.y + inst.c).sum()) - float(inst.b @ z.y)))
            assert gap.hex() == duality_gap(inst, z.x, z.y).hex() == direct.hex()


def record_prox_calls(monkeypatch):
    """Wraps ShermanRegularizer.prox; returns the list of (returned gap, tol
    argument, rounds run) of its calls, filled as they happen."""
    calls = []
    prox = ShermanRegularizer.prox

    def recording(self, z, g, zt, tol):
        out = prox(self, z, g, zt, tol)
        calls.append((out[2], tol, self.last_rounds))
        return out

    monkeypatch.setattr(boxsimplex.ShermanRegularizer, "prox", recording)
    return calls


def tries_of(trace):
    """(lam, accepted) of every try, rebuilt from the accepted steps' lams:
    3 first, 0.8 lam after an accepted step, min(2 lam, 3) after a rejection."""
    tries, lam = [], LAMBDA_BOX_SIMPLEX
    for accepted in trace.lams:
        while lam != accepted:
            assert lam < accepted
            tries.append((lam, False))
            lam = min(LAMBDA_GROW * lam, LAMBDA_BOX_SIMPLEX)
        tries.append((lam, True))
        lam *= LAMBDA_SHRINK
    assert sum(not ok for _, ok in tries) == trace.summary["retries"]
    return tries


def record_tries(monkeypatch):
    """Wraps boxsimplex._mirror_prox_try; returns the list of (lam, z, step) of
    its calls, filled as they happen."""
    calls = []
    try_ = boxsimplex._mirror_prox_try

    def recording(reg, z, gz, zt, lam, eps):
        step = try_(reg, z, gz, zt, lam, eps)
        calls.append((lam, z, step))
        return step

    monkeypatch.setattr(boxsimplex, "_mirror_prox_try", recording)
    return calls


def running_gap(inst, sums):
    """The gap that the solver reads from an epoch's sums (x, y, g_x, g_y, weight)
    of 1/lam-weighted w and g(w)."""
    x, y, gx, gy, weight = sums
    return boxsimplex._gap_from_operator(inst, x / weight, y / weight,
                                         Point(gx / weight, gy / weight))


def epochs_of(inst, trace, calls):
    """The accepted tries of an uncertified solve as epochs [(z_r, [(lam, step)])].

    A step starts an epoch when its z is not the z' of the step before it (a
    restart from the average), or when ``trace.gaps`` holds the gap of the
    average of its own w rather than of the running average it would join (a
    restart from z').  Sums are kept in the solver's order of operations, so
    each running-sum gap is matched exactly."""
    accepted = [call for call, (_, ok) in zip(calls, tries_of(trace)) if ok]
    assert len(accepted) == len(trace.lams)
    epochs = []
    for k, (lam, z, step) in enumerate(accepted):
        own = (step.w.x / lam, step.w.y / lam, step.gw.x / lam, step.gw.y / lam, 1.0 / lam)
        joined = None
        if k and z is accepted[k - 1][2].z_next:
            joined = tuple(a + b for a, b in zip(sums, own))
        if joined is not None and running_gap(inst, joined) == trace.gaps[k]:
            sums = joined
        else:
            assert running_gap(inst, own) == trace.gaps[k]
            sums = own
            epochs.append((z, []))
        epochs[-1][1].append((lam, step))
    return epochs


def epoch_averages(steps):
    """The running 1/lam-weighted averages (x, y) of the w of (lam, step) pairs,
    summed in the solver's order, so each is bit-equal to the solver's."""
    x = y = weight = 0.0
    averages = []
    for lam, step in steps:
        x, y, weight = x + step.w.x / lam, y + step.w.y / lam, weight + 1.0 / lam
        averages.append((x / weight, y / weight))
    return averages


class TestSolve:
    def test_scalar_game(self):
        inst = BoxSimplexInstance(np.array([[1.0]]), np.zeros(1), np.zeros(1))
        x, y, gap, trace = solve_box_simplex(inst, 1e-3)
        assert gap <= 1e-3

    def test_small_game_certified(self):
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        eps = 1e-2 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps, certify=True)
        s = trace.summary
        assert gap <= eps
        assert s["stability_ok"] and s["local_rl_ok"]
        assert 0.5 <= s["stability_lo"] <= s["stability_hi"] <= 2.0
        assert s["gamma_inf_max"] <= 3.0 * inst.op_norm
        assert s["lam_max"] == LAMBDA_BOX_SIMPLEX
        assert 0 < s["lam_min"] <= s["lam_max"]

    def test_iterates_feasible(self):
        inst = gen_box_simplex(8, 6, 0.6, seed=19)
        x, y, gap, trace = solve_box_simplex(inst, 0.05 * inst.op_norm)
        assert np.all(np.abs(x) <= 1 + 1e-12)
        assert np.all(y >= 0) and y.sum() == pytest.approx(1.0, abs=1e-9)

    def test_budget_formula(self):
        inst = gen_box_simplex(10, 5, 0.5, seed=20)
        assert iteration_budget(inst, 0.1) == int(
            np.ceil(50.0 * inst.op_norm * np.log(10) / 0.1))

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_budget_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            iteration_budget(gen_box_simplex(10, 5, 0.5, seed=20), eps)

    def test_gap_trace_reaches_reported_minimum(self):
        # the run ends on z', whose exact gap meets eps before any average's does
        inst = gen_box_simplex(10, 8, 0.5, seed=21)
        eps = 0.02 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps)
        assert trace.summary["answer"] == "last"
        assert gap == duality_gap(inst, x, y) <= eps < min(trace.gaps)
        # a budget one step short ends on the average of least running-sum gap
        x, y, gap, trace = solve_box_simplex(inst, eps, max_iters=len(trace.gaps) - 1)
        assert trace.summary["answer"] == "average"
        assert gap == duality_gap(inst, x, y)
        assert abs(min(trace.gaps) - gap) <= 1e-12 * max(inst.op_norm, 1.0)

    def _assert_answers_z0(self, inst, eps, **kw):
        x, y, gap, trace = solve_box_simplex(inst, eps, **kw)
        assert gap > eps  # the budget ran out short of eps
        assert np.array_equal(x, np.zeros(inst.n))
        assert np.array_equal(y, np.full(inst.m, 1.0 / inst.m))
        assert gap == duality_gap(inst, x, y)
        assert trace.summary["iterations"] == 0 and trace.summary["budget"] == 0
        assert trace.gaps == []

    def test_zero_max_iters_returns_z0(self):
        inst = gen_box_simplex(10, 8, 0.5, seed=3)
        self._assert_answers_z0(inst, 1e-2 * inst.op_norm, max_iters=0)

    def test_zero_matrix_has_zero_budget(self):
        inst = BoxSimplexInstance(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]),
                                  np.array([0.5, -0.5]))
        assert inst.op_norm == 0.0
        self._assert_answers_z0(inst, 1e-3)

    def test_non_finite_gap_raises_before_the_first_try(self, monkeypatch):
        # c = 1e308 makes z0's duality gap overflow, and the run ends at that gap
        tries = record_tries(monkeypatch)
        queried, operator = [], BoxSimplexInstance.operator
        monkeypatch.setattr(BoxSimplexInstance, "operator",
                            lambda self, z: queried.append(z) or operator(self, z))
        inst = BoxSimplexInstance(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]),
                                  np.array([1e308, 1e308]))
        with np.errstate(over="ignore", invalid="ignore"):  # as under the CLI's errstate
            with pytest.raises(NonFiniteIterateError, match="non-finite duality gap"):
                solve_box_simplex(inst, 1e-2 * inst.op_norm)
        assert tries == [] and len(queried) == 1

    def test_prox_gaps_add_at_most_a_quarter_eps(self):
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        eps = 1e-2 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps, certify=True)
        s = trace.summary
        assert s["prox_stalls"] == 0
        assert gap <= eps and s["stability_ok"] and s["local_rl_ok"]
        assert 0.0 < s["prox_gap_sum"]
        assert s["prox_gap_sum"] / sum(1.0 / lam for lam in trace.lams) <= eps / 4

    def test_stalled_prox_is_counted(self, monkeypatch):
        # at eps = 1e-12 ||A|| the prox tolerance is its floor 1e-10 ||A||;
        # the count covers every try, the certifying ones included
        monkeypatch.setattr(boxsimplex, "PROX_MAX_ROUNDS", 2)
        calls = record_prox_calls(monkeypatch)
        inst = gen_box_simplex(10, 8, 0.5, seed=4)
        for certify, count in ((False, 6), (True, 10)):
            calls.clear()
            trace = solve_box_simplex(inst, 1e-12 * inst.op_norm, max_iters=20,
                                      certify=certify)[3]
            stalls = [rounds for gap, tol, rounds in calls if not gap <= tol]
            assert trace.summary["prox_stalls"] == len(stalls) == count
            assert all(rounds == 2 for rounds in stalls)

    def test_solve_stops_prox_at_eps_over_8_lam(self, monkeypatch):
        monkeypatch.setattr(boxsimplex, "PROX_MAX_ROUNDS", 1)
        calls = record_prox_calls(monkeypatch)
        rng = make_rng(100)
        inst = linf_regression_reduction(rng.standard_normal((10, 5)),
                                         rng.standard_normal(10))
        eps = 1.5e-3 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps, max_iters=1000)
        tries = tries_of(trace)
        assert len(calls) == 2 * len(tries)
        floor = 1e-10 * max(inst.op_norm, 1.0)
        stalled = set()
        for k, (prox_gap, tol, _) in enumerate(calls):
            lam = tries[k // 2][0]  # two prox calls per try
            assert tol == max(floor, eps / (8 * lam))
            if not prox_gap <= tol:
                stalled.add(lam)
        assert len(stalled) > 1  # stalls at more than one lam, so more than one tol
        assert trace.summary["prox_stalls"] == sum(not g <= tol for g, tol, _ in calls) == 135

    def test_solve_keeps_the_prox_tolerance_floor(self, monkeypatch):
        # eps / (8 lam) lies below 1e-10 max(||A||, 1), so the floor is the tolerance
        monkeypatch.setattr(boxsimplex, "PROX_MAX_ROUNDS", 1)
        inst = gen_box_simplex(10, 8, 0.5, seed=4)
        eps = 1e-12 * inst.op_norm
        calls = record_prox_calls(monkeypatch)
        trace = solve_box_simplex(inst, eps, max_iters=20)[3]
        assert calls and all(tol == 1e-10 * max(inst.op_norm, 1.0) for _, tol, _ in calls)
        stalls = sum(not gap <= tol for gap, tol, _ in calls)
        assert stalls and trace.summary["prox_stalls"] == stalls

    def test_certify_leaves_the_iterates_alone(self):
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        eps = 1e-2 * inst.op_norm
        runs = [solve_box_simplex(inst, eps, certify=c) for c in (True, False)]
        (x1, y1, g1, t1), (x2, y2, g2, t2) = runs
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2) and g1 == g2
        assert np.array_equal(t1.gaps, t2.gaps) and np.array_equal(t1.lams, t2.lams)
        assert t1.summary["retries"] == t2.summary["retries"] > 0
        assert len(t1.margins) == len(t1.lams) and t2.margins == []

    def test_certify_tries_lam_3_from_every_step(self, monkeypatch):
        # the certificate reads the try at lam = 3 from each accepted step's z,
        # which is the accepted try itself only when lam_t = 3
        calls = []
        try_ = boxsimplex._mirror_prox_try

        def recording(reg, z, gz, zt, lam, eps):
            step = try_(reg, z, gz, zt, lam, eps)
            calls.append((lam, z, step))
            return step

        monkeypatch.setattr(boxsimplex, "_mirror_prox_try", recording)
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        x, y, gap, trace = solve_box_simplex(inst, 1e-2 * inst.op_norm, certify=True)
        at_cap, k = [], 0
        for lam, accepted in tries_of(trace):
            assert calls[k][0] == lam
            k += 1
            if accepted and lam < LAMBDA_BOX_SIMPLEX:
                assert calls[k][0] == LAMBDA_BOX_SIMPLEX and calls[k][1] is calls[k - 1][1]
                k += 1
            if accepted:
                at_cap.append(calls[k - 1][2])
        assert k == len(calls) and len(at_cap) == len(trace.lams)
        assert sum(lam < LAMBDA_BOX_SIMPLEX for lam in trace.lams) > 0
        s = trace.summary
        assert trace.margins == [step.margin for step in at_cap]
        assert s["stability_lo"] == min(step.ratio_lo for step in at_cap)
        assert s["stability_hi"] == max(step.ratio_hi for step in at_cap)
        assert s["gamma_inf_max"] == max(step.gamma_inf for step in at_cap)

    def test_answer_is_the_one_over_lam_weighted_average(self, monkeypatch):
        # a run out of budget answers the average of least running-sum gap,
        # which averages the accepted w_t of its own epoch only
        calls = record_tries(monkeypatch)
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        x, y, gap, trace = solve_box_simplex(inst, 1e-2 * inst.op_norm, max_iters=30)
        assert trace.summary["answer"] == "average" and len(trace.gaps) == 30
        epochs = epochs_of(inst, trace, calls)
        t = int(np.argmin(trace.gaps)) + 1
        ends = np.cumsum([len(steps) for _, steps in epochs])
        r = int(np.searchsorted(ends, t))  # the epoch that holds step t
        assert r >= 1 and len(epochs) == trace.summary["restarts"] + 1
        x_avg, y_avg = epoch_averages(epochs[r][1])[t - 1 - (ends[r] - len(epochs[r][1]))]
        assert np.array_equal(x, x_avg) and np.array_equal(y, y_avg)
        assert gap == duality_gap(inst, x, y)

    def test_answer_is_z_next_once_its_gap_meets_eps(self, monkeypatch):
        # the run stops at the first z' whose exact gap, read from g(z'), meets eps
        calls = record_tries(monkeypatch)
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        eps = 1e-2 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps)
        assert trace.summary["answer"] == "last"
        last = calls[-1][2]  # the last accepted try
        assert np.array_equal(x, last.z_next.x) and np.array_equal(y, last.z_next.y)
        assert gap == duality_gap(inst, x, y) <= eps < min(trace.gaps)
        accepted = [step for _, steps in epochs_of(inst, trace, calls) for _, step in steps]
        assert accepted[-1] is last  # and no earlier z' met eps
        assert all(duality_gap(inst, step.z_next.x, step.z_next.y) > eps
                   for step in accepted[:-1])

    def test_answer_is_an_average_once_its_exact_gap_meets_eps(self, monkeypatch):
        # an average whose running-sum gap meets eps is confirmed by duality_gap
        calls = record_tries(monkeypatch)
        inst = gen_box_simplex(12, 10, 0.5, seed=5)
        eps = 1e-2 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps)
        assert trace.summary["answer"] == "average"
        steps = epochs_of(inst, trace, calls)[-1][1]
        x_avg, y_avg = epoch_averages(steps)[-1]
        assert np.array_equal(x, x_avg) and np.array_equal(y, y_avg)
        assert gap == duality_gap(inst, x, y) <= eps
        assert trace.gaps[-1] <= eps < min(trace.gaps[:-1])
        assert abs(trace.gaps[-1] - gap) <= 1e-12 * max(inst.op_norm, 1.0)

    def test_an_average_whose_exact_gap_misses_eps_does_not_end_the_run(self, monkeypatch):
        inst = gen_box_simplex(12, 10, 0.5, seed=5)
        eps = 1e-2 * inst.op_norm
        stopped = solve_box_simplex(inst, eps)[3]
        exact, counted = boxsimplex.duality_gap, []

        def first_confirmation_misses(game, x, y):  # the calls are z0's, then confirmations
            counted.append(1)
            return 2.0 * eps if len(counted) == 2 else exact(game, x, y)

        monkeypatch.setattr(boxsimplex, "duality_gap", first_confirmation_misses)
        x, y, gap, trace = solve_box_simplex(inst, eps)
        assert stopped.summary["answer"] == "average"
        # the same step goes on to read the gap of its z', which meets eps here
        assert trace.gaps == stopped.gaps and len(counted) == 2
        assert trace.summary["answer"] == "last"
        assert gap == exact(inst, x, y) <= eps

    def test_restarts_from_the_better_of_average_and_last_iterate(self, monkeypatch):
        # an epoch ends once the better of its average and its last z' has at
        # most half its start's gap, and the next one starts from that point,
        # the average on a tie; criterion 06's seed 3 restarts from each
        calls = record_tries(monkeypatch)
        inst = gen_box_simplex(50, 40, 0.5, seed=3)
        x, y, gap, trace = solve_box_simplex(inst, 1e-3 * inst.op_norm)
        epochs = epochs_of(inst, trace, calls)
        assert len(epochs) == trace.summary["restarts"] + 1 >= 4
        z0 = epochs[0][0]
        assert np.array_equal(z0.x, np.zeros(inst.n))
        assert np.array_equal(z0.y, np.full(inst.m, 1.0 / inst.m))
        # the gap the solver holds for each epoch's start: exact at z0 and at a z',
        # the running-sum one at an average
        starts = [duality_gap(inst, z0.x, z0.y)]
        gaps = iter(trace.gaps)
        kinds = []
        for r, (_, steps) in enumerate(epochs):
            epoch_gaps = [next(gaps) for _ in steps]
            last_gaps = [duality_gap(inst, step.z_next.x, step.z_next.y) for _, step in steps]
            better = [min(a, b) for a, b in zip(epoch_gaps, last_gaps)]
            # no earlier step of the epoch had a point that halved its start's gap
            assert all(g > 0.5 * starts[r] for g in better[:-1])
            if r + 1 < len(epochs):
                z_next = epochs[r + 1][0]
                kinds.append(last_gaps[-1] < epoch_gaps[-1])
                if kinds[-1]:  # from z' itself
                    assert z_next is steps[-1][1].z_next
                else:  # from this epoch's last average
                    x_avg, y_avg = epoch_averages(steps)[-1]
                    assert np.array_equal(z_next.x, x_avg) and np.array_equal(z_next.y, y_avg)
                    assert (abs(duality_gap(inst, z_next.x, z_next.y) - better[-1])
                            <= 1e-12 * max(inst.op_norm, 1.0))
                assert better[-1] <= 0.5 * starts[r]
                starts.append(better[-1])
        assert any(kinds) and not all(kinds)  # both kinds of restart happen

    @pytest.mark.parametrize("certify, max_iters, spent", [
        (False, None, False), (True, None, False), (False, 0, False), (False, 20, True)],
        ids=["uncertified", "certified", "zero-budget", "spent-budget"])
    def test_exact_gaps_at_z0_confirmations_and_budget_end(self, monkeypatch, certify,
                                                           max_iters, spent):
        # duality_gap runs at z0, at each average whose running-sum gap meets
        # eps, and at the best average of a run that spends a nonzero budget
        counted = []
        gap_ = boxsimplex.duality_gap
        monkeypatch.setattr(boxsimplex, "duality_gap",
                            lambda inst, x, y: counted.append(1) or gap_(inst, x, y))
        inst = gen_box_simplex(12, 10, 0.5, seed=5)
        eps = 1e-2 * inst.op_norm
        x, y, gap, trace = solve_box_simplex(inst, eps, max_iters=max_iters, certify=certify)
        s = trace.summary
        assert s["answer"] == "average" and (s["restarts"] >= 1) == (max_iters != 0)
        confirmations = sum(g <= eps for g in trace.gaps)
        assert confirmations == (max_iters is None)
        assert len(counted) == 1 + confirmations + spent

    def test_restarts_make_the_rate_linear(self):
        # criterion 06 seed 0; without restarts 1e-2 ||A|| takes 1699 steps and
        # 1e-4 ||A|| takes 170086
        inst = gen_box_simplex(50, 40, 0.5, seed=0)
        steps = {}
        for tol in (1e-2, 1e-4):
            eps = tol * inst.op_norm
            x, y, gap, trace = solve_box_simplex(inst, eps, certify=True)
            s = trace.summary
            assert gap <= eps and s["gap_bound_ok"] and s["stability_ok"] and s["local_rl_ok"]
            steps[tol] = s["iterations"]
        assert steps[1e-4] <= 3 * steps[1e-2]

    def test_criterion_06_steps_stay_few(self):
        # stopping at the first certified z' takes 1335 steps here, against 1466
        # when only an average could stop the run; restarting from the average
        # alone, not from the better of average and z', took 2506
        steps = 0
        for seed in range(10):
            inst = gen_box_simplex(50, 40, 0.5, seed=seed)
            x, y, gap, trace = solve_box_simplex(inst, 0.01 * inst.op_norm)
            assert gap <= 0.01 * inst.op_norm
            steps += trace.summary["iterations"]
        assert steps <= 1400

    def test_running_sum_gaps_match_the_exact_gaps_of_the_averages(self, monkeypatch):
        # criterion 06's seeds 0-2: every trace.gaps[t], read from the sums of
        # g(w_t), is the duality gap of that step's average up to rounding
        calls = record_tries(monkeypatch)
        for seed in range(3):
            calls.clear()
            inst = gen_box_simplex(50, 40, 0.5, seed=seed)
            trace = solve_box_simplex(inst, 0.01 * inst.op_norm)[3]
            gaps = iter(trace.gaps)
            for _, steps in epochs_of(inst, trace, calls):
                for x, y in epoch_averages(steps):
                    assert (abs(next(gaps) - duality_gap(inst, x, y))
                            <= 1e-12 * max(inst.op_norm, 1.0))
            assert next(gaps, None) is None

    def test_lam_cap_is_never_passed(self, monkeypatch, tmp_path):
        # at a cap of 1e-3 every step is far too long, so the certificate fails
        monkeypatch.setattr(boxsimplex, "LAMBDA_BOX_SIMPLEX", 1e-3)
        inst = gen_box_simplex(12, 10, 0.5, seed=18)
        x, y, gap, trace = solve_box_simplex(inst, 1e-2 * inst.op_norm,
                                             max_iters=50, certify=True)
        s = trace.summary
        assert s["lam_max"] == 1e-3 and max(trace.lams) <= 1e-3
        assert not (s["stability_ok"] and s["local_rl_ok"])
        manifest = str(tmp_path / "g.manifest")
        assert cli.main(["gen", "box-simplex", "m=12", "n=10", "density=0.5",
                         "--seed", "18", "--out", manifest]) == 0
        out = str(tmp_path / "s")
        assert cli.main(["solve", "--alg", "box-simplex", "--instance", manifest,
                         "--iters", "50", "--check", "--out", out]) == cli.EXIT_CERT
        with open(out + ".summary.txt") as fh:
            text = fh.read()
        assert "stability_ok=0" in text or "local_rl_ok=0" in text

    def test_linf_backtracking_keeps_steps_few(self):
        # the 16 instances of the linf-reg benchmark workload at seed 0; a fixed
        # lam = 3 takes 11991 steps there, backtracking without restarts 724
        iterations = retries = 0
        for j in range(16):
            rng = make_rng(100 + j)
            inst = linf_regression_reduction(rng.standard_normal((10, 5)),
                                             rng.standard_normal(10))
            x, y, gap, trace = solve_box_simplex(inst, 0.07 * inst.op_norm)
            assert gap <= 0.07 * inst.op_norm
            iterations += trace.summary["iterations"]
            retries += trace.summary["retries"]
        assert iterations <= 600
        assert retries <= 0.25 * iterations

    def test_linf_prox_takes_about_one_round(self, monkeypatch):
        # the 16 instances of the linf-reg benchmark workload at seed 0
        counts = {"calls": 0, "rounds": 0}
        prox = ShermanRegularizer.prox

        def counting(self, *args):
            out = prox(self, *args)
            counts["calls"] += 1
            counts["rounds"] += self.last_rounds
            return out

        monkeypatch.setattr(boxsimplex.ShermanRegularizer, "prox", counting)
        for j in range(16):
            rng = make_rng(100 + j)
            inst = linf_regression_reduction(rng.standard_normal((10, 5)),
                                             rng.standard_normal(10))
            x, y, gap, trace = solve_box_simplex(inst, 0.07 * inst.op_norm)
            assert gap <= 0.07 * inst.op_norm
        assert counts["calls"] > 0
        assert counts["rounds"] <= 1.1 * counts["calls"]


class TestRegressionReduction:
    def test_value_matches_linf_residual(self):
        rng = make_rng(22)
        A = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        inst = linf_regression_reduction(A, b)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=3)
            best_y = float(np.max(inst.A @ x - inst.b)) + float(inst.c @ x)
            assert best_y - inst.shift == pytest.approx(
                np.abs(A @ x - b).max(), abs=1e-12)

    def test_scalar_reduction_solves_to_known_optimum(self):
        inst = linf_regression_reduction(np.array([[1.0]]), np.array([0.3]))
        x, y, gap, trace = solve_box_simplex(inst, 1e-3)
        assert abs(x[0] - 0.3) <= 2e-3

    def test_zero_matrix_keeps_the_rows_at_min_b(self):
        # with ||A|| = 0 no row lies below min b + 2 ||A||; the rows at min b stay
        inst = linf_regression_reduction(np.zeros((3, 2)), np.ones(3))
        assert list(inst.kept_rows) == [3, 4, 5] and inst.shift == -1.0
        x, y, gap, trace = solve_box_simplex(inst, 1e-3)
        assert trace.summary["budget"] == 0 and gap == 0.0  # z0's gap, within eps
        assert np.array_equal(x, np.zeros(2)) and np.array_equal(y, np.full(3, 1.0 / 3.0))
        # the value maps back to min_x ||0 x - 1||_inf = 1
        assert float(np.max(inst.A @ x - inst.b)) - inst.shift == 1.0
