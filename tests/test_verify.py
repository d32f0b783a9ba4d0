"""Certification layer: samplers and inequality checks."""

import numpy as np
import pytest

from extragrad import (
    Point, Box, Simplex, ProductSet, ScaledEuclidean, ProductRegularizer,
    QuadraticProblem, ConjugateRegularizer, SmoothnessProfile, lambda_fenchel,
    make_rng, mirror_prox, gen_quadratic,
)
from extragrad.verify import (
    TripleSampler, CertificateReport, check_relative_lipschitzness,
    check_relative_smoothness_implies, check_strong_monotonicity,
    check_regret_certificate, check_estimator_conditions, coord_trajectory,
)

BOX_PAIR_DOMAIN = ProductSet(Box(-np.ones(2), np.ones(2)),
                             Box(-np.ones(2), np.ones(2)))
EUCLID_PAIR = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(1.0))
FLAT_PAIR = ProductRegularizer(ScaledEuclidean(0.0), ScaledEuclidean(0.0))  # V = 0


def zero_operator(z):
    return 0.0 * z


def read_witness(path):
    """(role, block, values) rows of a witness CSV; every line ends in a bare \\n
    and every value cell is a decimal that ``float`` reads."""
    with open(path, newline="") as fh:
        text = fh.read()
    assert "\r" not in text and text.endswith("\n")
    header, *lines = text[:-1].split("\n")
    assert header == "role,block,values"
    return [(role, block, [float(c) for c in cells])
            for role, block, *cells in (line.split(",") for line in lines)]


def rotation_game(z):
    return Point(z.y, -z.x)


class TestTripleSampler:
    def test_deterministic_under_seed(self):
        a = list(TripleSampler(BOX_PAIR_DOMAIN, count=5, seed=3).points())
        b = list(TripleSampler(BOX_PAIR_DOMAIN, count=5, seed=3).points())
        for (z1, w1, u1), (z2, w2, u2) in zip(a, b):
            assert np.array_equal(z1.x, z2.x) and np.array_equal(u1.y, u2.y)

    def test_respects_simplex_margin(self):
        dom = ProductSet(Box(-np.ones(2), np.ones(2)), Simplex(3))
        for z, w, u in TripleSampler(dom, count=50, seed=4).points():
            for pt in (z, w, u):
                assert np.all(pt.y > 0)


class TestRelativeLipschitzness:
    def test_unit_bilinear_passes_at_one(self):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=500, seed=0)
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, sampler)
        assert rep.passed
        assert rep.worst <= 1.0 + 1e-6
        assert rep.n_tested == 500

    def test_undersized_constant_falsified(self):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=500, seed=0)
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 0.4, sampler)
        assert not rep.passed
        assert rep.worst > 0.4
        assert len(rep.witness) == 3

    def test_witness_reevaluates_to_worst(self):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=300, seed=1)
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, sampler)
        z, w, u = rep.witness
        num = (rotation_game(w) - rotation_game(z)).dot(w - u)
        den = EUCLID_PAIR.divergence(z, w) + EUCLID_PAIR.divergence(w, u)
        assert num / den == pytest.approx(rep.worst, abs=1e-12)

    def test_fenchel_game_passes_paper_constant(self):
        # L = 4, mu = 1: lam = L/sqrt(L mu) + sqrt(L/mu) - ... = 3 via the formula
        oracle = QuadraticProblem(np.array([1.0, 4.0]), np.zeros(2), 1.0, 4.0)
        prof = SmoothnessProfile(4.0, 1.0, [1.0, 4.0])
        lam = lambda_fenchel(prof)
        assert lam == pytest.approx(3.0)
        def g(z):
            return Point(z.y, oracle.grad_fstar(z.y) - z.x)

        r = ProductRegularizer(ScaledEuclidean(1.0), ConjugateRegularizer(oracle))
        dom = ProductSet(Box(-np.ones(2), np.ones(2)),
                         Box(np.array([-4.0, -16.0]), np.array([4.0, 16.0])))
        rep = check_relative_smoothness_implies(g, r, lam,
                                                TripleSampler(dom, count=500, seed=2))
        assert rep.passed

    def test_monotone_in_lambda(self):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=200, seed=5)
        loose = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 2.0, sampler)
        tight = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, sampler)
        assert loose.passed and tight.passed
        assert loose.worst == tight.worst  # same samples, same ratio

    def test_vanishing_divergence_with_a_moving_operator_is_a_violation(self):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=50, seed=8)
        rep = check_relative_lipschitzness(rotation_game, FLAT_PAIR, 1e6, sampler)
        assert not rep.passed
        assert rep.worst == np.inf
        z, w, u = rep.witness
        assert (rotation_game(w) - rotation_game(z)).dot(w - u) > 1e-9

    def test_vanishing_divergence_with_a_zero_operator_is_skipped(self):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=50, seed=8)
        rep = check_relative_lipschitzness(zero_operator, FLAT_PAIR, 1.0, sampler)
        assert rep.n_tested == rep.n_skipped == 50
        assert rep.witness == ()


class TestStrongMonotonicity:
    def test_identity_operator_is_exactly_one(self):
        def ident(z):
            return z

        rep = check_strong_monotonicity(
            ident, EUCLID_PAIR, 1.0, TripleSampler(BOX_PAIR_DOMAIN, count=200, seed=6))
        assert rep.passed
        assert rep.worst == pytest.approx(1.0, abs=1e-9)

    def test_pure_bilinear_fails_any_positive_m(self):
        rep = check_strong_monotonicity(
            rotation_game, EUCLID_PAIR, 0.01,
            TripleSampler(BOX_PAIR_DOMAIN, count=200, seed=7))
        assert not rep.passed
        assert rep.worst < 0.01

    def test_vanishing_divergence_is_skipped(self):
        rep = check_strong_monotonicity(
            rotation_game, FLAT_PAIR, 1.0, TripleSampler(BOX_PAIR_DOMAIN, count=50, seed=9))
        assert rep.n_tested == rep.n_skipped == 50
        assert rep.witness == ()


@pytest.mark.parametrize("every", [7, 1], ids=["nan-every-7th-call", "nan-always"])
@pytest.mark.parametrize("pair, base", [(EUCLID_PAIR, lambda z: z), (FLAT_PAIR, zero_operator)],
                         ids=["euclid", "vanishing-divergence"])
@pytest.mark.parametrize("check", [check_relative_lipschitzness, check_strong_monotonicity],
                         ids=["rel-lip", "strong-mono"])
def test_a_nan_sample_fails_the_report_as_its_witness(check, pair, base, every):
    calls = []

    def g(z):  # each sample calls g twice, at w and then at z
        calls.append(z)
        return np.nan * base(z) if len(calls) % every == 0 else base(z)

    sampler = TripleSampler(BOX_PAIR_DOMAIN, count=50, seed=3)
    rep = check(g, pair, 1.0, sampler)
    first_nan = (every + 1) // 2  # the sample of the first NaN call
    assert not rep.passed and np.isnan(rep.worst)
    assert rep.n_tested == first_nan
    z, w, _ = list(sampler.points())[first_nan - 1]
    assert all(np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
               for a, b in zip(rep.witness[:2], (z, w)))


class TestRegretCertificate:
    def test_empty_trace_passes(self):
        z0 = Point(np.ones(2), np.ones(2))
        u = Point(np.zeros(2), np.zeros(2))
        trace = mirror_prox(rotation_game, EUCLID_PAIR, z0, 1.0, 0, u=u)
        ok, margin = check_regret_certificate(trace, rotation_game, EUCLID_PAIR,
                                              1.0, z0, u)
        assert ok and margin == pytest.approx(EUCLID_PAIR.divergence(z0, u))

    def test_honest_trace_passes(self):
        z0 = Point(np.ones(2), -np.ones(2))
        u = Point(np.zeros(2), np.zeros(2))
        trace = mirror_prox(rotation_game, EUCLID_PAIR, z0, 1.0, 50, u=u)
        ok, _ = check_regret_certificate(trace, rotation_game, EUCLID_PAIR, 1.0, z0, u)
        assert ok

    def test_corrupted_trace_fails(self):
        def g(z):
            return z + rotation_game(z)

        z0 = Point(np.ones(2), -np.ones(2))
        u = Point(np.zeros(2), np.zeros(2))
        trace = mirror_prox(g, EUCLID_PAIR, z0, 2.0, 50, u=u)
        trace.iterates = [w + Point(np.full(2, 5.0), np.full(2, 5.0))
                          for w in trace.iterates]
        ok, margin = check_regret_certificate(trace, g, EUCLID_PAIR, 2.0, z0, u)
        assert not ok and margin < 0


class TestReportIO:
    def test_save_round_trips_key_values(self, tmp_path):
        sampler = TripleSampler(BOX_PAIR_DOMAIN, count=100, seed=8)
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, sampler)
        path = str(tmp_path / "report.txt")
        rep.save(path)
        text = {}
        with open(path) as fh:
            for line in fh:
                k, _, v = line.strip().partition("=")
                text[k] = v
        assert text["inequality"] == "relative-lipschitzness"
        assert float(text["worst"]) == rep.worst
        assert text["passed"] == "1"
        rows = read_witness(path + ".witness.csv")
        assert rows == [(role, block, list(getattr(pt, block)))
                        for role, pt in zip("zwu", rep.witness) for block in "xy"]

    def test_coordinate_witness_has_an_x_row_and_a_v_row(self, tmp_path):
        prob = gen_quadratic(3, 1.0, 9.0, diag=True, seed=8)
        states = coord_trajectory(prob, np.ones(3), 5, seed=9)
        rep = check_estimator_conditions(prob, states, (prob.x_star, prob.x_star))
        path = str(tmp_path / "report.txt")
        rep.save(path)
        (x, v), = rep.witness
        assert read_witness(path + ".witness.csv") == [("z", "x", list(x)), ("z", "v", list(v))]

    def test_reports_deterministic(self):
        reps = [check_relative_lipschitzness(
            rotation_game, EUCLID_PAIR, 1.0,
            TripleSampler(BOX_PAIR_DOMAIN, count=200, seed=9)) for _ in range(2)]
        assert reps[0].worst == reps[1].worst
        assert reps[0].n_tested == reps[1].n_tested
