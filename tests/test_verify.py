"""Certification layer: samplers and inequality checks."""

from itertools import islice

import numpy as np
import pytest

from extragrad import (
    Point, Box, Simplex, ProductSet, ScaledEuclidean, ProductRegularizer,
    QuadraticProblem, ConjugateRegularizer, SmoothnessProfile, lambda_fenchel,
    make_rng, mirror_prox, gen_quadratic,
)
from extragrad.verify import (
    NOISE, sample_triples, CertificateReport, check_relative_lipschitzness,
    check_relative_smoothness_implies, check_strong_monotonicity,
    check_regret_certificate, check_estimator_conditions, coord_trajectory, _worst_ratio,
)

BOX_PAIR_DOMAIN = ProductSet(Box(-np.ones(2), np.ones(2)),
                             Box(-np.ones(2), np.ones(2)))
EUCLID_PAIR = ProductRegularizer(ScaledEuclidean(1.0), ScaledEuclidean(1.0))
FLAT_PAIR = ProductRegularizer(ScaledEuclidean(0.0), ScaledEuclidean(0.0))  # V = 0
TINY_PAIR = ProductRegularizer(ScaledEuclidean(1e-12), ScaledEuclidean(1e-12))  # V ~ 1e-12


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


class TestSampleTriples:
    def test_deterministic_under_seed(self):
        a = list(sample_triples(BOX_PAIR_DOMAIN, 5, 3))
        b = list(sample_triples(BOX_PAIR_DOMAIN, 5, 3))
        for (z1, w1, u1), (z2, w2, u2) in zip(a, b):
            assert np.array_equal(z1.x, z2.x) and np.array_equal(u1.y, u2.y)

    def test_respects_simplex_margin(self):
        dom = ProductSet(Box(-np.ones(2), np.ones(2)), Simplex(3))
        for z, w, u in sample_triples(dom, 50, 4):
            for pt in (z, w, u):
                assert np.all(pt.y > 0)


class TestRelativeLipschitzness:
    def test_unit_bilinear_passes_at_one(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 500, 0))
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, triples)
        assert rep.passed
        assert rep.worst <= 1.0 + 1e-6
        assert rep.n_tested == 500

    def test_undersized_constant_falsified(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 500, 0))
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 0.4, triples)
        assert not rep.passed
        assert rep.worst > 0.4
        assert len(rep.witness) == 3

    def test_witness_reevaluates_to_worst(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 300, 1))
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, triples)
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
                                                sample_triples(dom, 500, 2))
        assert rep.passed

    def test_monotone_in_lambda(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 200, 5))
        loose = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 2.0, triples)
        tight = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, triples)
        assert loose.passed and tight.passed
        assert loose.worst == tight.worst  # same samples, same ratio

    def test_vanishing_divergence_with_a_moving_operator_is_a_violation(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 50, 8))
        rep = check_relative_lipschitzness(rotation_game, FLAT_PAIR, 1e6, triples)
        assert not rep.passed
        assert rep.worst == np.inf
        z, w, u = rep.witness
        assert (rotation_game(w) - rotation_game(z)).dot(w - u) > 1e-9

    def test_vanishing_divergence_with_a_zero_operator_is_skipped(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 50, 8))
        rep = check_relative_lipschitzness(zero_operator, FLAT_PAIR, 1.0, triples)
        assert rep.n_tested == rep.n_skipped == 50
        assert rep.witness == ()

    def test_small_positive_divergence_gives_a_ratio(self):
        # rotation_game is 1/mu-relatively Lipschitz for mu/2 |.|^2, and here every
        # V is below 1e-9: the ratios still count, none is skipped or a violation
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 200, 0))
        rep = check_relative_lipschitzness(rotation_game, TINY_PAIR, 1e12, triples)
        assert rep.passed and (rep.n_tested, rep.n_skipped) == (200, 0)
        assert 1e11 < rep.worst <= 1e12 * (1 + 1e-6)


class TestStrongMonotonicity:
    def test_identity_operator_is_exactly_one(self):
        def ident(z):
            return z

        rep = check_strong_monotonicity(
            ident, EUCLID_PAIR, 1.0, sample_triples(BOX_PAIR_DOMAIN, 200, 6))
        assert rep.passed
        assert rep.worst == pytest.approx(1.0, abs=1e-9)

    def test_pure_bilinear_fails_any_positive_m(self):
        rep = check_strong_monotonicity(
            rotation_game, EUCLID_PAIR, 0.01,
            sample_triples(BOX_PAIR_DOMAIN, 200, 7))
        assert not rep.passed
        assert rep.worst < 0.01

    def test_vanishing_divergence_is_skipped(self):
        rep = check_strong_monotonicity(
            rotation_game, FLAT_PAIR, 1.0, sample_triples(BOX_PAIR_DOMAIN, 50, 9))
        assert rep.n_tested == rep.n_skipped == 50
        assert rep.witness == ()

    def test_vanishing_divergence_with_an_anti_monotone_operator_is_a_violation(self):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 50, 9))
        rep = check_strong_monotonicity(lambda z: -1.0 * z, FLAT_PAIR, 1.0, triples)
        assert not rep.passed
        assert (rep.worst, rep.n_tested, rep.n_skipped) == (-np.inf, 1, 0)
        z, w, _ = triples[0]
        assert all(np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
                   for a, b in zip(rep.witness, (z, w)))

    @pytest.mark.parametrize("m, passed", [(1e12 * (1 - 1e-7), True), (2e12, False)])
    def test_small_positive_divergence_gives_a_ratio(self, m, passed):
        # the identity is 1/mu-strongly monotone for mu/2 |.|^2, with every V below 1e-9
        rep = check_strong_monotonicity(
            lambda z: z, TINY_PAIR, m, sample_triples(BOX_PAIR_DOMAIN, 200, 6))
        assert rep.passed == passed and (rep.n_tested, rep.n_skipped) == (200, 0)
        assert rep.worst == pytest.approx(1e12, rel=1e-9)


O = Point(np.zeros(2), np.zeros(2))
E = Point(np.array([1.0, 0.0]), np.zeros(2))
F = Point(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


# (num, num_mag, den, den_mag) of the rotation's rel-lip at (O, O, O), (O, E, F) and
# (E, O, E): skipped (V = 0, no motion), ratio 1 > 0.5, ratio 0
ROTATION_SAMPLES = [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0), (0.0, 0.0, 1.0, 0.0)]


@pytest.mark.parametrize("check, g, constant, samples, sign", [
    (check_relative_lipschitzness, rotation_game, 0.5, ROTATION_SAMPLES, 1),
    (check_relative_smoothness_implies, rotation_game, 0.5, ROTATION_SAMPLES, 1),
    # strong-mono of the identity: skipped, then ratio 1 < 2 twice
    (check_strong_monotonicity, lambda z: z, 2.0,
     [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 0.0)], -1),
], ids=["rel-lip", "rel-smooth", "strong-mono"])
def test_hand_built_triples_get_the_report_of_their_samples(check, g, constant, samples, sign):
    triples = [(O, O, O), (O, E, F), (E, O, E)]
    rep = check(g, EUCLID_PAIR, constant, triples)
    want = _worst_ratio("t", constant, [(*sample, t if sign == 1 else t[:2])
                                        for sample, t in zip(samples, triples)], sign)
    assert not rep.passed and (rep.worst, rep.passed, rep.n_tested, rep.n_skipped) == (
        want.worst, want.passed, 3, 1)
    # the witness is the triple (O, E, F), or its (z, w) for strong-mono
    assert [id(pt) for pt in rep.witness] == [id(pt) for pt in want.witness]
    assert [id(pt) for pt in rep.witness] == [id(pt) for pt in (O, E, F)[:len(rep.witness)]]


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

    triples = list(sample_triples(BOX_PAIR_DOMAIN, 50, 3))
    rep = check(g, pair, 1.0, triples)
    first_nan = (every + 1) // 2  # the sample of the first NaN call
    assert not rep.passed and np.isnan(rep.worst)
    assert rep.n_tested == first_nan
    z, w, _ = triples[first_nan - 1]
    assert all(np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
               for a, b in zip(rep.witness[:2], (z, w)))


class TestWorstRatio:
    """The one noise rule, on (num, num_mag, den, den_mag, witness) samples given by
    hand.  NOISE is 2**-48, so every reading below is exact."""

    PASS = (1.0, 1.0, 1.0, 0.0, "pass")  # ratio 1, read 1 -+ NOISE: within 1 at either sign

    @pytest.mark.parametrize("num, num_mag, den_mag", [
        (np.inf, 1.0, 0.0), (-np.inf, 1.0, 0.0), (np.inf, np.inf, 0.0), (-np.inf, np.inf, 0.0),
        (1.0, np.inf, 0.0), (1.0, 1.0, np.inf),
    ], ids=["inf", "-inf", "inf-inf-magnitude", "-inf-inf-magnitude", "inf-magnitude",
            "inf-den-magnitude"])
    @pytest.mark.parametrize("den", [1.0, 0.0], ids=["den", "vanishing-den"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_an_infinite_value_or_magnitude_is_a_violation(self, num, num_mag, den, den_mag,
                                                           sign):
        # never a skip, however the noise compares with den or num
        rep = _worst_ratio("t", 1.0, [self.PASS, (num, num_mag, den, den_mag, "bad"),
                                      self.PASS], sign)
        assert not rep.passed and rep.worst == sign * np.inf
        assert (rep.witness, rep.n_tested, rep.n_skipped) == ("bad", 2, 0)

    @pytest.mark.parametrize("sample", [
        (np.nan, 1.0, 1.0, 0.0), (1.0, np.nan, 1.0, 0.0), (1.0, 1.0, 1.0, np.nan),
        (1.0, 1.0, np.nan, 0.0), (np.nan, np.nan, 0.0, 0.0), (np.nan, np.inf, 1.0, 0.0),
    ], ids=["num", "num-magnitude", "den-magnitude", "den", "all-over-vanishing-den",
            "num-with-inf-magnitude"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_nan_value_or_magnitude_gives_a_nan_worst(self, sample, sign):
        rep = _worst_ratio("t", 1.0, [self.PASS, (*sample, "bad"), self.PASS], sign)
        assert not rep.passed and np.isnan(rep.worst)
        assert (rep.witness, rep.n_tested, rep.n_skipped) == ("bad", 2, 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_sample_whose_noise_exceeds_its_den_and_num_decides_nothing(self, sign):
        # noise 2 against den 0.5 and num 0.5: the ratio 1 is known only to within 4
        rep = _worst_ratio("t", 1.0, [self.PASS, (0.5, 2 / NOISE, 0.5, 0.0, "undecided")],
                           sign)
        assert rep.passed and (rep.witness, rep.n_tested, rep.n_skipped) == ("pass", 2, 1)
        assert rep.worst == 1.0 - sign * NOISE

    def test_a_large_ratio_known_to_within_its_noise_still_counts(self):
        # noise 2 exceeds den 0.5 but not num 10: the ratio is read as (10 - 2) / 0.5
        rep = _worst_ratio("t", 1.0, [self.PASS, (10.0, 2 / NOISE, 0.5, 0.0, "large")], 1)
        assert not rep.passed and (rep.worst, rep.witness, rep.n_skipped) == (16.0, "large", 0)

    @pytest.mark.parametrize("num, skipped", [(1e-9, True), (2e-9, False)])
    @pytest.mark.parametrize("den", [0.5, 0.0, -0.5])
    def test_a_den_within_its_noise_vanishes(self, num, skipped, den):
        # den magnitude 2**47, noise 0.5: den is read as 0, and a num past TAU_NUM
        # over it is a violation
        rep = _worst_ratio("t", 1.0, [(num, 0.0, den, 0.5 / NOISE, "w")], 1)
        assert (rep.n_skipped, rep.passed) == (int(skipped), skipped)
        assert (rep.worst, rep.witness) == ((-np.inf, ()) if skipped else (np.inf, "w"))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_num_is_read_with_its_noise_in_the_passing_direction(self, sign):
        # a ratio 2**-10 past the constant, whose num has noise 2**-10
        num = 1.0 + sign * 2.0**-10
        assert not _worst_ratio("t", 1.0, [(num, 0.0, 1.0, 0.0, "w")], sign).passed
        rep = _worst_ratio("t", 1.0, [(num, 2.0**-10 / NOISE, 1.0, 0.0, "w")], sign)
        assert rep.passed and (rep.worst, rep.n_skipped) == (1.0, 0)


class TestRegretCertificate:
    def test_empty_trace_passes(self):
        z0 = Point(np.ones(2), np.ones(2))
        u = Point(np.zeros(2), np.zeros(2))
        ok, margin = check_regret_certificate([], rotation_game, EUCLID_PAIR, 1.0, z0, u)
        assert ok and margin == pytest.approx(EUCLID_PAIR.divergence(z0, u))

    def test_honest_trace_passes(self):
        z0 = Point(np.ones(2), -np.ones(2))
        u = Point(np.zeros(2), np.zeros(2))
        ws = [w for w, _, _ in islice(mirror_prox(rotation_game, EUCLID_PAIR, z0, 1.0), 50)]
        ok, _ = check_regret_certificate(ws, rotation_game, EUCLID_PAIR, 1.0, z0, u)
        assert ok

    def test_corrupted_trace_fails(self):
        def g(z):
            return z + rotation_game(z)

        z0 = Point(np.ones(2), -np.ones(2))
        u = Point(np.zeros(2), np.zeros(2))
        ws = [w + Point(np.full(2, 5.0), np.full(2, 5.0))
              for w, _, _ in islice(mirror_prox(g, EUCLID_PAIR, z0, 2.0), 50)]
        ok, margin = check_regret_certificate(ws, g, EUCLID_PAIR, 2.0, z0, u)
        assert not ok and margin < 0


class TestReportIO:
    def test_save_round_trips_key_values(self, tmp_path):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 100, 8))
        rep = check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 1.0, triples)
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

    def test_every_report_labels_its_verdict(self, tmp_path):
        triples = list(sample_triples(BOX_PAIR_DOMAIN, 50, 7))
        prob = gen_quadratic(4, 1.0, 9.0, diag=True, seed=8)
        p = prob.profile.coord_probabilities()
        states = coord_trajectory(prob, np.ones(4), 30, seed=9, p=p)
        u = (prob.x_star, prob.x_star)
        reps = [check_strong_monotonicity(lambda z: z, EUCLID_PAIR, 1.0, triples),
                check_strong_monotonicity(rotation_game, EUCLID_PAIR, 0.01, triples),
                check_relative_lipschitzness(rotation_game, EUCLID_PAIR, 0.4, triples),
                check_estimator_conditions(prob, states, u),
                check_estimator_conditions(prob, states, u, p=p * (1.0 + 1e-9))]
        # the last one fails on its identity, with every ratio within lam
        assert [rep.passed for rep in reps] == [True, False, False, True, False]
        for i, rep in enumerate(reps):
            path = str(tmp_path / f"r{i}.txt")
            rep.save(path)
            with open(path) as fh:
                text = dict(line.rstrip("\n").split("=", 1) for line in fh)
            assert text["semantics"] == ("no violation in N samples" if rep.passed
                                         else "violation found")

    def test_reports_deterministic(self):
        reps = [check_relative_lipschitzness(
            rotation_game, EUCLID_PAIR, 1.0,
            sample_triples(BOX_PAIR_DOMAIN, 200, 9)) for _ in range(2)]
        assert reps[0].worst == reps[1].worst
        assert reps[0].n_tested == reps[1].n_tested
