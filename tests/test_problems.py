"""Instance generation, exact solutions, and serialization round-trips."""

import hashlib
import os

import numpy as np
import pytest
import scipy.sparse as sp

from extragrad import (
    ParseError, QuadraticProblem, gen_quadratic, gen_box_simplex, gen_minimax,
    save_instance, load_instance, BoxSimplexInstance,
    MinimaxInstance, make_rng,
)
from extragrad.problems import (
    read_matrix_market, read_vector,
    write_matrix_market, write_vector, read_manifest, write_manifest,
)


class TestGenQuadratic:
    def test_pinned_extremes_coincide(self):
        prob = gen_quadratic(2, 1.0, 1.0, diag=True, seed=0)
        assert np.allclose(prob.M, np.ones(2))

    def test_eigenvalue_extremes_within_tolerance(self):
        prob = gen_quadratic(12, 0.5, 30.0, diag=False, seed=1)
        ev = np.linalg.eigvalsh(prob.M)
        assert ev[0] >= 0.5 * (1 - 1e-8) and ev[0] <= 0.5 * (1 + 1e-8)
        assert ev[-1] >= 30.0 * (1 - 1e-8) and ev[-1] <= 30.0 * (1 + 1e-8)

    def test_determinism(self):
        a = gen_quadratic(8, 1.0, 10.0, diag=True, seed=42)
        b = gen_quadratic(8, 1.0, 10.0, diag=True, seed=42)
        assert np.array_equal(a.M, b.M) and np.array_equal(a.b, b.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_quadratic(0, 1.0, 2.0)
        with pytest.raises(ValueError):
            gen_quadratic(3, 2.0, 1.0)
        with pytest.raises(ValueError, match="needs mu = L"):
            gen_quadratic(1, 1.0, 10.0)

    def test_minimizer_is_optimal(self):
        prob = gen_quadratic(6, 1.0, 9.0, diag=False, seed=3)
        rng = make_rng(4)
        for _ in range(30):
            delta = 1e-3 * rng.standard_normal(6)
            assert prob.f(prob.x_star) <= prob.f(prob.x_star + delta)

    def test_partial_oracle_matches_gradient(self):
        prob = gen_quadratic(5, 1.0, 5.0, diag=True, seed=5)
        x = make_rng(6).standard_normal(5)
        full = prob.grad(x)
        for i in range(5):
            assert prob.partial_at(i, x[i]) == pytest.approx(full[i], abs=1e-12)
        dense = gen_quadratic(5, 1.0, 5.0, diag=False, seed=5)
        with pytest.raises(ValueError, match="diagonal M"):
            dense.partial_at(0, x[0])


class TestGrad:
    # 501 is past d ≈ 500, where one stacked product stops beating two 1-D ones
    SIZES = [1, 2, 3, 200, 501]

    @pytest.mark.parametrize("diag", [True, False])
    @pytest.mark.parametrize("d", SIZES)
    def test_stacked_rows_match_one_call_per_row(self, diag, d):
        prob = gen_quadratic(d, 1.0, 1.0 if d == 1 else 50.0, diag=diag, seed=d)
        for k in (1, 2, 3):
            X = make_rng(k).standard_normal((k, d))
            G = prob.grad(X)
            assert G.shape == (k, d) and not np.shares_memory(G, X)
            for x, g in zip(X, G):
                one = prob.grad(x)
                assert np.max(np.abs(g - one)) <= 1e-14 * np.max(np.abs(one))

    @pytest.mark.parametrize("diag", [True, False])
    @pytest.mark.parametrize("d", SIZES)
    def test_one_row_is_M_x_plus_b(self, diag, d):
        prob = gen_quadratic(d, 1.0, 1.0 if d == 1 else 50.0, diag=diag, seed=d)
        x = make_rng(0).standard_normal(d)
        Mx = prob.M * x if diag else prob.M @ x
        assert np.array_equal(prob.grad(x), Mx + prob.b)


class TestGenBoxSimplex:
    def test_scalar_instance(self):
        inst = gen_box_simplex(1, 1, 1.0, seed=0)
        assert inst.A.shape == (1, 1)
        assert abs(inst.A[0, 0]) <= 1.0

    def test_norm_matches_rows(self):
        inst = gen_box_simplex(10, 8, 0.6, seed=1)
        dense = inst.A.toarray()
        assert inst.op_norm == pytest.approx(np.abs(dense).sum(axis=1).max(), abs=1e-12)

    def test_density_concentration(self):
        inst = gen_box_simplex(120, 100, 0.3, seed=2)
        frac = inst.A.nnz / (120 * 100)
        assert abs(frac - 0.3) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_box_simplex(0, 5)
        with pytest.raises(ValueError):
            gen_box_simplex(5, 5, density=0.0)


class TestExactSolution:
    def test_identity_quadratic(self):
        prob = QuadraticProblem(np.eye(2), np.array([-1.0, -1.0]), 1.0, 1.0)
        x, val = prob.x_star, prob.f_star
        assert np.allclose(x, [1.0, 1.0])
        assert val == pytest.approx(prob.f(np.array([1.0, 1.0])))

    def test_decoupled_minimax(self):
        inst = MinimaxInstance(2.0, 4.0, np.zeros((2, 2)),
                               np.array([2.0, 0.0]), np.array([0.0, 8.0]))
        z = inst.saddle_point()
        assert np.allclose(z.x, [-1.0, 0.0])
        assert np.allclose(z.y, [0.0, -2.0])

    def test_coupled_minimax_residual(self):
        inst = gen_minimax(6, 5, 1.0, 2.0, 3.0, seed=8)
        z = inst.saddle_point()
        g = inst.operator(z)
        assert max(np.abs(g.x).max(), np.abs(g.y).max()) < 1e-10


class TestSerialization:
    def test_vector_round_trip(self, tmp_path):
        v = make_rng(9).standard_normal(20)
        path = str(tmp_path / "v.txt")
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_dense_matrix_round_trip(self, tmp_path):
        M = make_rng(10).standard_normal((4, 3))
        path = str(tmp_path / "m.mtx")
        write_matrix_market(path, M)
        assert np.array_equal(read_matrix_market(path), M)

    def test_sparse_matrix_round_trip(self, tmp_path):
        A = sp.random(30, 20, density=0.2, random_state=0, format="csr")
        path = str(tmp_path / "a.mtx")
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert (A != B).nnz == 0

    def test_quadratic_round_trip(self, tmp_path):
        for diag in (True, False):
            prob = gen_quadratic(5, 1.0, 7.0, diag=diag, seed=11)
            man = str(tmp_path / f"q{int(diag)}.manifest")
            save_instance(prob, man)
            back = load_instance(man)
            assert np.array_equal(back.M, prob.M)
            assert np.array_equal(back.b, prob.b)
            assert back.profile.mu == prob.profile.mu
            # M stored in coordinate format loads as the same dense array
            mpath = str(tmp_path / f"q{int(diag)}.M.mtx")
            write_matrix_market(mpath, sp.csr_matrix(read_matrix_market(mpath)))
            with open(mpath) as fh:
                assert "coordinate" in fh.readline()
            coo = load_instance(man)
            assert coo.diag == diag and type(coo.M) is np.ndarray
            assert np.array_equal(coo.M, back.M)

    def test_diagonal_written_as_column(self, tmp_path):
        prob = gen_quadratic(50, 1.0, 1e3, diag=True, seed=15)
        man = str(tmp_path / "dg.manifest")
        save_instance(prob, man)
        assert read_matrix_market(str(tmp_path / "dg.M.mtx")).shape == (50, 1)
        back = load_instance(man)
        assert back.diag and np.array_equal(back.M, prob.M)
        assert np.array_equal(back.b, prob.b)

    def test_dense_diagonal_manifest_still_loads(self, tmp_path):
        # manifests written before the diagonal was saved as a column hold all d^2 values
        with open(str(tmp_path / "old.M.mtx"), "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n3 3\n"
                     "2.0\n0.0\n0.0\n0.0\n0.5\n0.0\n0.0\n0.0\n7.25\n")
        with open(str(tmp_path / "old.b.txt"), "w") as fh:
            fh.write("1.0\n-1.0\n0.5\n")
        man = str(tmp_path / "old.manifest")
        write_manifest(man, {"kind": "quadratic", "diag": 1, "d": 3, "M": "old.M.mtx",
                             "b": "old.b.txt", "mu": "0.5", "L": "7.25"})
        back = load_instance(man)
        assert back.diag and np.array_equal(back.M, [2.0, 0.5, 7.25])
        assert np.array_equal(back.b, [1.0, -1.0, 0.5])

    @pytest.mark.parametrize("diag, values, message", [
        (1, "2.0\n0.0\n0.0\n0.0\n0.5\n0.0\n1.0\n0.0\n7.25\n", "diag=1 needs M as a d x 1"),
        (0, "2.0\n0.0\n0.0\n0.0\n0.5\n0.0\n1.0\n0.0\n7.25\n", "M must be symmetric"),
    ])
    def test_m_read_wrongly_is_a_parse_error(self, tmp_path, diag, values, message):
        # np.diag would drop the off-diagonal 1.0, and cholesky reads one triangle
        with open(str(tmp_path / "q.M.mtx"), "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n3 3\n" + values)
        with open(str(tmp_path / "q.b.txt"), "w") as fh:
            fh.write("1.0\n-1.0\n0.5\n")
        man = str(tmp_path / "q.manifest")
        write_manifest(man, {"kind": "quadratic", "diag": diag, "d": 3, "M": "q.M.mtx",
                             "b": "q.b.txt", "mu": "0.5", "L": "7.25"})
        with pytest.raises(ParseError, match=message) as ei:
            load_instance(man)
        assert ei.value.path == man and ei.value.line == 1

    @pytest.mark.parametrize("diag", [True, False])
    @pytest.mark.parametrize("key, value", [("mu", 1e-300), ("mu", 5.0), ("L", 40.0)])
    def test_mu_and_l_must_match_the_spectrum(self, tmp_path, diag, key, value):
        # eg-accel's lam comes from mu and L; with mu = 1e-300 it would run without end
        man = str(tmp_path / "q.manifest")
        save_instance(gen_quadratic(8, 1.0, 30.0, diag=diag, seed=5), man)
        entries = read_manifest(man)
        entries[key] = repr(value)
        write_manifest(man, entries)
        with pytest.raises(ParseError, match="disagree with the extreme eigenvalues"):
            load_instance(man)

    def test_box_simplex_round_trip(self, tmp_path):
        inst = gen_box_simplex(100, 80, 0.3, seed=12)
        man = str(tmp_path / "bs.manifest")
        save_instance(inst, man)
        back = load_instance(man)
        assert back.A.nnz == inst.A.nnz
        assert back.op_norm == pytest.approx(inst.op_norm, abs=1e-15)
        assert np.array_equal(back.b, inst.b)

    def test_minimax_round_trip(self, tmp_path):
        inst = gen_minimax(4, 3, 1.5, 0.5, 2.0, seed=13)
        man = str(tmp_path / "mm.manifest")
        save_instance(inst, man)
        back = load_instance(man)
        assert np.array_equal(back.C, inst.C)
        assert back.mu_x == inst.mu_x and back.mu_y == inst.mu_y
        # C stored in coordinate format loads as the same dense array
        cpath = str(tmp_path / "mm.C.mtx")
        write_matrix_market(cpath, sp.csr_matrix(inst.C))
        with open(cpath) as fh:
            assert "coordinate" in fh.readline()
        coo = load_instance(man)
        assert type(coo.C) is np.ndarray and np.array_equal(coo.C, back.C)

    def test_regeneration_is_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            prob = gen_quadratic(6, 1.0, 3.0, diag=True, seed=99)
            man = str(tmp_path / f"r{run}.manifest")
            save_instance(prob, man)
            with open(str(tmp_path / f"r{run}.M.mtx"), "rb") as fh:
                paths.append(fh.read())
        assert paths[0] == paths[1]

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        inst = gen_box_simplex(10, 8, 0.5, seed=14)
        man = str(tmp_path / "t.manifest")
        save_instance(inst, man)
        apath = str(tmp_path / "t.A.mtx")
        with open(apath) as fh:
            lines = fh.readlines()
        with open(apath, "w") as fh:
            fh.writelines(lines[:-3])
        with pytest.raises(ParseError):
            load_instance(man)

    @pytest.mark.parametrize("text, line, message", [
        ("%%MatrixMarket matrix array real general\n", 2, "missing size line"),
        ("%%MatrixMarket matrix coordinate real general\n% note\n\n", 2, "missing size line"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", 2,
         "coordinate size line needs m n nnz"),
        ("%%MatrixMarket matrix array real general\n2 2 4\n", 2, "array size line needs m n"),
        ("%%MatrixMarket matrix array real general\ntwo 2\n", 2, "bad size line 'two 2'"),
        ("%%MatrixMarket matrix array real general\n-2 -1\n1\n2\n", 2,
         "negative size in '-2 -1'"),
        ("%%MatrixMarket matrix coordinate real general\n-2 3 0\n", 2,
         "negative size in '-2 3 0'"),
    ])
    def test_bad_size_line_is_a_parse_error(self, tmp_path, text, line, message):
        path = str(tmp_path / "s.mtx")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ParseError, match=message) as ei:
            read_matrix_market(path)
        assert ei.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ("2 3 1\n0 1 1.5\n", 3, r"index \(0, 1\) outside the 2 x 3 matrix"),
        ("2 3 2\n1 1 1.5\n2 4 1.5\n", 4, r"index \(2, 4\) outside the 2 x 3 matrix"),
        ("2 3 1\n99999999999999999999 1 1.5\n", 3,
         r"index \(99999999999999999999, 1\) outside the 2 x 3 matrix"),
    ])
    def test_bad_coordinate_index_is_a_parse_error(self, tmp_path, text, line, message):
        path = str(tmp_path / "c.mtx")
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n" + text)
        with pytest.raises(ParseError, match=message) as ei:
            read_matrix_market(path)
        assert ei.value.line == line

    def test_bad_number_reports_line(self, tmp_path):
        path = str(tmp_path / "v.txt")
        with open(path, "w") as fh:
            fh.write("1.0\nnot-a-number\n")
        with pytest.raises(ParseError) as ei:
            read_vector(path)
        assert ei.value.line == 2

    def test_manifest_round_trip(self, tmp_path):
        path = str(tmp_path / "m.txt")
        write_manifest(path, {"kind": "quadratic", "d": 5})
        man = read_manifest(path)
        assert man["kind"] == "quadratic" and man["d"] == "5"

    def test_manifest_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "m.txt")
        with open(path, "w") as fh:
            fh.write("no separator here\n")
        with pytest.raises(ParseError):
            read_manifest(path)


# SHA-256 of every file save_instance writes for these instances, taken before the
# writers built each file as one string; a writer that changes a byte fails here
# even when its output still reads back to the same arrays.
GOLDEN = {
    "bs.A.mtx": "357525f26494caca9e65a267ef09da41a5fd9dd762fa3bf751f77185cf91ef3d",
    "bs.b.txt": "90d54e253bcbd52c039caea59de51939a1b7b9d17564aef4986106ffa5927261",
    "bs.c.txt": "b8959a5c58beb84c92f5b6b0ebc8df34466473d046777747e45f29fe5d503ee4",
    "bs.manifest": "bc9b19b5f4350c7ed2807bb2d6b1b3f646dc18d618929e4e6ada14334f205a4f",
    "dense.M.mtx": "eb900eeb2e058fa5cc68d5cd164f889e6eb32570f5dd5a2bcfdada6a1d8b4d82",
    "dense.b.txt": "d73d93b8ae7b2de988c4caf3289266d1f94ad9021453e16971481e3e7ed43225",
    "dense.manifest": "660e253a2cbce08428f498f2977bcd30e21a6ee1173ef644cfe9eb351a0c3fb7",
    "diag.M.mtx": "26949bc5702b5e471f1ac69689b4e8362155ae78e185b612a0c6f0496dd45c69",
    "diag.b.txt": "e94e5f8c3ccfd0c1aaebaad03b103f98205b737b81d3c5cc7c2d06312f233859",
    "diag.manifest": "318868719a4b4a06212b24077ceb58c9c84356d9f9418f0e2b98f22dbb3e6710",
    "mm.C.mtx": "c088cf26678237123db8fedbdc1c74a70f2863ee2a1121309030908f6b8f139b",
    "mm.manifest": "57fd4c6aba9b5487980cd04200fbc4ef38d7d7d0191fd67b862700d0af1eeae1",
    "mm.q.txt": "745474e33872b7a20ac625b53c09be200005325ea2a60ef1b5c3a402a2dc43f7",
    "mm.r.txt": "ccb3095dbca18f729c440a6304397b53b51491508afbd600f07619482473356f",
}


def test_saved_files_match_golden_digests(tmp_path):
    instances = {
        "dense": gen_quadratic(6, 1.0, 100.0, diag=False, seed=3),
        "diag": gen_quadratic(7, 0.5, 20.0, diag=True, seed=4),
        "bs": gen_box_simplex(9, 7, 0.3, seed=5),
        "mm": gen_minimax(5, 4, 1.0, 2.0, 3.0, seed=6),
    }
    for stem, inst in instances.items():
        save_instance(inst, str(tmp_path / (stem + ".manifest")))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in os.listdir(tmp_path)}
    assert digests == GOLDEN
