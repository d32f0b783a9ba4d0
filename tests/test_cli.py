"""Command-line surface: exit codes, trace format, determinism."""

import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extragrad
from extragrad import boxsimplex, cli
from extragrad.cli import main, TRACE_HEADER
from extragrad.core import DomainError
from extragrad.operators import BoxSimplexInstance
from extragrad.problems import ParseError, QuadraticProblem, load_instance
from extragrad.solvers import NonFiniteIterateError


def run(argv):
    return main(argv)


def read_summary(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh)


@pytest.fixture
def quad_manifest(tmp_path):
    out = str(tmp_path / "quad.manifest")
    assert run(["gen", "quadratic", "d=8", "mu=1", "L=50", "diag=1",
                "--seed", "0", "--out", out]) == 0
    return out


@pytest.fixture
def bs_manifest(tmp_path):
    out = str(tmp_path / "bs.manifest")
    assert run(["gen", "box-simplex", "m=8", "n=6", "density=0.5",
                "--seed", "1", "--out", out]) == 0
    return out


@pytest.fixture
def mm_manifest(tmp_path):
    out = str(tmp_path / "mm.manifest")
    assert run(["gen", "minimax", "n=5", "m=4", "mu_x=1", "mu_y=1", "coupling=2",
                "--seed", "2", "--out", out]) == 0
    return out


def _write_game(tmp_path, A, b, c):
    """A box-simplex manifest for the dense m x n matrix A, with A in coordinate form."""
    m, n = np.shape(A)
    entries = [f"{i + 1} {j + 1} {float(v)!r}\n" for i, row in enumerate(A)
               for j, v in enumerate(row) if v]
    (tmp_path / "g.A.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                      f"{m} {n} {len(entries)}\n" + "".join(entries))
    for key, vector in (("b", b), ("c", c)):
        (tmp_path / f"g.{key}.txt").write_text("".join(f"{float(v)!r}\n" for v in vector))
    manifest = tmp_path / "g.manifest"
    manifest.write_text(f"kind=box-simplex\nm={m}\nn={n}\nA=g.A.mtx\nb=g.b.txt\nc=g.c.txt\n")
    return str(manifest)


class TestGen:
    def test_writes_manifest(self, quad_manifest):
        assert os.path.exists(quad_manifest)

    def test_regeneration_byte_identical(self, tmp_path):
        blobs = []
        for run_id in range(2):
            out = str(tmp_path / f"g{run_id}.manifest")
            assert run(["gen", "quadratic", "d=6", "mu=1", "L=10",
                        "--seed", "7", "--out", out]) == 0
            with open(out, "rb") as fh:
                blobs.append(fh.read().replace(f"g{run_id}".encode(), b"g"))
        assert blobs[0] == blobs[1]

    def test_bad_kind_is_usage_error(self, tmp_path):
        assert run(["gen", "nonsense", "--out", str(tmp_path / "x")]) == 64

    @pytest.mark.parametrize("params", [
        ["quadratic", "d=abc"], ["quadratic", "d=0"], ["quadratic", "mu=5", "L=1"],
        ["quadratic", "L=inf"], ["quadratic", "x=1"], ["quadratic", "d"],
        ["quadratic", "d=1"], ["box-simplex", "m=-1"], ["box-simplex", "density=2"], ["minimax", "n=0"],
        ["minimax", "mu_x=0"], ["minimax", "coupling=nan"],
    ], ids=" ".join)
    def test_bad_parameter_is_usage_error(self, tmp_path, capsys, params):
        out = str(tmp_path / "g.manifest")
        assert run(["gen", *params, "--out", out]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not os.listdir(tmp_path)


class TestSolve:
    def test_eg_accel_succeeds(self, quad_manifest, tmp_path):
        out = str(tmp_path / "run")
        assert run(["solve", "--alg", "eg-accel", "--instance", quad_manifest,
                    "--eps", "1e-8", "--out", out]) == 0
        with open(out + ".trace.csv") as fh:
            assert fh.readline().strip() == ",".join(TRACE_HEADER)
        with open(out + ".summary.txt") as fh:
            text = fh.read()
        assert "algorithm=eg-accel" in text
        assert "exit_code=0" in text

    def test_trace_byte_identical(self, quad_manifest, tmp_path):
        blobs = []
        for i in range(2):
            out = str(tmp_path / f"t{i}")
            assert run(["solve", "--alg", "eg-coord", "--instance", quad_manifest,
                        "--eps", "1e-6", "--seed", "5", "--out", out]) == 0
            with open(out + ".trace.csv", "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_box_simplex_trace_byte_identical(self, bs_manifest, tmp_path):
        blobs = []
        for i in range(2):
            out = str(tmp_path / f"bs{i}")
            assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                        "--eps", "0.1", "--check", "--out", out]) == 0
            with open(out + ".trace.csv", "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_box_simplex_zero_iters_is_exit_2(self, bs_manifest, tmp_path):
        out = str(tmp_path / "z")
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--iters", "0", "--out", out]) == 2
        with open(out + ".summary.txt") as fh:
            text = fh.read()
        assert "iterations=0" in text and "exit_code=2" in text
        summary = read_summary(out + ".summary.txt")
        assert float(summary["gap"]) > float(summary["eps"])
        assert summary["answer"] == "average"  # z0 itself

    def test_budget_exhaustion_is_exit_2(self, quad_manifest, tmp_path):
        out = str(tmp_path / "b")
        assert run(["solve", "--alg", "baseline", "--instance", quad_manifest,
                    "--eps", "1e-12", "--iters", "5", "--out", out]) == 2
        with open(out + ".summary.txt") as fh:
            assert "exit_code=2" in fh.read()

    def test_baseline_zero_iters_answers_x0(self, quad_manifest, tmp_path):
        out = str(tmp_path / "b0")
        assert run(["solve", "--alg", "baseline", "--instance", quad_manifest,
                    "--iters", "0", "--out", out]) == 0
        with open(out + ".summary.txt") as fh:
            text = fh.read()
        assert "iters=0" in text and "bound=inf" in text and "exit_code=0" in text
        with open(out + ".trace.csv") as fh:
            assert fh.read().strip() == ",".join(TRACE_HEADER)

    @pytest.mark.parametrize("alg", ["mirror-prox", "dual-ex"])
    def test_quadratic_zero_iters_answers_x0(self, alg, quad_manifest, tmp_path):
        out = str(tmp_path / alg)
        assert run(["solve", "--alg", alg, "--instance", quad_manifest,
                    "--iters", "0", "--out", out]) == 0
        summary = read_summary(out + ".summary.txt")
        problem = load_instance(quad_manifest)
        assert summary["iters"] == "0" and summary["exit_code"] == "0"
        assert float(summary["final_f_err"]) == problem.error(np.zeros(problem.d))
        with open(out + ".trace.csv") as fh:
            assert fh.read().strip() == ",".join(TRACE_HEADER)

    def test_mirror_prox_with_certificate(self, mm_manifest, tmp_path):
        out = str(tmp_path / "mp")
        assert run(["solve", "--alg", "mirror-prox", "--instance", mm_manifest,
                    "--iters", "50", "--check", "--out", out]) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("alg", ["mirror-prox", "dual-ex"])
    def test_summary_cum_regret_is_the_last_trace_row(self, alg, seed, tmp_path):
        # both sum the regrets left to right, so the two texts agree digit for digit
        manifest, out = str(tmp_path / "mm.manifest"), str(tmp_path / alg)
        assert run(["gen", "minimax", "--seed", str(seed), "--out", manifest]) == 0
        assert run(["solve", "--alg", alg, "--instance", manifest, "--out", out]) == 0
        with open(out + ".trace.csv") as fh:
            header, *rows = [line.rstrip("\n").split(",") for line in fh]
        last = rows[-1][header.index("cum_regret")]
        assert read_summary(out + ".summary.txt")["cum_regret"] == last

    def test_mp_strong_certifies_the_contraction(self, mm_manifest, tmp_path):
        out = str(tmp_path / "sm")
        assert run(["solve", "--alg", "mp-strong", "--instance", mm_manifest,
                    "--iters", "50", "--check", "--out", out]) == 0
        assert read_summary(out + ".summary.txt")["certificate_pass"] == "1"

    def test_mp_strong_oversized_mono_fails_the_certificate(self, mm_manifest, tmp_path):
        out = str(tmp_path / "sm")
        assert run(["solve", "--alg", "mp-strong", "--instance", mm_manifest, "--iters", "5",
                    "--mono", "1000", "--check", "--out", out]) == 3
        assert read_summary(out + ".summary.txt")["certificate_pass"] == "0"

    @pytest.mark.parametrize("argv", [["solve", "--alg", "eg-accel"],
                                      ["verify", "--check", "rel-lip"],
                                      ["bench", "--alg", "eg-accel"]], ids=" ".join)
    def test_instance_is_required(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err == "usage error: --instance is required for this command\n"
        assert not os.listdir(tmp_path)

    def test_unknown_alg_is_usage_error(self, quad_manifest):
        assert run(["solve", "--alg", "gradient-descent",
                    "--instance", quad_manifest]) == 64

    def test_missing_instance_is_io_error(self, tmp_path):
        assert run(["solve", "--alg", "eg-accel",
                    "--instance", str(tmp_path / "missing.manifest")]) == 4

    def test_nan_in_data_is_parse_error(self, quad_manifest, tmp_path, capsys):
        bfile = quad_manifest.replace(".manifest", ".b.txt")
        with open(bfile) as fh:
            lines = fh.readlines()
        lines[2] = "nan\n"
        with open(bfile, "w") as fh:
            fh.writelines(lines)
        assert run(["solve", "--alg", "eg-accel", "--instance", quad_manifest,
                    "--out", str(tmp_path / "n")]) == 4
        assert "b.txt:3: non-finite value 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("mu=1.0", "mu=100.0", "need 0 < mu <= L"),
        ("mu=1.0", "mu=5.0", "disagree with the extreme eigenvalues 1.0 and 50.0 of M"),
        ("mu=1.0", "mu=one", "could not convert string to float: 'one'"),
        ("b=quad.b.txt", "", "missing key 'b'"),
        ("L=50.0", "L=inf", "need 0 < mu <= L, both finite"),
        ("d=8", "d=3", "dimensions disagree with data files"),
        ("A=bs.A.mtx", "", "missing key 'A'"),
        ("c=bs.c.txt", "", "missing key 'c'"),
        ("C=mm.C.mtx", "", "missing key 'C'"),
        ("r=mm.r.txt", "", "missing key 'r'"),
        ("mu_x=1.0", "mu_x=nan", "need mu_x > 0 and mu_y > 0, both finite"),
        ("mu_y=1.0", "mu_y=inf", "need mu_x > 0 and mu_y > 0, both finite"),
        ("mu_x=1.0", "mu_x=1e400", "need mu_x > 0 and mu_y > 0, both finite"),
        ("mu_y=1.0", "mu_y=-inf", "need mu_x > 0 and mu_y > 0, both finite"),
    ])
    def test_bad_manifest_is_parse_error(self, quad_manifest, bs_manifest, mm_manifest,
                                         tmp_path, capsys, old, new, message):
        algs = {quad_manifest: "eg-accel", bs_manifest: "box-simplex",
                mm_manifest: "mirror-prox"}
        texts = {}
        for path in algs:
            with open(path) as fh:
                texts[path] = fh.read()
        [manifest] = [path for path, text in texts.items() if old in text]
        with open(manifest, "w") as fh:
            fh.write(texts[manifest].replace(old, new))
        capsys.readouterr()
        assert run(["solve", "--alg", algs[manifest], "--instance", manifest,
                    "--out", str(tmp_path / "m")]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("n=5", "n=99"), ("m=4", "m=3")])
    def test_bad_minimax_dimensions_are_parse_error(self, mm_manifest, tmp_path, capsys,
                                                    old, new):
        with open(mm_manifest) as fh:
            text = fh.read()
        assert old in text
        with open(mm_manifest, "w") as fh:
            fh.write(text.replace(old, new))
        out = str(tmp_path / "m")
        assert run(["solve", "--alg", "mirror-prox", "--instance", mm_manifest,
                    "--out", out]) == 4
        assert "dimensions disagree with data files" in capsys.readouterr().err
        assert not os.path.exists(out + ".summary.txt")

    @pytest.mark.parametrize("alg, data, message", [
        ("eg-accel", "quad.b.txt", "is not finite"),
        ("mirror-prox", "mm.C.mtx", "coupling norm"),
    ])
    def test_overflowing_instance_is_parse_error(self, quad_manifest, mm_manifest, tmp_path,
                                                 capsys, alg, data, message):
        path = str(tmp_path / data)
        with open(path) as fh:
            lines = fh.readlines()
        lines[-1] = "1e308\n"  # finite, but the instance's constants overflow
        with open(path, "w") as fh:
            fh.writelines(lines)
        manifest = quad_manifest if data.startswith("quad") else mm_manifest
        assert run(["solve", "--alg", alg, "--instance", manifest,
                    "--out", str(tmp_path / "o")]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("alg, files, message", [
        ("box-simplex", {"e.manifest": "kind=box-simplex\nm=0\nn=2\nA=e.A.mtx\nb=e.b.txt\n"
                                       "c=e.c.txt\n",
                         "e.A.mtx": "%%MatrixMarket matrix coordinate real general\n0 2 0\n",
                         "e.b.txt": "", "e.c.txt": "1.0\n2.0\n"}, "A needs a row"),
        ("eg-accel", {"e.manifest": "kind=quadratic\nd=0\ndiag=0\nM=e.M.mtx\nb=e.b.txt\n"
                                    "mu=1.0\nL=1.0\n",
                      "e.M.mtx": "%%MatrixMarket matrix array real general\n0 0\n",
                      "e.b.txt": ""}, "need one or more coordinate smoothnesses"),
    ], ids=["box-simplex", "quadratic"])
    def test_empty_instance_is_parse_error(self, tmp_path, capsys, alg, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = str(tmp_path / "o")
        assert run(["solve", "--alg", alg, "--instance", str(tmp_path / "e.manifest"),
                    "--out", out]) == 4
        assert message in capsys.readouterr().err
        assert not os.path.exists(out + ".summary.txt")

    def test_asymmetric_m_is_parse_error(self, tmp_path, capsys):
        out = str(tmp_path / "q.manifest")
        assert run(["gen", "quadratic", "d=2", "mu=2", "L=3", "diag=0", "--out", out]) == 0
        with open(str(tmp_path / "q.M.mtx"), "w") as fh:  # [[2, 5], [0, 3]], column-major
            fh.write("%%MatrixMarket matrix array real general\n2 2\n2.0\n0.0\n5.0\n3.0\n")
        assert run(["solve", "--alg", "eg-accel", "--instance", out,
                    "--out", str(tmp_path / "o")]) == 4
        assert "M must be symmetric" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "o.summary.txt"))

    @pytest.mark.parametrize("field, qualifier", [
        ("complex", "general"), ("pattern", "general"), ("real", "skew-symmetric"),
        ("real", "symmetric"), ("complex", "hermitian"), ("REAL", "SYMMETRIC"),
    ])
    def test_misread_header_is_parse_error(self, bs_manifest, tmp_path, capsys,
                                           field, qualifier):
        # each would load as its stored values or triangle only, or drop imaginary parts
        apath = str(tmp_path / "bs.A.mtx")
        with open(apath) as fh:
            lines = fh.readlines()
        lines[0] = f"%%MatrixMarket matrix coordinate {field} {qualifier}\n"
        with open(apath, "w") as fh:
            fh.writelines(lines)
        out = str(tmp_path / "o")
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--out", out]) == 4
        assert capsys.readouterr().err == (
            f"I/O error: {apath}:1: unsupported header {lines[0].strip()!r}: only general "
            "matrices and symmetric arrays of reals are read\n")
        assert not os.path.exists(out + ".summary.txt")

    def test_huge_coordinate_index_is_parse_error(self, bs_manifest, tmp_path, capsys):
        apath = str(tmp_path / "bs.A.mtx")
        with open(apath) as fh:
            lines = fh.readlines()
        lines[2] = "99999999999999999999 " + lines[2].split(" ", 1)[1]
        with open(apath, "w") as fh:
            fh.writelines(lines)
        out = str(tmp_path / "o")
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"I/O error: {apath}:3: index (99999999999999999999, "
                                f"{lines[2].split()[1]}) outside the 8 x 6 matrix\n")
        assert not os.path.exists(out + ".summary.txt")

    @pytest.mark.parametrize("alg, rows, cols", [
        pytest.param("box-simplex", "99999999999999999999", "6", id="99999999999999999999"),
        pytest.param("box-simplex", "3000000000", "6", id="3000000000"),
        pytest.param("eg-accel", "3000000000", "1", id="quadratic-array"),
        pytest.param("box-simplex", "3000000000", "-6", id="oversized-m-negative-n"),
    ])
    def test_size_past_the_longest_vector_is_parse_error(self, bs_manifest, quad_manifest,
                                                         tmp_path, capsys, alg, rows, cols):
        # past int64, csr_matrix overflowed; at 3e9 rows, scipy asked for a 22 GiB indptr.
        # The bound is checked before the sign and the int64 range of the size line.
        manifest = bs_manifest if alg == "box-simplex" else quad_manifest
        mpath = manifest.replace(".manifest", ".A.mtx" if alg == "box-simplex" else ".M.mtx")
        with open(mpath) as fh:
            lines = fh.readlines()
        size = " ".join([rows, cols, *lines[1].split()[2:]])
        lines[1] = size + "\n"
        with open(mpath, "w") as fh:
            fh.writelines(lines)
        out = str(tmp_path / "o")
        assert run(["solve", "--alg", alg, "--instance", manifest, "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"I/O error: {mpath}:2: size line {size!r} exceeds 8, "
                                "the longest vector of the instance\n")
        assert not os.path.exists(out + ".summary.txt")

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "0"), ("--eps", "nan"), ("--eps", "-1"), ("--iters", "-3"),
    ])
    def test_box_simplex_out_of_range_is_usage_error(self, bs_manifest, tmp_path,
                                                     capsys, flag, value):
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    flag, value, "--out", str(tmp_path / "u")]) == 64
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err
        assert not os.path.exists(str(tmp_path / "u.trace.csv"))

    @pytest.mark.parametrize("value", ["0", "nan", "-1"])
    def test_eg_accel_out_of_range_eps0_is_usage_error(self, quad_manifest, tmp_path,
                                                       capsys, value):
        assert run(["solve", "--alg", "eg-accel", "--instance", quad_manifest,
                    "--eps0", value, "--out", str(tmp_path / "u")]) == 64
        assert "argument --eps0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--alg", "mirror-prox", "--lambda", "0"],
        ["solve", "--alg", "mirror-prox", "--lambda", "nan"],
        ["solve", "--alg", "mirror-prox", "--lambda", "-1"],
        ["solve", "--alg", "mp-strong", "--mono", "nan"],
        ["verify", "--check", "strong-mono", "--mono", "-1"],
        ["verify", "--check", "rel-lip", "--samples", "-3"],
        ["verify", "--check", "rel-lip", "--samples", "0"],
    ], ids=lambda argv: "=".join(argv[3:]))
    def test_out_of_range_numeric_flag_is_usage_error(self, mm_manifest, tmp_path,
                                                      capsys, argv):
        out = str(tmp_path / "u")
        assert run(argv + ["--instance", mm_manifest, "--out", out]) == 64
        err = capsys.readouterr().err
        assert f"argument {argv[3]}" in err and "Traceback" not in err
        assert not os.path.exists(out + ".summary.txt")

    def test_alg_instance_mismatch_is_usage_error(self, bs_manifest):
        assert run(["solve", "--alg", "eg-accel", "--instance", bs_manifest]) == 64

    def test_diverged_run_is_exit_3(self, quad_manifest, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert run(["solve", "--alg", "mirror-prox", "--lambda", "1e-300",
                    "--instance", quad_manifest, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: non-finite iterate") and err.count("\n") == 1
        assert not os.path.exists(out + ".summary.txt")

    def test_eg_accel_gradient_turning_non_finite_is_exit_3(self, quad_manifest, tmp_path,
                                                             capsys, monkeypatch):
        grad = QuadraticProblem.grad
        calls = []

        def failing_grad(self, x):
            # one entry turns NaN in the middle of the first phase
            calls.append(None)
            g = grad(self, x)
            if len(calls) == 10:
                g[0, 2] = np.nan
            return g

        monkeypatch.setattr(QuadraticProblem, "grad", failing_grad)
        out = str(tmp_path / "d")
        assert run(["solve", "--alg", "eg-accel", "--eps0", "1", "--eps", "1e-6",
                    "--instance", quad_manifest, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: non-finite iterate at t=0")
        assert not os.path.exists(out + ".summary.txt")

    @pytest.mark.parametrize("alg", ["baseline", "eg-accel", "eg-gennorm", "eg-coord"])
    def test_check_without_certificate_is_usage_error(self, quad_manifest, tmp_path,
                                                      capsys, alg):
        out = str(tmp_path / "c")
        assert run(["solve", "--alg", alg, "--instance", quad_manifest,
                    "--check", "--out", out]) == 64
        assert f"algorithm {alg} has no certificate" in capsys.readouterr().err
        assert not os.path.exists(out + ".summary.txt")

    def test_check_takes_no_value(self, bs_manifest, tmp_path):
        out = str(tmp_path / "c")
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--check", "", "--out", out]) == 64
        assert not os.path.exists(out + ".summary.txt")

    def test_box_simplex_solve(self, bs_manifest, tmp_path):
        out = str(tmp_path / "bs")
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--eps", "0.1", "--check", "--out", out]) == 0
        with open(out + ".summary.txt") as fh:
            text = fh.read()
        assert "stability_ok=1" in text and "local_rl_ok=1" in text
        summary = read_summary(out + ".summary.txt")
        keys = list(summary)
        assert keys[keys.index("gap") + 1] == "answer"
        assert summary["answer"] in ("last", "average")

    def test_box_simplex_check_certifies_the_gap_bound(self, bs_manifest, tmp_path,
                                                       monkeypatch):
        out = str(tmp_path / "bs")
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--eps", "0.1", "--check", "--out", out]) == 0
        summary = read_summary(out + ".summary.txt")
        assert summary["gap_bound_ok"] == "1"
        assert int(summary["retries"]) >= 0 and 0 < float(summary["lam_min"]) <= 3
        # an oracle reporting gaps above the bound fails that certificate alone;
        # the running-sum gaps, z0's and the answer's all read this formula
        monkeypatch.setattr(boxsimplex, "_gap_from_operator", lambda inst, x, y, g: 1e9)
        assert run(["solve", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--iters", "3", "--check", "--out", out]) == 3
        summary = read_summary(out + ".summary.txt")
        assert (summary["gap_bound_ok"], summary["stability_ok"],
                summary["local_rl_ok"]) == ("0", "1", "1")
        # the budget of 3 ran out short of eps
        assert (summary["iterations"], summary["budget"]) == ("3", "3")
        assert float(summary["gap"]) == 1e9 > float(summary["eps"])

    def test_box_simplex_summary_reports_restarts(self, tmp_path):
        manifest, out = str(tmp_path / "g.manifest"), str(tmp_path / "bs")
        assert run(["gen", "box-simplex", "m=50", "n=40", "density=0.5",
                    "--seed", "0", "--out", manifest]) == 0
        assert run(["solve", "--alg", "box-simplex", "--instance", manifest,
                    "--out", out]) == 0
        assert int(read_summary(out + ".summary.txt")["restarts"]) >= 1

    def test_eg_coord_solve_counts_the_bound_as_bench_does(self, tmp_path):
        # without --eps0 the summary's queries include the bound's 2d partials
        d = 60
        manifest = str(tmp_path / "q.manifest")
        assert run(["gen", "quadratic", f"d={d}", "mu=1", "L=200", "diag=1",
                    "--seed", "3", "--out", manifest]) == 0
        out = str(tmp_path / "run")
        assert run(["solve", "--alg", "eg-coord", "--instance", manifest,
                    "--eps", "1e-5", "--out", out]) == 0
        summary = read_summary(out + ".summary.txt")
        assert int(summary["iterations"]) > 0
        assert int(summary["queries"]) == 2 * int(summary["iterations"]) + 2 * d

    def test_non_finite_gap_is_exit_3_at_once(self, tmp_path, capsys):
        # c = 1e308 makes z0's duality gap overflow; with the default budget of
        # 3466 steps the run still ends at that first gap, in one line
        manifest = _write_game(tmp_path, [[1, 1], [1, 0]], [0, 1], [1e308, 1e308])
        out = str(tmp_path / "nan")
        start = time.perf_counter()
        assert run(["solve", "--alg", "box-simplex", "--instance", manifest,
                    "--out", out]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not os.path.exists(out + ".summary.txt")

    @pytest.mark.parametrize("argv, manifest, count", [
        (["solve", "--alg", "box-simplex", "--eps", "5e-324"], "bs_manifest", "iteration budget"),
        (["bench", "--alg", "box-simplex", "--eps", "5e-324"], "bs_manifest", "iteration budget"),
        (["solve", "--alg", "eg-accel", "--eps", "1e-10", "--eps0", "1e308"], "quad_manifest",
         "phase count"),
        (["solve", "--alg", "eg-coord", "--eps", "5e-324"], "quad_manifest", "phase count"),
        (["solve", "--alg", "eg-gennorm", "--eps", "5e-324"], "quad_manifest", "step count"),
    ], ids=["solve-box-simplex", "bench-box-simplex", "eg-accel-eps0", "eg-coord", "eg-gennorm"])
    def test_eps_whose_count_overflows_is_usage_error(self, request, tmp_path, capsys,
                                                      argv, manifest, count):
        eps = argv[argv.index("--eps") + 1]
        out = str(tmp_path / "o")
        assert run(argv + ["--instance", request.getfixturevalue(manifest),
                           "--out", out]) == 64
        assert capsys.readouterr().err == (
            f"usage error: eps {eps} is too small: the {count} overflows\n")
        assert not os.path.exists(out + ".summary.txt") and not os.path.exists(out + ".csv")

    def test_eps0_below_eps_takes_no_phase(self, quad_manifest, tmp_path):
        # eps0 / eps underflows to 0 here: no phase is needed, and none is run
        out = str(tmp_path / "o")
        assert run(["solve", "--alg", "eg-accel", "--eps", "1e308", "--eps0", "5e-324",
                    "--instance", quad_manifest, "--out", out]) == 0
        assert read_summary(out + ".summary.txt")["phases"] == "0"

    @pytest.mark.parametrize("argv", [
        ["solve", "--alg", "box-simplex"],
        ["solve", "--alg", "box-simplex", "--eps", "1"],
        ["bench", "--alg", "box-simplex"],
        ["verify", "--check", "local-rl"],
    ], ids=["solve", "solve-eps", "bench", "verify-local-rl"])
    def test_game_whose_norm_overflows_is_parse_error(self, tmp_path, capsys, argv):
        # each entry is finite, but the largest row l1 sum, ||A||, is not
        manifest = _write_game(tmp_path, [[1e308, 1e308], [1, 0]], [0, 1], [0, 0])
        out = str(tmp_path / "o")
        assert run(argv + ["--instance", manifest, "--out", out]) == 4
        assert "operator norm inf is too large" in capsys.readouterr().err
        assert not [f for f in os.listdir(tmp_path) if f.startswith("o.")]  # no summary

    @pytest.mark.parametrize("argv, code", [
        (["gen", "quadratic", "d=2", "mu=1e-300", "L=1e300", "diag=1"], 64),
        (["solve", "--alg", "eg-accel", "--instance", "k/k.manifest"], 4),
        (["bench", "--alg", "eg-accel", "--instance", "k/k.manifest"], 4),
        (["solve", "--alg", "eg-coord", "--instance", "k/k.manifest"], 4),
        (["solve", "--alg", "eg-gennorm", "--instance", "k/k.manifest"], 4),
        (["verify", "--check", "rel-lip", "--instance", "k/k.manifest"], 4),
    ], ids=["gen", "solve-eg-accel", "bench-eg-accel", "solve-eg-coord", "solve-eg-gennorm",
            "verify-rel-lip"])
    def test_quadratic_whose_step_constants_overflow_is_refused(self, tmp_path, capsys,
                                                                 argv, code):
        # 1 + sqrt(L/mu) = inf, and lambda_coord = 1e300 squares to inf
        (tmp_path / "k").mkdir()
        (tmp_path / "k" / "k.M.mtx").write_text(
            "%%MatrixMarket matrix array real general\n2 1\n1e-300\n1e+300\n")
        (tmp_path / "k" / "k.b.txt").write_text("0.6\n0.8\n")
        (tmp_path / "k" / "k.manifest").write_text(
            "kind=quadratic\ndiag=1\nd=2\nM=k.M.mtx\nb=k.b.txt\nmu=1e-300\nL=1e+300\n")
        argv = [str(tmp_path / a) if a.endswith(".manifest") else a for a in argv]
        assert run(argv + ["--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 64 else "I/O error: ")
        assert "L/mu or (sum_i sqrt(L_i))^2/mu overflows" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["k"]  # no instance, summary or report

    def test_dense_quadratic_past_the_kappa_bound_is_refused(self, tmp_path, capsys):
        # a solve with a dense M has a relative error near L/mu * eps; a diagonal M's
        # solves are exact divisions, so at L/mu = 1e16 its Fenchel game still certifies
        manifest = str(tmp_path / "q.manifest")
        gen = ["gen", "quadratic", "d=10", "mu=1e-4", "L=1e12"]
        assert run(gen + ["diag=0", "--out", manifest]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: L/mu = ") and "is above 1125899906842624.0" in err
        assert os.listdir(tmp_path) == []
        assert run(gen + ["diag=1", "--out", manifest]) == 0
        assert run(["verify", "--check", "rel-lip", "--instance", manifest,
                    "--out", str(tmp_path / "v")]) == 0
        # a dense M at L/mu = 1e16 is refused when loaded
        (tmp_path / "k").mkdir()
        (tmp_path / "k" / "k.M.mtx").write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1e-4\n0\n0\n1e12\n")
        (tmp_path / "k" / "k.b.txt").write_text("0.6\n0.8\n")
        (tmp_path / "k" / "k.manifest").write_text(
            "kind=quadratic\ndiag=0\nd=2\nM=k.M.mtx\nb=k.b.txt\nmu=1e-4\nL=1e12\n")
        capsys.readouterr()
        assert run(["verify", "--check", "rel-lip", "--instance",
                    str(tmp_path / "k" / "k.manifest"), "--out", str(tmp_path / "k" / "v")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and "is above 1125899906842624.0" in err
        assert sorted(os.listdir(tmp_path / "k")) == ["k.M.mtx", "k.b.txt", "k.manifest"]

    @pytest.mark.parametrize("mu", ["1e-160", "1e-200"])  # lambda_minimax is inf; mu_x*mu_y is 0
    @pytest.mark.parametrize("argv, code", [
        (["gen", "minimax", "n=3", "m=3"], 64),
        (["solve", "--alg", "mirror-prox", "--instance", "k/k.manifest"], 4),
        (["verify", "--check", "rel-lip", "--instance", "k/k.manifest"], 4),
        (["bench", "--alg", "baseline", "--instance", "k/k.manifest"], 4),
    ], ids=["gen", "solve", "verify", "bench"])
    def test_minimax_game_whose_lambda_is_not_finite_is_refused(self, tmp_path, capsys,
                                                                argv, code, mu):
        (tmp_path / "k").mkdir()
        manifest = tmp_path / "k" / "k.manifest"
        assert run(["gen", "minimax", "n=3", "m=3", "--out", str(manifest)]) == 0
        text = manifest.read_text()
        assert "mu_x=1.0\n" in text and "mu_y=1.0\n" in text
        manifest.write_text(text.replace("mu_x=1.0", "mu_x=" + mu)
                            .replace("mu_y=1.0", "mu_y=" + mu))
        if argv[0] == "gen":
            argv = argv + ["mu_x=" + mu, "mu_y=" + mu]
        argv = [str(tmp_path / a) if a.endswith(".manifest") else a for a in argv]
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: " if code == 64 else "I/O error: ")
        assert "lambda_minimax is not finite" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["k"]  # no instance, summary or report


class TestVerify:
    def test_rel_lip_passes(self, quad_manifest, tmp_path):
        out = str(tmp_path / "v")
        assert run(["verify", "--check", "rel-lip", "--instance", quad_manifest,
                    "--samples", "200", "--out", out]) == 0
        assert os.path.exists(out + ".report.txt")

    def test_undersized_constant_fails(self, quad_manifest, tmp_path):
        out = str(tmp_path / "v2")
        assert run(["verify", "--check", "rel-lip", "--instance", quad_manifest,
                    "--samples", "200", "--lambda", "0.01", "--out", out]) == 3

    def test_strong_mono(self, mm_manifest, tmp_path):
        out = str(tmp_path / "v3")
        assert run(["verify", "--check", "strong-mono", "--instance", mm_manifest,
                    "--samples", "200", "--out", out]) == 0

    def test_regret(self, mm_manifest, tmp_path):
        out = str(tmp_path / "v4")
        assert run(["verify", "--check", "regret", "--instance", mm_manifest,
                    "--iters", "50", "--out", out]) == 0

    def test_estimator(self, tmp_path):
        man = str(tmp_path / "small.manifest")
        assert run(["gen", "quadratic", "d=4", "mu=1", "L=9", "diag=1",
                    "--seed", "3", "--out", man]) == 0
        out = str(tmp_path / "v5")
        assert run(["verify", "--check", "estimator", "--instance", man,
                    "--iters", "10", "--out", out]) == 0
        summary = read_summary(out + ".summary.txt")
        assert summary["n_skipped"] == read_summary(out + ".report.txt")["n_skipped"] == "0"

    @pytest.mark.parametrize("params, iters, n_skipped", [
        (["d=4", "L=4"], "100", "15"),
        (["d=10", "L=100"], "1000", "572"),  # the README's quad.manifest
    ])
    def test_estimator_skips_converged_states(self, tmp_path, params, iters, n_skipped):
        # A converged state's divergence is rounding noise: it is skipped, not
        # read as a ratio far above the constant.
        man = str(tmp_path / "q.manifest")
        assert run(["gen", "quadratic", *params, "mu=1", "diag=1", "--seed", "0",
                    "--out", man]) == 0
        out = str(tmp_path / "v")
        assert run(["verify", "--check", "estimator", "--instance", man,
                    "--iters", iters, "--out", out]) == 0
        summary = read_summary(out + ".summary.txt")
        assert summary["n_skipped"] == n_skipped
        assert float(summary["worst"]) <= float(summary["constant"])

    def test_estimator_zero_iters_is_usage_error(self, tmp_path):
        man = str(tmp_path / "small.manifest")
        assert run(["gen", "quadratic", "d=4", "mu=1", "L=9", "diag=1",
                    "--seed", "3", "--out", man]) == 0
        out = str(tmp_path / "v0")
        assert run(["verify", "--check", "estimator", "--instance", man,
                    "--iters", "0", "--out", out]) == 64
        assert not os.path.exists(out + ".summary.txt")
        assert run(["verify", "--check", "estimator", "--instance", man,
                    "--iters", "1", "--out", out]) == 0

    @pytest.mark.parametrize("check, manifest", [("regret", "mm_manifest"),
                                                 ("local-rl", "bs_manifest")])
    def test_zero_iters_is_usage_error_as_for_the_estimator(self, request, tmp_path, capsys,
                                                            check, manifest):
        # no step would be certified, yet the check would pass
        out = str(tmp_path / "v")
        assert run(["verify", "--check", check, "--instance", request.getfixturevalue(manifest),
                    "--iters", "0", "--out", out]) == 64
        assert capsys.readouterr().err == (
            "usage error: argument --iters: must be one or more, got '0'\n")
        assert not os.path.exists(out + ".summary.txt")

    @pytest.mark.parametrize("flags, code", [
        (["--check", "rel-lip"], 0),
        (["--check", "strong-mono", "--mono", "1e6"], 3),
        (["--check", "strong-mono"], 0),
    ], ids=["rel-lip", "strong-mono-1e6", "strong-mono"])
    def test_game_with_tiny_moduli_is_judged_by_its_ratios(self, tmp_path, flags, code):
        # Every divergence is about 1e-12, yet each sample is a ratio: none is
        # skipped or counted as an outright violation.  The game passes strong-mono
        # at its default m = 1: its coupling terms cancel only up to rounding,
        # which would put the smallest ratio at 0.99983, and each numerator is
        # read with its rounding bound as slack.
        man = str(tmp_path / "g.manifest")
        assert run(["gen", "minimax", "n=3", "m=3", "mu_x=1e-12", "mu_y=1e-12",
                    "--out", man]) == 0
        out = str(tmp_path / "v")
        assert run(["verify", *flags, "--instance", man, "--out", out]) == code
        summary = read_summary(out + ".summary.txt")
        report = read_summary(out + ".report.txt")
        assert (summary["n_tested"], report["n_skipped"]) == ("1000", "0")
        worst = float(summary["worst"])
        if flags[1] == "rel-lip":
            assert 0 < worst <= float(summary["constant"])
        else:
            assert 1 < worst < 1.0002

    @pytest.mark.parametrize("mu, n_skipped", [
        ("1e-3", "0"), ("1e-9", "0"), ("1e-12", "0"), ("1e-15", "690"),
    ])
    def test_strong_mono_of_a_game_is_judged_through_its_rounding(self, tmp_path, mu,
                                                                  n_skipped):
        # The game is exactly 1-strongly monotone at every mu, and its coupling
        # terms cancel only up to rounding, which grows like 1/mu against the
        # divergences.  m = 1 passes and m = 2 fails at each mu; at 1e-15 most
        # samples' rounding bound exceeds both their divergence and their
        # numerator, so they decide nothing.
        man = str(tmp_path / "g.manifest")
        assert run(["gen", "minimax", "n=3", "m=3", f"mu_x={mu}", f"mu_y={mu}",
                    "--out", man]) == 0
        for flags, code in (([], 0), (["--mono", "2"], 3)):
            out = str(tmp_path / "v")
            assert run(["verify", "--check", "strong-mono", *flags, "--instance", man,
                        "--out", out]) == code, flags
            summary = read_summary(out + ".summary.txt")
            assert (summary["n_tested"], summary["n_skipped"]) == ("1000", n_skipped)
            assert 1 < float(summary["worst"]) < 1.2

    def test_a_large_ratio_is_not_lost_to_its_rounding(self, tmp_path):
        # At mu = 1e-15 a rel-lip ratio near 6.8e14 is known to within a few
        # units: the rounding bound exceeds the divergence but not the numerator,
        # so the sample still counts and a constant of 3e14 fails.
        man = str(tmp_path / "g.manifest")
        assert run(["gen", "minimax", "n=3", "m=3", "mu_x=1e-15", "mu_y=1e-15",
                    "--out", man]) == 0
        out = str(tmp_path / "v")
        assert run(["verify", "--check", "rel-lip", "--lambda", "3e14", "--instance", man,
                    "--out", out]) == 3
        summary = read_summary(out + ".summary.txt")
        assert (summary["n_tested"], summary["n_skipped"]) == ("1000", "0")
        assert 6.7e14 < float(summary["worst"]) < 6.8e14

    def test_every_report_backed_summary_has_one_shape(self, quad_manifest, mm_manifest,
                                                       tmp_path):
        shape = ["constant", "worst", "n_tested", "n_skipped", "passed"]
        cases = [
            (["--check", "rel-lip", "--instance", quad_manifest, "--samples", "50"], 0),
            (["--check", "rel-lip", "--instance", quad_manifest, "--lambda", "0.01"], 3),
            (["--check", "rel-smooth", "--instance", quad_manifest, "--samples", "50"], 0),
            (["--check", "strong-mono", "--instance", mm_manifest, "--samples", "50"], 0),
            (["--check", "estimator", "--instance", quad_manifest, "--iters", "3"], 0),
            (["--check", "estimator", "--instance", quad_manifest, "--iters", "3",
              "--lambda", "1e-200"], 3),
        ]
        for i, (argv, code) in enumerate(cases):
            out = str(tmp_path / f"s{i}")
            assert run(["verify", *argv, "--out", out]) == code, argv
            summary = read_summary(out + ".summary.txt")
            report = read_summary(out + ".report.txt")
            keys = list(summary)
            assert keys[keys.index("constant"):keys.index("passed") + 1] == shape, argv
            assert all(summary[k] == report[k] for k in shape[1:]), argv
            assert report["semantics"] == ("violation found" if code
                                           else "no violation in N samples"), argv

    def test_samples_only_in_sampled_summaries(self, quad_manifest, mm_manifest,
                                               bs_manifest, tmp_path):
        cases = [
            (["--check", "rel-lip", "--instance", quad_manifest, "--samples", "50"], True),
            (["--check", "rel-smooth", "--instance", quad_manifest, "--samples", "50"], True),
            (["--check", "strong-mono", "--instance", mm_manifest, "--samples", "50"], True),
            (["--check", "regret", "--instance", mm_manifest, "--iters", "5"], False),
            (["--check", "estimator", "--instance", quad_manifest, "--iters", "3"], False),
            (["--check", "local-rl", "--instance", bs_manifest, "--iters", "5"], False),
        ]
        for i, (argv, sampled) in enumerate(cases):
            out = str(tmp_path / f"s{i}")
            assert run(["verify", *argv, "--out", out]) == 0, argv
            summary = read_summary(out + ".summary.txt")
            assert ("samples" in summary) == sampled, argv
            if sampled:
                assert summary["samples"] == "50"

    def test_estimator_high_dim_refused(self, tmp_path):
        man = str(tmp_path / "big.manifest")
        assert run(["gen", "quadratic", "d=20", "mu=1", "L=9", "diag=1",
                    "--seed", "3", "--out", man]) == 0
        assert run(["verify", "--check", "estimator", "--instance", man]) == 64

    @pytest.mark.parametrize("lam", ["1e-160", "1e-200", "5e-324"])
    def test_estimator_at_a_vanishing_lambda_fails(self, quad_manifest, tmp_path, lam):
        # the steps 1/lam and 1/lam^2 overflow to inf, or lam^2 underflows to 0
        out = str(tmp_path / "v")
        assert run(["verify", "--check", "estimator", "--instance", quad_manifest,
                    "--lambda", lam, "--iters", "3", "--out", out]) == 3
        summary = read_summary(out + ".summary.txt")
        assert (summary["constant"], summary["passed"]) == (lam, "0")
        assert summary["worst"] == "nan"  # a NaN ratio is the worst, not a skipped one

    def test_local_rl(self, bs_manifest, tmp_path):
        out = str(tmp_path / "v6")
        assert run(["verify", "--check", "local-rl", "--instance", bs_manifest,
                    "--iters", "100", "--out", out]) == 0
        summary = read_summary(out + ".summary.txt")
        assert (summary["stability_ok"], summary["local_rl_ok"],
                summary["gap_bound_ok"], summary["passed"]) == ("1", "1", "1", "1")

    def test_unknown_check_is_usage_error(self, quad_manifest):
        assert run(["verify", "--check", "bogus",
                    "--instance", quad_manifest]) == 64


class TestBench:
    def test_writes_comparison_csv(self, quad_manifest, tmp_path):
        out = str(tmp_path / "bench")
        assert run(["bench", "--alg", "baseline", "--alg", "eg-accel",
                    "--instance", quad_manifest, "--eps", "1e-4",
                    "--iters", "5000", "--out", out]) == 0
        with open(out + ".csv") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3  # header + one row per algorithm
        assert lines[0].startswith("alg,")

    def test_box_simplex_queries_count_operator_calls(self, bs_manifest, tmp_path,
                                                      monkeypatch):
        calls = []
        operator = BoxSimplexInstance.operator
        monkeypatch.setattr(BoxSimplexInstance, "operator",
                            lambda self, z: calls.append(1) or operator(self, z))
        out = str(tmp_path / "bench")
        assert run(["bench", "--alg", "box-simplex", "--instance", bs_manifest,
                    "--eps", "0.01", "--out", out]) == 0
        with open(out + ".csv") as fh:
            row = dict(zip(*[line.split(",") for line in fh.read().splitlines()]))
        assert int(row["queries"]) == len(calls) > 2 * int(row["iterations"])


    def test_eg_accel_queries_count_gradient_points(self, quad_manifest, tmp_path,
                                                     monkeypatch):
        # a stacked call answers one query per row
        points = []
        grad = QuadraticProblem.grad
        monkeypatch.setattr(QuadraticProblem, "grad", lambda self, x: points.append(
            1 if x.ndim == 1 else len(x)) or grad(self, x))
        out = str(tmp_path / "bench")
        assert run(["bench", "--alg", "eg-accel", "--instance", quad_manifest,
                    "--eps", "1e-4", "--out", out]) == 0
        with open(out + ".csv") as fh:
            row = dict(zip(*[line.split(",") for line in fh.read().splitlines()]))
        assert int(row["iterations"]) > 0
        assert int(row["queries"]) == sum(points) == 2 + 2 * int(row["iterations"])

    def test_eg_coord_queries_count_partials_and_the_bound(self, quad_manifest, tmp_path,
                                                           monkeypatch):
        # two partials per step, and the eps0 bound's two gradients, d partials each
        points, partials = [], []
        grad, partial_at = QuadraticProblem.grad, QuadraticProblem.partial_at
        monkeypatch.setattr(QuadraticProblem, "grad", lambda self, x: points.append(
            1 if x.ndim == 1 else len(x)) or grad(self, x))
        monkeypatch.setattr(QuadraticProblem, "partial_at", lambda self, i, t: partials.append(
            1) or partial_at(self, i, t))
        out = str(tmp_path / "bench")
        assert run(["bench", "--alg", "eg-coord", "--instance", quad_manifest,
                    "--eps", "1e-4", "--out", out]) == 0
        with open(out + ".csv") as fh:
            row = dict(zip(*[line.split(",") for line in fh.read().splitlines()]))
        d = 8
        assert int(row["iterations"]) > 0 and sum(points) == 2
        assert int(row["queries"]) == len(partials) + d * sum(points) \
            == 2 * int(row["iterations"]) + 2 * d

    @pytest.mark.parametrize("alg, flags", [
        ("baseline", ["--eps", "1e-4", "--iters", "5000"]),
        ("eg-accel", ["--eps", "1e-4"]),
        ("eg-coord", ["--eps", "1e-4"]),
        ("box-simplex", ["--eps", "0.01"]),
    ], ids=["baseline", "eg-accel", "eg-coord", "box-simplex"])
    def test_row_is_the_solve_summary(self, quad_manifest, bs_manifest, tmp_path, alg, flags):
        argv = ["--alg", alg, "--instance",
                bs_manifest if alg == "box-simplex" else quad_manifest] + flags
        solve_out, bench_out = str(tmp_path / "s"), str(tmp_path / "b")
        assert run(["solve"] + argv + ["--out", solve_out]) == 0
        assert run(["bench"] + argv + ["--out", bench_out]) == 0
        summary = read_summary(solve_out + ".summary.txt")
        with open(bench_out + ".csv") as fh:
            row = dict(zip(*[line.split(",") for line in fh.read().splitlines()]))
        err = summary["gap" if alg == "box-simplex" else "final_f_err"]
        assert (row["iterations"], row["queries"], row["final_err"]) == \
            (summary["iterations"], summary["queries"], err)
        assert int(row["queries"]) > 0


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == 64

    def test_unknown_flag_is_usage_error(self, quad_manifest):
        assert run(["solve", "--alg", "eg-accel", "--instance", quad_manifest,
                    "--bogus-flag", "1"]) == 64

    @pytest.mark.parametrize("argv", [
        ["gen", "quadratic"],
        ["solve", "--alg", "eg-coord"],
        ["bench", "--alg", "eg-coord"],
        ["verify", "--check", "rel-lip"],
        ["verify", "--check", "estimator"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[2:]))
    def test_negative_seed_is_usage_error(self, quad_manifest, tmp_path, capsys, argv):
        # numpy's Philox rejects a negative seed with a ValueError, so the flag must
        out = str(tmp_path / "n")
        instance = [] if argv[0] == "gen" else ["--instance", quad_manifest]
        assert run(argv + instance + ["--seed", "-1", "--out", out]) == 64
        err = capsys.readouterr().err
        assert "argument --seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("error, code, prefix", [
        (ValueError("a value the run cannot take"), 64, "usage error: "),
        (ParseError("x.manifest", 1, "bad data"), 4, "I/O error: "),
        (OSError("no space left"), 4, "I/O error: "),
        (DomainError("outside the domain"), 3, "run failed: "),
        (NonFiniteIterateError("non-finite iterate at t=0"), 3, "run failed: "),
    ], ids=["ValueError", "ParseError", "OSError", "DomainError", "NonFiniteIterateError"])
    @pytest.mark.parametrize("command", ["solve", "verify", "bench", "gen"])
    def test_main_maps_each_failure_to_its_exit_code(self, quad_manifest, tmp_path, capsys,
                                                     monkeypatch, command, error, code, prefix):
        def fail(*args, **kwargs):
            raise error

        if command == "gen":  # the generator runs, and writing its instance fails
            monkeypatch.setattr(cli, "save_instance", fail)
            argv = ["gen", "quadratic"]
        else:
            table = {"solve": cli.SOLVE, "verify": cli.VERIFY, "bench": cli.BENCH}[command]
            ident = "rel-lip" if command == "verify" else "eg-accel"
            key = (ident, "diagonal quadratic")
            monkeypatch.setitem(table, key, (fail, table[key][1]))
            argv = [command, "--check" if command == "verify" else "--alg", ident,
                    "--instance", quad_manifest]
        assert run(argv + ["--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}{error}\n"


def test_module_process_exits_with_the_documented_code(tmp_path):
    # python -m extragrad.cli: main's return value becomes the process's exit code
    src = os.path.dirname(os.path.dirname(os.path.abspath(extragrad.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def process(*argv):
        done = subprocess.run([sys.executable, "-m", "extragrad.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert "Traceback" not in done.stderr
        return done

    manifest = str(tmp_path / "bs.manifest")
    assert process("gen", "box-simplex", "m=3", "n=2", "--out", manifest).returncode == 0
    apath = str(tmp_path / "bs.A.mtx")
    with open(apath, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n"
                 "99999999999999999999 2 1\n1 1 1.5\n")
    done = process("solve", "--alg", "box-simplex", "--instance", manifest,
                   "--out", str(tmp_path / "o"))
    assert done.returncode == 4
    assert done.stderr.startswith(f"I/O error: {apath}:2: ") and done.stderr.count("\n") == 1
    assert process("solve", "--alg", "box-simplex", "--instance", manifest,
                   "--bogus-flag", "1").returncode == 64
    # numpy's overflow warnings would come first on stderr without main's errstate
    quad = str(tmp_path / "q.manifest")
    assert process("gen", "quadratic", "d=8", "--out", quad).returncode == 0
    done = process("solve", "--alg", "mirror-prox", "--lambda", "1e-300", "--instance", quad,
                   "--out", str(tmp_path / "d"))
    assert done.returncode == 3
    assert done.stderr == "run failed: non-finite iterate at t=0\n"
    with open(str(tmp_path / "q.b.txt")) as fh:
        lines = fh.readlines()
    lines[-1] = "1e308\n"  # finite, but the optimal value overflows
    with open(str(tmp_path / "q.b.txt"), "w") as fh:
        fh.writelines(lines)
    done = process("solve", "--alg", "eg-accel", "--instance", quad, "--out", str(tmp_path / "o"))
    assert done.returncode == 4
    assert done.stderr.startswith("I/O error: ") and done.stderr.count("\n") == 1


# The instance kinds each (command, id) runs on; every other pair is a usage error.
QUADRATICS = {"quadratic", "diagonal quadratic"}
VI_KINDS = QUADRATICS | {"minimax"}
SUPPORTED = {
    "solve": {"mirror-prox": VI_KINDS, "dual-ex": VI_KINDS, "mp-strong": {"minimax"},
              "baseline": QUADRATICS, "eg-accel": QUADRATICS, "eg-gennorm": QUADRATICS,
              "eg-coord": {"diagonal quadratic"}, "box-simplex": {"box-simplex"}},
    "verify": {"rel-lip": VI_KINDS, "rel-smooth": QUADRATICS, "strong-mono": VI_KINDS,
               "regret": VI_KINDS, "estimator": {"diagonal quadratic"},
               "local-rl": {"box-simplex"}},
    "bench": {"baseline": QUADRATICS, "eg-accel": QUADRATICS,
              "eg-coord": {"diagonal quadratic"}, "box-simplex": {"box-simplex"}},
}
GEN_ARGS = {
    "diagonal quadratic": ["quadratic", "d=4", "mu=1", "L=9", "diag=1"],
    "quadratic": ["quadratic", "d=4", "mu=1", "L=9", "diag=0"],
    "box-simplex": ["box-simplex", "m=5", "n=4"],
    "minimax": ["minimax", "n=3", "m=2"],
}
PAIRS = [(cmd, ident, kind) for cmd, ids in SUPPORTED.items()
         for ident, kinds in ids.items() for kind in GEN_ARGS]
# The flags each (command, id) reads besides --instance, --seed and --out; any
# other flag given is a usage error.
READS = {
    "solve": {"mirror-prox": "--lambda --iters --check", "dual-ex": "--lambda --iters --check",
              "mp-strong": "--lambda --mono --iters --check", "baseline": "--eps --iters",
              "eg-accel": "--eps --eps0", "eg-gennorm": "--eps --iters",
              "eg-coord": "--eps --eps0", "box-simplex": "--eps --iters --check"},
    "verify": {"rel-lip": "--lambda --samples", "rel-smooth": "--lambda --samples",
               "strong-mono": "--mono --samples", "regret": "--lambda --iters",
               "estimator": "--lambda --iters", "local-rl": "--eps --iters"},
    "bench": {"baseline": "--eps --iters", "eg-accel": "--eps", "eg-coord": "--eps",
              "box-simplex": "--eps --iters"},
}
# A value in range for each flag that takes one, and the commands that have it.
FLAG_VALUES = {"--eps": "0.1", "--eps0": "1", "--iters": "3", "--lambda": "2", "--mono": "1",
               "--samples": "5"}
HAS_FLAG = {"solve": ["--eps", "--eps0", "--iters", "--lambda", "--mono"],
            "verify": list(FLAG_VALUES), "bench": ["--eps", "--iters"]}
UNREAD = [(cmd, ident, flag) for cmd, ids in READS.items() for ident, reads in ids.items()
          for flag in HAS_FLAG[cmd] if flag not in reads.split()]


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """One small manifest per instance kind."""
    base = tmp_path_factory.mktemp("kinds")
    out = {}
    for kind, params in GEN_ARGS.items():
        out[kind] = str(base / (kind.replace(" ", "-") + ".manifest"))
        assert run(["gen", *params, "--seed", "1", "--out", out[kind]]) == 0
    return out


def _argv(cmd, ident, manifest, out):
    flag = "--check" if cmd == "verify" else "--alg"
    return [cmd, flag, ident, "--instance", manifest, "--out", out]


class TestDispatch:
    @pytest.mark.parametrize("cmd, ident, kind",
                             [p for p in PAIRS if p[2] not in SUPPORTED[p[0]][p[1]]],
                             ids="-".join)
    def test_pair_outside_table_is_usage_error(self, manifests, tmp_path, capsys,
                                               cmd, ident, kind):
        out = str(tmp_path / "m")
        assert run(_argv(cmd, ident, manifests[kind], out)) == 64
        err = capsys.readouterr().err
        what = "check" if cmd == "verify" else "algorithm"
        assert err.startswith(f"usage error: {what} {ident} needs a ") and err.count("\n") == 1
        assert err.endswith(f" instance, not a {kind} one\n")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("cmd, ident, kind",
                             [p for p in PAIRS if p[2] in SUPPORTED[p[0]][p[1]]],
                             ids="-".join)
    def test_pair_in_table_runs(self, manifests, tmp_path, cmd, ident, kind):
        values = {"--iters": "50" if cmd == "bench" else "3", "--samples": "5"}
        small = [a for flag in READS[cmd][ident].split() if flag in values
                 for a in (flag, values[flag])]
        code = run(_argv(cmd, ident, manifests[kind], str(tmp_path / "p")) + small)
        assert code in (0, 2)

    @pytest.mark.parametrize("cmd, ident, flag", UNREAD)
    def test_unread_flag_is_usage_error(self, manifests, tmp_path, capsys, cmd, ident, flag):
        kind = next(k for k in GEN_ARGS if k in SUPPORTED[cmd][ident])
        out = str(tmp_path / "f")
        assert run(_argv(cmd, ident, manifests[kind], out) + [flag, FLAG_VALUES[flag]]) == 64
        what = "check" if cmd == "verify" else "algorithm"
        assert capsys.readouterr().err == f"usage error: {flag} not read by {what} {ident}\n"
        assert not os.listdir(tmp_path)

    def test_bench_flag_needs_one_reader(self, quad_manifest, tmp_path, capsys):
        out = str(tmp_path / "b")
        argv = ["bench", "--alg", "eg-accel", "--alg", "eg-coord", "--instance", quad_manifest,
                "--iters", "50", "--out", out]
        assert run(argv) == 64
        assert capsys.readouterr().err == (
            "usage error: --iters not read by algorithm eg-accel, eg-coord\n")
        assert run(argv[:3] + ["--alg", "baseline"] + argv[5:]) == 0
        assert os.path.exists(out + ".csv")

    @pytest.mark.parametrize("cmd, ident", [("solve", "gradient-descent"),
                                            ("verify", "bogus"), ("bench", "mirror-prox")])
    def test_unknown_id_lists_the_known_ones(self, tmp_path, capsys, cmd, ident):
        assert run(_argv(cmd, ident, str(tmp_path / "missing.manifest"), "x")) == 64
        known = ", ".join(SUPPORTED[cmd])
        assert capsys.readouterr().err.endswith(f"{ident!r} is not one of {known}\n")


# Corruptions of one line of a manifest or data file.
TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "1e400", "abc", "", "=",
          "kind=minimax", "2 2", "1 1 1.0", "9 9 0.5", "0 1 1.0", "0x10", "1,5"]
EDITS = ["replace", "value", "delete", "duplicate", "append", "truncate", "bytes"]


def _corrupt(path, edit, index, token):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    i = index % len(lines)
    new = token.encode()
    if edit == "value" and b"=" in lines[i]:
        lines[i] = lines[i].split(b"=", 1)[0] + b"=" + new
    elif edit in ("replace", "value"):
        lines[i] = new
    elif edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "append":
        lines.append(new)
    elif edit == "truncate":
        lines[i] = lines[i][:len(lines[i]) // 2]
    else:
        lines[i] = lines[i][:1] + b"\xff\xfe" + lines[i][1:]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


class TestFuzz:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(kind=st.sampled_from(["diagonal quadratic", "box-simplex", "minimax"]),
           which=st.integers(0, 3), edit=st.sampled_from(EDITS),
           index=st.integers(0, 200), token=st.sampled_from(TOKENS))
    def test_corrupted_instance_exits_with_a_documented_code(
            self, manifests, kind, which, edit, index, token):
        with tempfile.TemporaryDirectory() as tmp:
            stem = os.path.splitext(os.path.basename(manifests[kind]))[0]
            src = os.path.dirname(manifests[kind])
            files = sorted(f for f in os.listdir(src) if f.startswith(stem + "."))
            for f in files:
                shutil.copy(os.path.join(src, f), tmp)
            _corrupt(os.path.join(tmp, files[which % len(files)]), edit, index, token)
            manifest = os.path.join(tmp, stem + ".manifest")
            alg = "box-simplex" if kind == "box-simplex" else "mirror-prox"
            codes = [run(["solve", "--alg", alg, "--iters", "3", "--instance", manifest,
                          "--out", os.path.join(tmp, "s")]),
                     run(["verify", "--check", "rel-lip", "--samples", "5",
                          "--instance", manifest, "--out", os.path.join(tmp, "v")])]
        assert set(codes) <= {0, 2, 3, 4, 64}
