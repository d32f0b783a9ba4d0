"""The instance readers: numpy's C parser against the line-by-line reader.

`read_matrix_market` and `read_vector` parse a body with one `np.loadtxt`
call and fall back to the line-by-line reader (`_matrix_lines`,
`_vector_lines`, on the same open file) whenever that result is not plainly
right.  The line-by-line reader alone defines what is accepted, so on every
input they must give the same array, or the same error at the same line, as
that reader run on its own on the freshly opened file (`matrix_lines`,
`vector_lines` below).
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from extragrad import (
    ParseError, gen_box_simplex, gen_minimax, gen_quadratic, load_instance, save_instance,
)
from extragrad import problems

COO = "%%MatrixMarket matrix coordinate real general\n"
ARR = "%%MatrixMarket matrix array real general\n"
SYM = "%%MatrixMarket matrix array real symmetric\n"
REPR = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e-5, 123456789.0]


def matrix_lines(path):
    with open(path) as fh:
        return problems._matrix_lines(path, fh)


def vector_lines(path):
    with open(path) as fh:
        return problems._vector_lines(path, fh)


def outcome(read, path):
    try:
        return read(path)
    except Exception as e:  # the error itself is what is compared
        return type(e), str(e), getattr(e, "line", None)


def assert_same(fast, slow):
    """Same type, dtype, shape, memory order and sparse structure, bit-equal values."""
    if isinstance(slow, tuple):  # an error: its type, message and line
        assert fast == slow
        return
    assert type(fast) is type(slow) and fast.shape == slow.shape
    if sp.issparse(slow):
        assert fast.has_canonical_format == slow.has_canonical_format
        pairs = [(fast.indptr, slow.indptr), (fast.indices, slow.indices), (fast.data, slow.data)]
    else:
        pairs = [(fast, slow)]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.strides == b.strides
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == \
            (b.flags.c_contiguous, b.flags.f_contiguous)
        assert a.tobytes() == b.tobytes()


def assert_parity(path, matrix):
    fast, slow = ((problems.read_matrix_market, matrix_lines) if matrix
                  else (problems.read_vector, vector_lines))
    assert_same(outcome(fast, path), outcome(slow, path))


def saved_kinds(base, large=False):
    """A manifest of every kind `save_instance` writes."""
    kinds = {
        "dense quadratic": gen_quadratic(30, 1.0, 1e3, diag=False, seed=1),
        "diagonal quadratic": gen_quadratic(40, 0.5, 50.0, diag=True, seed=2),
        "box-simplex": gen_box_simplex(60, 45, 0.2, seed=3),
        "minimax": gen_minimax(12, 9, 0.5, 2.0, 3.0, seed=4),
    }
    if large:
        kinds["box-simplex 2000x1500"] = gen_box_simplex(2000, 1500, 0.01, seed=5)
    return {kind: save_instance(inst, os.path.join(base, kind.replace(" ", "-") + ".manifest"))
            for kind, inst in kinds.items()}


def test_saved_files_match_the_line_reader(tmp_path):
    saved_kinds(str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert sum(name.endswith(".mtx") for name in names) == 4
    for name in names:
        if not name.endswith(".manifest"):
            assert_parity(str(tmp_path / name), matrix=name.endswith(".mtx"))


VECTORS = {
    "plain": "1.5\n-2.0\n0.1\n",
    "repr decimals": "".join(repr(x) + "\n" for x in REPR),
    "negative zero": "-0.0\n0.0\n",
    "blank lines": "1.5\n\n   \n-2.0\n",
    "comment line": "1.5\n% note\n2.0\n",
    "crlf": "1.5\r\n2.5\r\n",
    "cr": "1.5\r2.5\r",
    "tabs": "\t1.5\t\n2.5\n",
    "plus sign": "+3\n4\n",
    "underscore": "1_0\n2\n",
    "unicode digits": "١٢\n3\n",
    "two on one line": "1 2\n",
    "two on some lines": "1 2\n3\n",
    "nan": "1\nnan\n",
    "overflow": "1\n1e400\n",
    "infinity": "-inf\n",
    "empty": "",
    "only blank lines": "\n \n",
    "no final newline": "1.5\n2.5",
    "nul": "1.0\x00\n",
    "no-break space line": "1\n\xa0\n2\n",
    "form feed": "1\x0c\n2\n",
    "hex": "0x10\n",
    # a decoding error names the byte's offset in its decoded block, which the
    # fallback matches only by reading the file again from its start
    "undecodable byte past the first block": b"1.5\n" * 5000 + b"\xff\n",
}

MATRICES = {
    "coordinate": COO + "2 3 2\n1 1 1.5\n2 3 -0.25\n",
    "coordinate repr decimals": COO + "7 1 7\n" + "".join(
        f"{k + 1} 1 {x!r}\n" for k, x in enumerate(REPR)),
    "coordinate comment and blank in body": COO + "2 3 2\n1 1 1.5\n% note\n\n2 3 -0.25\n",
    "coordinate comment before size line": COO + "% c\n\n2 3 2\n1 1 1.5\n2 3 -0.25\n",
    "coordinate crlf": (COO + "2 3 2\n1 1 1.5\n2 3 -0.25\n").replace("\n", "\r\n"),
    "coordinate tabs": COO + "2\t3\t2\n1\t1\t1.5\n2\t3\t-0.25\n",
    "coordinate plus signs": COO + "2 3 1\n+1 +2 +1.5\n",
    "coordinate underscore index": COO + "10 3 1\n1_0 1 1.5\n",
    "coordinate underscore value": COO + "2 3 1\n1 1 1_5\n",
    "coordinate unicode index": COO + "2 3 1\n١ 1 1.5\n",
    "coordinate extra column": COO + "2 3 2\n1 1 1.5 9\n2 3 -0.25\n",
    "coordinate float index": COO + "2 3 1\n1.0 1 1.5\n",
    "coordinate exponent index": COO + "2 3 1\n1e0 1 1.5\n",
    "coordinate short line": COO + "2 3 2\n1 1\n2 3 -0.25\n",
    "coordinate nan": COO + "2 3 2\n1 1 nan\n2 3 -0.25\n",
    "coordinate overflow": COO + "2 3 2\n1 1 1.5\n2 3 1e400\n",
    "coordinate count one short": COO + "2 3 3\n1 1 1.5\n2 3 -0.25\n",
    "coordinate count one long": COO + "2 3 1\n1 1 1.5\n2 3 -0.25\n",
    "coordinate no entries": COO + "2 3 0\n",
    "coordinate index zero": COO + "2 3 1\n0 1 1.5\n",
    "coordinate index past the shape": COO + "2 3 1\n3 1 1.5\n",
    "coordinate huge index": COO + "2 3 1\n99999999999999999999 1 1.5\n",
    "coordinate size past int64": COO + "99999999999999999999 2 1\n1 1 1.5\n",
    "coordinate count past int64": COO + "2 3 9223372036854775808\n1 1 1.5\n",
    "coordinate duplicates": COO + "2 3 2\n1 1 1.0\n1 1 2.0\n",
    "coordinate unsorted": COO + "2 3 2\n2 3 1.0\n1 1 2.0\n",
    "coordinate negative zero": COO + "2 3 1\n1 1 -0.0\n",
    "array": ARR + "2 2\n1\n2\n3\n4\n",
    "array repr decimals": ARR + "7 1\n" + "".join(repr(x) + "\n" for x in REPR),
    "array comment and blank in body": ARR + "2 2\n1\n% c\n2\n\n3\n4\n",
    "array crlf": (ARR + "2 2\n1\n2\n3\n4\n").replace("\n", "\r\n"),
    "array tabs": ARR + "2\t2\n\t1\n2\t\n3\n4\n",
    "array plus sign": ARR + "1 2\n+3\n4\n",
    "array underscore": ARR + "1 2\n1_0\n4\n",
    "array ragged lines": ARR + "2 2\n1 2\n3\n4\n",
    "array all on one line": ARR + "2 2\n1 2 3 4\n",
    "array two per line": ARR + "2 2\n1 2\n3 4\n",
    "array nan": ARR + "1 2\nnan\n4\n",
    "array overflow": ARR + "1 2\n1e400\n4\n",
    "array count one short": ARR + "2 2\n1\n2\n3\n",
    "array count one long": ARR + "2 2\n1\n2\n3\n4\n5\n",
    "array empty body": ARR + "2 2\n",
    "array no values": ARR + "0 3\n",
    "array negative dimensions": ARR + "-2 -1\n1\n2\n",
    "array size past int64": ARR + "1 99999999999999999999\n1\n",
    "symmetric": SYM + "3 3\n1\n2\n3\n4\n5\n6\n",
    "symmetric repr decimals": SYM + "3 3\n" + "".join(repr(x) + "\n" for x in REPR[:6]),
    "symmetric one by one": SYM + "1 1\n-0.0\n",
    "symmetric no values": SYM + "0 0\n",
    "symmetric in capitals": "%%MatrixMarket MATRIX ARRAY REAL SYMMETRIC\n2 2\n1\n2\n3\n",
    "symmetric comment and blank in body": SYM + "2 2\n1\n% c\n2\n\n3\n",
    "symmetric crlf": (SYM + "2 2\n1\n2\n3\n").replace("\n", "\r\n"),
    "symmetric one value too many": SYM + "2 2\n1\n2\n3\n4\n",
    "symmetric one value too few": SYM + "2 2\n1\n2\n",
    "symmetric not square": SYM + "2 3\n1\n2\n3\n4\n5\n6\n",
    "symmetric nan": SYM + "2 2\n1\nnan\n3\n",
    "symmetric size line of three": SYM + "2 2 3\n1\n2\n3\n",
    "coordinate complex": "%%MatrixMarket matrix coordinate complex general\n2 3 1\n"
                          "1 1 1.5 2.0\n",
    "coordinate pattern": "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n",
    "coordinate hermitian": "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n"
                            "1 1 1.5 0.0\n",
    "coordinate skew-symmetric": "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                                 "2 2 1\n2 1 1.5\n",
    "coordinate symmetric": "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n"
                            "1 1 1.5\n2 1 -0.25\n",
    "array complex": "%%MatrixMarket matrix array complex general\n1 1\n1.5 2.0\n",
    "array skew-symmetric": "%%MatrixMarket matrix array real skew-symmetric\n2 2\n1.5\n",
    "array hermitian in capitals": "%%MatrixMarket matrix array COMPLEX HERMITIAN\n1 1\n1 0\n",
    "missing header": "2 2\n1\n2\n3\n4\n",
    "missing size line": ARR,
    "bad size line": ARR + "two 2\n",
    "coordinate size line of two": COO + "2 2\n",
    "array size line of three": ARR + "2 2 4\n",
    "empty file": "",
    "coordinate undecodable byte": COO.encode() + b"2 3 1\n1 1 \xff\n",
    "coordinate undecodable byte past the first block": (COO + "5000 1 5000\n" + "".join(
        f"{k} 1 1.5\n" for k in range(1, 5001))).encode() + b"\xff\n",
    "array undecodable byte past the first block": (ARR + "5000 1\n" + "1.5\n" * 5000).encode()
    + b"\xff\n",
}


def write_raw(path, text):
    """Text as UTF-8 with CR and CRLF kept as written, or bytes as they are."""
    with open(path, "wb") as fh:
        fh.write(text.encode() if isinstance(text, str) else text)


@pytest.mark.parametrize("matrix, text", [(False, t) for t in VECTORS.values()]
                         + [(True, t) for t in MATRICES.values()],
                         ids=[f"vector {k}" for k in VECTORS] + list(MATRICES))
def test_odd_input_matches_the_line_reader(tmp_path, matrix, text):
    path = str(tmp_path / "f.txt")
    write_raw(path, text)
    assert_parity(path, matrix)


@pytest.mark.parametrize("size", ["99999999999999999999 2 1", "3 9223372036854775808 1",
                                  "3 2 99999999999999999999"])
def test_size_past_int64_is_parse_error(tmp_path, size):
    # called directly, not through load_instance and its longest-vector bound
    path = str(tmp_path / "A.mtx")
    with open(path, "w") as fh:
        fh.write(COO + "% a comment\n" + size + "\n1 1 1.5\n")
    with pytest.raises(ParseError) as err:
        problems.read_matrix_market(path)
    assert err.value.path == path and err.value.line == 3
    assert str(err.value) == f"{path}:3: size past the int64 range in {size!r}"


@pytest.mark.parametrize("size", ["9223372036854775807 2 1", "9223372036854775806 2 1",
                                  "288230376151711744 2 1"])
def test_size_scipy_cannot_allocate_is_parse_error(tmp_path, size):
    # within int64, but scipy cannot index m + 1 row pointers (ValueError), or
    # they take 2 EiB, which the allocator refuses at once (MemoryError)
    path = str(tmp_path / "A.mtx")
    with open(path, "w") as fh:
        fh.write(COO + size + "\n1 1 1.5\n")
    for read in (problems.read_matrix_market, matrix_lines):
        with pytest.raises(ParseError) as err:
            read(path)
        assert err.value.path == path and err.value.line == 2
        assert str(err.value).startswith(f"{path}:2: size line {size!r} too large: ")


def test_corpus_reaches_both_outcomes(tmp_path):
    # the parity above means little unless some inputs load and others fail
    outcomes = []
    for text in MATRICES.values():
        path = str(tmp_path / "f.mtx")
        write_raw(path, text)
        outcomes.append(outcome(matrix_lines, path))
    errors = [o for o in outcomes if isinstance(o, tuple)]
    assert 10 <= len(errors) <= len(outcomes) - 10
    assert any(o[0] is ParseError for o in errors)


def test_generated_files_take_the_fast_path(tmp_path, monkeypatch):
    # a regression back to the line-by-line reader would pass every other test
    def refuse(path, fh):
        raise AssertionError(f"line-by-line reader ran on {path}")

    monkeypatch.setattr(problems, "_matrix_lines", refuse)
    monkeypatch.setattr(problems, "_vector_lines", refuse)
    loaded = {kind: load_instance(man) for kind, man in saved_kinds(str(tmp_path), True).items()}
    assert loaded["box-simplex 2000x1500"].A.shape == (2000, 1500)
    with open(tmp_path / "dense-quadratic.M.mtx") as fh:
        assert fh.readline() == SYM
    assert loaded["dense quadratic"].M.shape == (30, 30)


def test_load_opens_each_file_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    manifests = saved_kinds(str(tmp_path))
    monkeypatch.setattr(problems, "open", counting_open, raising=False)
    for kind, man in manifests.items():
        opened.clear()
        load_instance(man)
        stem = os.path.basename(man)[:-len(".manifest")]
        assert sorted(opened) == sorted(f for f in os.listdir(tmp_path)
                                        if f.startswith(stem + ".")), kind
