"""Instance generation and reproducible file I/O.

Matrices go to disk in Matrix Market coordinate/array format, vectors as one
decimal per line, and a key=value manifest ties the pieces together.  All
reals are serialized with ``repr``, the shortest decimal that round-trips, so
regenerating with a fixed seed is byte-identical across platforms.

A sparse matrix is written as ``coordinate real general``.  A dense matrix
equal to its transpose, bit for bit, is ``array real symmetric``: its lower
triangle, column by column.  Any other dense matrix, one asymmetric only by
rounding among them, is ``array real general``.

A matrix's header and size line are read and checked first, by
``_read_size_line``.  It takes ``general`` files and square ``symmetric``
arrays, matching the header's words in any case; a header that would be
misread (``complex``, ``pattern``, ``hermitian``, ``skew-symmetric``, or
``symmetric`` on a coordinate file) is a ``ParseError`` at line 1.  A vector,
or a matrix body, is then read from the same open file by one ``np.loadtxt``
call: coordinate lines as (int64, int64, float64) records, array values and
vectors as one float64 per line.  That result is kept only when it has the
count the size line declares (one value per line for a vector) and every
value is finite.  In every other case -- a comment or a ragged line in the
body, a wrong count, a NaN, anything the C parser rejects -- the
line-by-line reader reads the file again from its start and decides, so it
alone defines what is accepted and every ``ParseError``.  What the C parser
takes, the line-by-line reader takes too, with the same doubles.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import scipy.sparse as sp

from .operators import BoxSimplexInstance, MinimaxInstance, SmoothnessProfile, make_rng


class ParseError(ValueError):
    def __init__(self, path, line, msg):
        super().__init__(f"{path}:{line}: {msg}")
        self.path = path
        self.line = line


# ---------------------------------------------------------------------------
# Quadratic problems
# ---------------------------------------------------------------------------


def _aligned(a):
    """An F-ordered copy of ``a`` on a 64-byte boundary."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = np.ndarray(a.shape, a.dtype, buf[start:start + a.nbytes], order="F")
    out[...] = a
    return out


# The largest L/mu a dense M takes.  A solve with M, and so grad f* and the f*
# divergence of the Fenchel game, has a relative error near (L/mu) * eps, which
# at L/mu = 1e16 already breaks the game's relative Lipschitzness certificate.
KAPPA_MAX_DENSE = float(0.25 / np.finfo(float).eps)  # about 1.1e15


class QuadraticProblem:
    """f(x) = 1/2 x^T M x + b^T x with SPD M, dense or diagonal, and grad f*.

    grad f* solves with M itself, so grad_fstar(grad(x)) == x to numerical
    precision.  The exact minimizer x* = -M^{-1} b is cached at
    construction.  For diagonal M, ``partial_at`` answers a coordinate
    partial in O(1).  A dense M needs L/mu at most ``KAPPA_MAX_DENSE``; a
    diagonal one, whose solves are exact divisions, takes any L/mu.

    A dense M is copied once, F-ordered as the reader reads it, to a 64-byte
    boundary: the order decides the BLAS path and so the bits, and OpenBLAS's
    product with an M that numpy placed off the boundary runs up to 30% slower.
    """

    kind = "quadratic"

    def __init__(self, M, b, mu, L):
        M = np.asarray(M, dtype=float)
        self.diag = M.ndim == 1
        if self.diag:
            if np.any(M <= 0):
                raise ValueError("diagonal M must be positive")
            self._inv = 1.0 / M
        else:
            M = _aligned(M)
            self._MT = M.T  # bound once, so grad builds no transpose view per call
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError as e:
                raise ValueError("M must be positive definite") from e
            # cholesky and eigvalsh read one triangle of M and grad all of it, so
            # M and its transpose may differ by rounding only
            if np.abs(M - M.T).max(initial=0.0) > 1e-12 * np.abs(M).max(initial=0.0):
                raise ValueError("M must be symmetric")
        self.M = M
        self.b = np.asarray(b, dtype=float)
        self.d = self.b.size
        L_i = self.M.copy() if self.diag else np.diag(self.M).copy()
        self.profile = SmoothnessProfile(L=L, mu=mu, L_i=L_i)
        if not self.diag and L / mu > KAPPA_MAX_DENSE:
            raise ValueError(f"L/mu = {float(L / mu)!r} is above {KAPPA_MAX_DENSE!r}, the "
                             f"largest a dense M takes: solves with M lose the accuracy "
                             f"that certifying its Fenchel game needs")
        self.x_star = self.grad_fstar(np.zeros(self.d))
        self.f_star = self.f(self.x_star)
        if not np.isfinite(self.f_star):
            raise ValueError(f"optimal value {self.f_star!r} is not finite")

    def spectrum_extremes(self):
        """The smallest and largest eigenvalues of M."""
        if self.diag:
            return float(self.M.min()), float(self.M.max())
        ev = np.linalg.eigvalsh(self.M)
        return float(ev[0]), float(ev[-1])

    def _solve(self, v):
        if self.diag:
            return self._inv * v
        return np.linalg.solve(self.M, v)

    def f(self, x):
        Mx = self.M * x if self.diag else self.M @ x
        return 0.5 * float(np.dot(x, Mx)) + float(np.dot(self.b, x))

    def grad(self, x):
        """grad f at x of shape (d,), or at each row of x of shape (k, d), as a
        new array of x's shape.

        Rows answer several queries in one product with M; each row's gradient
        equals its own 1-D call up to rounding, and a 1-D call is bit-identical
        to ``M @ x + b``.
        """
        g = self.M * x if self.diag else np.dot(x, self._MT)
        g += self.b  # b broadcasts over rows
        return g

    def grad_fstar(self, y):
        return self._solve(y - self.b)

    def partial_at(self, i, t):
        """grad_i f at any point whose i-th coordinate is t (diagonal M only), as
        a Python float: the same bits as ``M[i] * t + b[i]`` at a third of the cost."""
        if not self.diag:
            raise ValueError("O(1) coordinate oracle requires diagonal M")
        return self.M.item(i) * t + self.b.item(i)

    def error(self, x):
        return self.f(x) - self.f_star


def gen_quadratic(d, mu, L, diag=True, seed=0) -> QuadraticProblem:
    """Random quadratic with spectrum log-uniform in [mu, L], extremes pinned."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (0 < mu <= L):
        raise ValueError("need 0 < mu <= L")
    if d == 1 and mu != L:
        raise ValueError("d = 1 has one eigenvalue, so it needs mu = L")
    rng = make_rng(seed)
    ev = np.exp(rng.uniform(np.log(mu), np.log(L), size=d))
    ev[0] = mu
    if d > 1:
        ev[-1] = L
    b = rng.standard_normal(d)
    nb = np.linalg.norm(b)
    if nb > 0:
        b = b / nb
    if diag:
        return QuadraticProblem(ev, b, mu=mu, L=L)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (Q * ev) @ Q.T
    M = 0.5 * (M + M.T)
    return QuadraticProblem(M, b, mu=mu, L=L)


# ---------------------------------------------------------------------------
# Box-simplex instance generation
# ---------------------------------------------------------------------------


def gen_box_simplex(m, n, density=0.5, seed=0) -> BoxSimplexInstance:
    """Sparse A with uniform [-1,1] entries; b, c bounded by the operator norm."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    if not (0 < density <= 1):
        raise ValueError("density must lie in (0, 1]")
    rng = make_rng(seed)
    mask = rng.random((m, n)) < density
    # keep at least one entry so the operator norm is nonzero
    if not mask.any():
        mask[0, 0] = True
    vals = rng.uniform(-1.0, 1.0, size=(m, n)) * mask
    A = sp.csr_matrix(vals)
    norm = float(np.abs(vals).sum(axis=1).max())
    b = rng.uniform(-norm, norm, size=m)
    c = rng.uniform(-norm, norm, size=n)
    return BoxSimplexInstance(A, b, c)


def gen_minimax(n, m, mu_x, mu_y, coupling, seed=0) -> MinimaxInstance:
    rng = make_rng(seed)
    C = rng.standard_normal((n, m))
    sigma = float(np.linalg.svd(C, compute_uv=False)[0])
    C *= coupling / sigma
    q = rng.standard_normal(n)
    r = rng.standard_normal(m)
    return MinimaxInstance(mu_x, mu_y, C, q, r)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_BLOCK = 1024  # lines per write: one block's strings are all the memory a file takes


def _write_lines(path, head, *columns, fmt=None):
    """``head``, then a line per row of the equal-length arrays ``columns``:
    ``fmt`` of the row, or with no ``fmt`` the ``repr`` of the one column's value.

    Rows come from ``tolist()``: ``repr`` of a numpy scalar is a different string.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        for k in range(0, len(columns[0]), _BLOCK):
            block = [c[k:k + _BLOCK].tolist() for c in columns]
            if fmt is None:
                fh.write("\n".join(map(repr, block[0])) + "\n")
            else:
                fh.write("".join([fmt.format(*row) for row in zip(*block)]))


def write_vector(path, v):
    _write_lines(path, "", np.asarray(v, dtype=float))


def _reject_nonfinite(path, values, entries):
    """ParseError at the first NaN or infinity; entries[k][0] is value k's line."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = bad[0]
        raise ParseError(path, entries[k][0], f"non-finite value {entries[k][1]!r}")


def _parse_values(path, entries, what):
    """Floats from (line number, text) pairs, all finite."""
    vals = []
    for ln, s in entries:
        try:
            vals.append(float(s))
        except ValueError:
            raise ParseError(path, ln, f"{what} {s!r}") from None
    vals = np.array(vals)
    _reject_nonfinite(path, vals, entries)
    return vals


_COORDINATE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _loadtxt(fh, dtype, ndmin):
    """The rest of ``fh`` by numpy's C parser, with no comment character."""
    with warnings.catch_warnings():  # an empty body is the count check's to judge
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, dtype=dtype, comments=None, ndmin=ndmin)


def read_vector(path):
    with open(path) as fh:
        try:
            vals = _loadtxt(fh, np.float64, 2)  # "1 2" on one line is a (1, 2) row
            if vals.shape[1:] == (1,) and np.isfinite(vals).all():
                return vals[:, 0]
        except ValueError:
            pass
        fh.seek(0)
        return _vector_lines(path, fh)


def _vector_lines(path, fh):
    entries = [(ln, s.strip()) for ln, s in enumerate(fh, 1) if s.strip()]
    return _parse_values(path, entries, "bad number")


def write_matrix_market(path, A):
    """Matrix Market writer with shortest round-trip decimals: a dense matrix
    equal to its transpose as its lower triangle, column by column."""
    if sp.issparse(A):
        A = A.tocoo()
        order = np.lexsort((A.col, A.row))
        _write_lines(path, "%%MatrixMarket matrix coordinate real general\n"
                     f"{A.shape[0]} {A.shape[1]} {A.nnz}\n", A.row[order] + 1, A.col[order] + 1,
                     np.asarray(A.data[order], dtype=float), fmt="{} {} {!r}\n")
        return
    A = np.atleast_2d(np.asarray(A, dtype=float))
    values = A.ravel(order="F")
    symmetric = A.shape[0] == A.shape[1] and np.array_equal(A, A.T)
    if symmetric:
        values = values[np.tri(A.shape[0], dtype=bool).ravel(order="F")]
    _write_lines(path, f"%%MatrixMarket matrix array real {'symmetric' if symmetric else 'general'}"
                 f"\n{A.shape[0]} {A.shape[1]}\n", values)


def read_matrix_market(path, bound=None):
    """The matrix by numpy's C parser, or by the line-by-line reader where that
    result is not plainly right; ``bound`` is as for ``_read_size_line``."""
    with open(path) as fh:
        _, _, (m, n, count), coordinate, symmetric = _read_size_line(path, fh, bound)
        try:
            if coordinate:
                e = _loadtxt(fh, _COORDINATE, 1)
                if e.shape == (count,) and np.isfinite(e["v"]).all():
                    try:
                        return sp.csr_matrix((e["v"], (e["i"] - 1, e["j"] - 1)), shape=(m, n))
                    except MemoryError:  # the line reader reports the size line
                        pass
            else:
                vals = _loadtxt(fh, np.float64, 2)
                if vals.shape == (count, 1) and np.isfinite(vals).all():
                    return _array(vals[:, 0], m, n, symmetric)
        except ValueError:
            pass
        fh.seek(0)  # decoded from the start again, as a new open would, so errors match
        return _matrix_lines(path, fh)


_MISREAD = {"complex", "pattern", "hermitian", "skew-symmetric"}  # header words


def _read_size_line(path, fh, bound=None):
    """(size line number, its text, (m, n, the number of entries in the
    body), whether coordinate, whether symmetric) of the Matrix Market file
    ``fh``, checked, with ``fh`` left at the body.

    ``bound`` is the instance's longest vector, where there is one: no kind's
    matrix is longer or wider, so a larger m or n allocates nothing.
    """
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        raise ParseError(path, 1, "missing MatrixMarket header")
    words = header.lower().split()
    coordinate, symmetric = "coordinate" in words, "symmetric" in words
    if _MISREAD.intersection(words) or coordinate and symmetric:
        raise ParseError(path, 1, f"unsupported header {header.strip()!r}: only general "
                         "matrices and symmetric arrays of reals are read")
    for ln, s in enumerate(iter(fh.readline, ""), 2):
        if s.strip() and not s.startswith("%"):
            break
    else:
        raise ParseError(path, 2, "missing size line")
    size = s.strip()
    try:
        dims = [int(p) for p in size.split()]
    except ValueError:
        raise ParseError(path, ln, f"bad size line {size!r}") from None
    if bound is not None and max(dims[:2]) > bound:
        raise ParseError(path, ln, f"size line {size!r} exceeds {bound}, "
                         "the longest vector of the instance")
    if any(k < 0 for k in dims):
        raise ParseError(path, ln, f"negative size in {size!r}")
    if max(dims) > np.iinfo(np.int64).max:  # no array has that size
        raise ParseError(path, ln, f"size past the int64 range in {size!r}")
    if len(dims) != (3 if coordinate else 2):
        raise ParseError(path, ln, "coordinate size line needs m n nnz" if coordinate
                         else "array size line needs m n")
    if symmetric and dims[0] != dims[1]:
        raise ParseError(path, ln, f"symmetric array size line {size!r} is not square")
    if not coordinate:
        m, n = dims
        dims.append(n * (n + 1) // 2 if symmetric else m * n)
    return ln, size, dims, coordinate, symmetric


def _array(values, m, n, symmetric):
    """The m x n matrix, F-ordered, whose array body is ``values``: all of its
    entries column by column, or with ``symmetric`` those of its lower triangle."""
    if not symmetric:
        return values.reshape((n, m)).T
    A = np.empty((n, n)).T
    upper = np.tri(n, dtype=bool).T
    A[upper] = values  # row by row, the upper triangle is the lower one column by column
    A.T[upper] = values
    return A


def _matrix_lines(path, fh):
    ln0, size, (m, n, count), coordinate, symmetric = _read_size_line(path, fh)
    entries = [(ln, s.strip()) for ln, s in enumerate(fh, ln0 + 1)
               if s.strip() and not s.startswith("%")]
    if len(entries) != count:
        last = entries[-1][0] if entries else ln0
        raise ParseError(path, last, f"expected {count} {'entries' if coordinate else 'values'}, "
                         f"found {len(entries)}")
    if not coordinate:
        return _array(_parse_values(path, entries, "bad value"), m, n, symmetric)
    rows, cols, data = [], [], []
    for ln, s in entries:
        p = s.split()
        try:
            rows.append(int(p[0]) - 1)
            cols.append(int(p[1]) - 1)
            data.append(float(p[2]))
        except (IndexError, ValueError):
            raise ParseError(path, ln, f"bad coordinate entry {s!r}") from None
        if not (0 <= rows[-1] < m and 0 <= cols[-1] < n):
            raise ParseError(path, ln, f"index ({p[0]}, {p[1]}) outside the {m} x {n} matrix")
    data = np.array(data)
    _reject_nonfinite(path, data, entries)
    try:
        return sp.csr_matrix((data, (rows, cols)), shape=(m, n))
    except (ValueError, MemoryError) as e:  # scipy cannot index or allocate m + 1 row pointers
        raise ParseError(path, ln0, f"size line {size!r} too large: {e}") from None


def write_manifest(path, entries: dict):
    """key=value lines, the format of manifests, run summaries and certificate
    reports: booleans as 0/1, reals with ``repr``."""
    with open(path, "w", newline="\n") as fh:
        for k, v in entries.items():
            if isinstance(v, (bool, np.bool_)):
                v = int(v)
            elif isinstance(v, (float, np.floating)):
                v = repr(float(v))
            fh.write(f"{k}={v}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            s = line.strip()
            if not s:
                continue
            if "=" not in s:
                raise ParseError(path, ln, f"expected key=value, got {s!r}")
            k, v = s.split("=", 1)
            out[k] = v
    return out


# The data files of each kind, matrix first, by manifest key.  A key's file is
# <stem>.<key>.mtx for the matrix and <stem>.<key>.txt for a vector.
DATA_FILES = {"quadratic": ("M", "b"), "box-simplex": ("A", "b", "c"), "minimax": ("C", "q", "r")}


def save_instance(problem, manifest_path):
    """Write a problem and its manifest; paths are relative to the manifest."""
    if isinstance(problem, QuadraticProblem):
        dims = {"diag": int(problem.diag), "d": problem.d}
        M = problem.M.reshape(-1, 1) if problem.diag else problem.M  # diagonal as a column
        arrays, scalars = (M, problem.b), {"mu": problem.profile.mu, "L": problem.profile.L}
    elif isinstance(problem, BoxSimplexInstance):
        dims = {"m": problem.m, "n": problem.n}
        arrays, scalars = (problem.A, problem.b, problem.c), {}
    elif isinstance(problem, MinimaxInstance):
        dims = {"n": problem.C.shape[0], "m": problem.C.shape[1]}
        arrays = (problem.C, problem.q, problem.r)
        scalars = {"mu_x": problem.mu_x, "mu_y": problem.mu_y}
    else:
        raise TypeError(f"cannot serialize {type(problem).__name__}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    os.makedirs(base, exist_ok=True)
    files = {}
    for k, (key, array) in enumerate(zip(DATA_FILES[problem.kind], arrays)):
        files[key] = f"{stem}.{key}.{'txt' if k else 'mtx'}"
        (write_vector if k else write_matrix_market)(os.path.join(base, files[key]), array)
    write_manifest(manifest_path, {"kind": problem.kind, **dims, **files,
                                   **{key: float(v) for key, v in scalars.items()}})
    return manifest_path


def load_instance(manifest_path):
    """Read a manifest and its data files; any malformed input is a ParseError."""
    try:
        return _build_instance(manifest_path, read_manifest(manifest_path))
    except ParseError:
        raise
    except KeyError as e:
        raise ParseError(manifest_path, 1, f"missing key {e.args[0]!r}") from None
    except ValueError as e:  # constructors reject inconsistent data, e.g. mu > L
        raise ParseError(manifest_path, 1, str(e)) from None


def _build_instance(manifest_path, man):
    kind = man.get("kind")
    if kind not in DATA_FILES:
        raise ParseError(manifest_path, 1, f"unknown instance kind {kind!r}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    mpath, *vpaths = [os.path.join(base, man[key]) for key in DATA_FILES[kind]]
    vectors = [read_vector(path) for path in vpaths]
    A = read_matrix_market(mpath, max(v.size for v in vectors))
    if kind != "box-simplex" and sp.issparse(A):  # only box-simplex games keep A sparse
        A = A.toarray()
    if kind == "quadratic":
        if int(man.get("diag", 0)):  # a d x 1 column, or the dense d x d of older manifests
            if A.shape[1] != 1 and not np.array_equal(A, np.diag(np.diag(A))):
                raise ParseError(manifest_path, 1, "diag=1 needs M as a d x 1 column or a "
                                 "diagonal d x d matrix")
            A = A.ravel() if A.shape[1] == 1 else np.diag(A)
        inst = QuadraticProblem(A, *vectors, float(man["mu"]), float(man["L"]))
        (lo, hi), mu, L = inst.spectrum_extremes(), inst.profile.mu, inst.profile.L
        if max(abs(mu - lo), abs(L - hi)) > 1e-9 * L:  # a wrong mu or L mis-sets lam
            raise ParseError(manifest_path, 1, f"mu={mu!r} and L={L!r} disagree with the "
                             f"extreme eigenvalues {lo!r} and {hi!r} of M")
        dims, keys = (inst.d,), ("d",)
    elif kind == "box-simplex":
        inst = BoxSimplexInstance(A, *vectors)
        dims, keys = (inst.m, inst.n), ("m", "n")
    else:
        inst = MinimaxInstance(float(man["mu_x"]), float(man["mu_y"]), A, *vectors)
        dims, keys = inst.C.shape, ("n", "m")
    if tuple(dims) != tuple(int(man[key]) for key in keys):
        raise ParseError(manifest_path, 1, "dimensions disagree with data files")
    return inst
