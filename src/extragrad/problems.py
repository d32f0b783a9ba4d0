"""Instance generation and reproducible file I/O.

Matrices go to disk in Matrix Market coordinate/array format, vectors as one
decimal per line, and a key=value manifest ties the pieces together.  All
reals are serialized with ``repr``, the shortest decimal that round-trips, so
regenerating with a fixed seed is byte-identical across platforms.
"""

from __future__ import annotations

import os

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


class QuadraticProblem:
    """f(x) = 1/2 x^T M x + b^T x with SPD M, dense or diagonal, and its conjugate.

    f* and grad f* use a factorization of M fixed at construction, so
    grad_fstar(grad(x)) == x to numerical precision.  The exact minimizer
    x* = -M^{-1} b is cached at construction.  For diagonal M,
    ``partial_at`` answers a coordinate partial in O(1).
    """

    kind = "quadratic"

    def __init__(self, M, b, mu=None, L=None):
        M = np.asarray(M, dtype=float)
        self.diag = M.ndim == 1
        self.M = M
        if self.diag:
            if np.any(M <= 0):
                raise ValueError("diagonal M must be positive")
            self._inv = 1.0 / M
        else:
            try:
                self._chol = np.linalg.cholesky(M)
            except np.linalg.LinAlgError as e:
                raise ValueError("M must be positive definite") from e
        self.b = np.asarray(b, dtype=float)
        self.d = self.b.size
        if mu is None or L is None:
            lo, hi = self.spectrum_extremes()
            mu = lo if mu is None else mu
            L = hi if L is None else L
        L_i = self.M.copy() if self.diag else np.diag(self.M).copy()
        self.profile = SmoothnessProfile(L=L, mu=mu, L_i=L_i)
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
        z = np.linalg.solve(self._chol, v)
        return np.linalg.solve(self._chol.T, z)

    def f(self, x):
        Mx = self.M * x if self.diag else self.M @ x
        return 0.5 * float(np.dot(x, Mx)) + float(np.dot(self.b, x))

    def grad(self, x):
        return (self.M * x if self.diag else self.M @ x) + self.b

    def fstar(self, y):
        v = y - self.b
        return 0.5 * float(np.dot(v, self._solve(v)))

    def grad_fstar(self, y):
        return self._solve(y - self.b)

    def partial_at(self, i, t):
        """grad_i f at any point whose i-th coordinate is t (diagonal M only)."""
        if not self.diag:
            raise ValueError("O(1) coordinate oracle requires diagonal M")
        return self.M[i] * t + self.b[i]

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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_vector(path, v):
    with open(path, "w", newline="\n") as fh:
        for x in v:
            fh.write(_fmt(x) + "\n")


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


def read_vector(path):
    with open(path) as fh:
        entries = [(ln, s.strip()) for ln, s in enumerate(fh, 1) if s.strip()]
    return _parse_values(path, entries, "bad number")


def write_matrix_market(path, A):
    """Matrix Market writer with shortest round-trip decimals."""
    with open(path, "w", newline="\n") as fh:
        if sp.issparse(A):
            A = A.tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
            order = np.lexsort((A.col, A.row))
            for i, j, v in zip(A.row[order], A.col[order], A.data[order]):
                fh.write(f"{i + 1} {j + 1} {_fmt(v)}\n")
        else:
            A = np.atleast_2d(np.asarray(A, dtype=float))
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{A.shape[0]} {A.shape[1]}\n")
            for j in range(A.shape[1]):
                for i in range(A.shape[0]):
                    fh.write(_fmt(A[i, j]) + "\n")


def read_matrix_market(path):
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(path, 1, "missing MatrixMarket header")
    header = lines[0].split()
    coordinate = "coordinate" in header
    body = [(ln, s.strip()) for ln, s in enumerate(lines[1:], 2)
            if s.strip() and not s.startswith("%")]
    if not body:
        raise ParseError(path, 2, "missing size line")
    ln0, size = body[0]
    parts = size.split()
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise ParseError(path, ln0, f"bad size line {size!r}") from None
    entries = body[1:]
    if coordinate:
        if len(dims) != 3:
            raise ParseError(path, ln0, "coordinate size line needs m n nnz")
        m, n, nnz = dims
        if len(entries) != nnz:
            last = entries[-1][0] if entries else ln0
            raise ParseError(path, last, f"expected {nnz} entries, found {len(entries)}")
        rows, cols, data = [], [], []
        for ln, s in entries:
            p = s.split()
            try:
                rows.append(int(p[0]) - 1)
                cols.append(int(p[1]) - 1)
                data.append(float(p[2]))
            except (IndexError, ValueError):
                raise ParseError(path, ln, f"bad coordinate entry {s!r}") from None
        data = np.array(data)
        _reject_nonfinite(path, data, entries)
        return sp.csr_matrix((data, (rows, cols)), shape=(m, n))
    if len(dims) != 2:
        raise ParseError(path, ln0, "array size line needs m n")
    m, n = dims
    if len(entries) != m * n:
        last = entries[-1][0] if entries else ln0
        raise ParseError(path, last, f"expected {m * n} values, found {len(entries)}")
    return _parse_values(path, entries, "bad value").reshape((n, m)).T


def write_manifest(path, entries: dict):
    """key=value lines, the format of manifests, run summaries and certificate
    reports: booleans as 0/1, reals with ``repr``."""
    with open(path, "w", newline="\n") as fh:
        for k, v in entries.items():
            if isinstance(v, (bool, np.bool_)):
                v = int(v)
            elif isinstance(v, (float, np.floating)):
                v = _fmt(v)
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


def save_instance(problem, manifest_path):
    """Write a problem and its manifest; paths are relative to the manifest."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    os.makedirs(base, exist_ok=True)
    if isinstance(problem, QuadraticProblem):
        mfile, bfile = stem + ".M.mtx", stem + ".b.txt"
        M = problem.M.reshape(-1, 1) if problem.diag else problem.M  # diagonal as a column
        write_matrix_market(os.path.join(base, mfile), M)
        write_vector(os.path.join(base, bfile), problem.b)
        write_manifest(manifest_path, {
            "kind": "quadratic",
            "diag": int(problem.diag),
            "d": problem.d,
            "M": mfile,
            "b": bfile,
            "mu": _fmt(problem.profile.mu),
            "L": _fmt(problem.profile.L),
        })
    elif isinstance(problem, BoxSimplexInstance):
        afile, bfile, cfile = stem + ".A.mtx", stem + ".b.txt", stem + ".c.txt"
        write_matrix_market(os.path.join(base, afile), problem.A)
        write_vector(os.path.join(base, bfile), problem.b)
        write_vector(os.path.join(base, cfile), problem.c)
        write_manifest(manifest_path, {
            "kind": "box-simplex",
            "m": problem.m,
            "n": problem.n,
            "A": afile,
            "b": bfile,
            "c": cfile,
        })
    elif isinstance(problem, MinimaxInstance):
        cfile = stem + ".C.mtx"
        qfile, rfile = stem + ".q.txt", stem + ".r.txt"
        write_matrix_market(os.path.join(base, cfile), problem.C)
        write_vector(os.path.join(base, qfile), problem.q)
        write_vector(os.path.join(base, rfile), problem.r)
        write_manifest(manifest_path, {
            "kind": "minimax",
            "n": problem.C.shape[0],
            "m": problem.C.shape[1],
            "C": cfile,
            "q": qfile,
            "r": rfile,
            "mu_x": _fmt(problem.mu_x),
            "mu_y": _fmt(problem.mu_y),
        })
    else:
        raise TypeError(f"cannot serialize {type(problem).__name__}")
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
    base = os.path.dirname(os.path.abspath(manifest_path))
    kind = man.get("kind")
    if kind == "quadratic":
        M = read_matrix_market(os.path.join(base, man["M"]))
        if sp.issparse(M):
            M = M.toarray()
        b = read_vector(os.path.join(base, man["b"]))
        if int(man.get("diag", 0)):  # a d x 1 column, or the dense d x d of older manifests
            M = M.ravel() if M.shape[1] == 1 else np.diag(M)
        inst = QuadraticProblem(M, b, mu=float(man["mu"]), L=float(man["L"]))
        (lo, hi), mu, L = inst.spectrum_extremes(), inst.profile.mu, inst.profile.L
        if max(abs(mu - lo), abs(L - hi)) > 1e-9 * L:  # a wrong mu or L mis-sets lam
            raise ParseError(manifest_path, 1, f"mu={mu!r} and L={L!r} disagree with the "
                             f"extreme eigenvalues {lo!r} and {hi!r} of M")
        dims, keys = (inst.d,), ("d",)
    elif kind == "box-simplex":
        A = read_matrix_market(os.path.join(base, man["A"]))
        b = read_vector(os.path.join(base, man["b"]))
        c = read_vector(os.path.join(base, man["c"]))
        inst = BoxSimplexInstance(A, b, c)
        dims, keys = (inst.m, inst.n), ("m", "n")
    elif kind == "minimax":
        C = read_matrix_market(os.path.join(base, man["C"]))
        if sp.issparse(C):
            C = C.toarray()
        q = read_vector(os.path.join(base, man["q"]))
        r = read_vector(os.path.join(base, man["r"]))
        inst = MinimaxInstance(float(man["mu_x"]), float(man["mu_y"]), C, q, r)
        dims, keys = inst.C.shape, ("n", "m")
    else:
        raise ParseError(manifest_path, 1, f"unknown instance kind {kind!r}")
    if tuple(dims) != tuple(int(man[key]) for key in keys):
        raise ParseError(manifest_path, 1, "dimensions disagree with data files")
    return inst
