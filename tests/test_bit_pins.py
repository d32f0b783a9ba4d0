"""Solver answers pinned bit for bit: SHA-256 of ``x.tobytes()`` and the counts.

The digests were recorded before the dense M was stored on a 64-byte boundary
and before the coordinate step ran on Python floats; both changes keep every
bit.  The dense d = 37 and d = 700 digests were recorded before ``grad`` and
the ``eg_accel`` step moved from ``@`` and ``np.matmul`` to ``np.dot``, which
keeps every bit too.  A dense M is stored F-ordered whichever way it was
built, so a generated instance and its saved-and-loaded copy take the same
OpenBLAS path; each dense digest is pinned once, and the run of the generated
instance must equal the run of the loaded one.  A product with M rounds
differently with the number of BLAS threads (at d = 400 here), so the dense
solves run in a child process at one thread.  Every run passes the exact
initial error as eps0, as the digests were recorded: the solvers' own
default is a bound from their oracle.

Run as a script, ``python tests/test_bit_pins.py DIR`` prints the dense
digests as JSON, with the instances saved to and loaded from DIR.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import extragrad
from extragrad import (
    ScaledEuclidean, eg_accel, eg_coord_accel, gen_quadratic, general_norm_accel,
    load_instance, save_instance,
)


def digest(x):
    return hashlib.sha256(x.tobytes()).hexdigest()


# (digest, queries, inner_iterations, phases)
COORD = {
    "d50 seed 0": ("85b7961fe43ccbf6a24010426a0b87683447e5c3a72c40ad36035c75fb6b07fd",
                   23840, 11920, 10),
    "d50 seed 1": ("79b6ffa955c0d6547e19adfe9d3171f7bf1a1caa76e3b05a065be2997a1eb4ac",
                   23840, 11920, 10),
    "d50 seed 2": ("0d0699ebcd7e1ca53062afe7095d3f9ae45fce85d4c942f9248d1cdf5efdbe7d",
                   23840, 11920, 10),
    "d1000": ("d8a4908a5aab12c60b072aea698e25528fa2322845ae9d09bc2545b84b329323",
              112632, 56316, 3),
}

DENSE = {
    "eg_accel d30":
        "f72bd441c740632d118fb5947639242bd66f69e4bbec18273f3cde73cbc9ffaa",
    "general_norm_accel d30":
        "f2594cdc24aef8efc6f043923f45751debe2a095c46dbb4bbd5ac6d637adf74f",
    "eg_accel d37":
        "8ac365c7cc4ccf29d92f21569088a00278607cfbdca54cac9db7760ed883bed1",
    "general_norm_accel d37":
        "f41f34bb2b1da94bef46411e5c0bcb5ab51961d2acdad16565f6762916335085",
    "eg_accel d200":
        "361a0e63a5eab4e6cdeaf2840b57339bdffb1eb9a386b63e242792b8e8e5338c",
    "general_norm_accel d200":
        "94c9151e56029cad56ec1a67b1fdc5d4cad6d5bdf776d4a5c9357a049551647d",
    "eg_accel d400":
        "ffdc442a0fb3e6a17c8d6485838d3df49db52a61a5b9b305f093f58d6e252c7e",
    "general_norm_accel d400":
        "1121acd48b878b70807a77db49cc6c0aa14cdee237b9b7187ce4d85770396367",
    "eg_accel d700":
        "c0705e7a843370c8f7e42c29d6c8a94e80df91e36b1763ad6434be5302aaf820",
    "general_norm_accel d700":
        "6be4de28104aca7a15c132462fa67af24efafb1e29f7f4f05000dd05bf42e8a7",
}


def coord_digests():
    """Criterion 08(c)'s d = 50 instance at seeds 0-2, and ``smooth``'s d = 1000
    diagonal instance at seed 0 over three phases."""
    out = {}
    prob = gen_quadratic(50, 1.0, 200.0, diag=True, seed=4)
    exact = prob.error(np.zeros(50))
    runs = [(f"d50 seed {seed}", prob, 1e-4, exact, seed) for seed in range(3)]
    big = gen_quadratic(1000, 1.0, 200.0, diag=True, seed=99)
    eps0 = big.error(np.zeros(1000))
    runs.append(("d1000", big, eps0 / 8, eps0, 0))
    for key, p, eps, e0, seed in runs:
        x, info = eg_coord_accel(p, np.zeros(p.d), eps, eps0=e0, seed=seed)
        out[key] = (digest(x), info["queries"], info["inner_iterations"], info["phases"])
    return out


def dense_answers(p):
    """Digests of eg_accel over four phases and of 100 steps of general_norm_accel."""
    x0 = np.zeros(p.d)
    eps0 = p.error(x0)
    return {"eg_accel": digest(eg_accel(p, x0, eps0 / 16, eps0=eps0)),
            "general_norm_accel":
                digest(general_norm_accel(p, ScaledEuclidean(1.0), x0, 1e-8, T=100))}


def dense_digests(directory):
    """``dense_answers`` on dense quadratics with d = 30, 37, 200, 400 and 700,
    generated and saved then loaded; where the two runs differ, both digests."""
    out = {}
    for d in (30, 37, 200, 400, 700):
        gen = gen_quadratic(d, 1.0, 100.0, diag=False, seed=d)
        loaded = load_instance(save_instance(gen, os.path.join(directory, f"q{d}.manifest")))
        ran, reran = dense_answers(gen), dense_answers(loaded)
        for name, g in ran.items():
            ld = reran[name]
            out[f"{name} d{d}"] = g if g == ld else f"generated {g} != loaded {ld}"
    return out


def test_coordinate_answers_are_pinned():
    assert coord_digests() == COORD


def test_dense_answers_are_pinned_at_one_blas_thread(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(extragrad.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == DENSE


def test_a_no_op_callback_keeps_every_bit():
    prob = gen_quadratic(50, 1.0, 200.0, diag=True, seed=4)
    x, info = eg_coord_accel(prob, np.zeros(50), 1e-4, eps0=prob.error(np.zeros(50)), seed=0,
                             callback=lambda i, g_v, g_vh, state: None)
    assert (digest(x), info["queries"], info["inner_iterations"], info["phases"]) \
        == COORD["d50 seed 0"]


if __name__ == "__main__":
    print(json.dumps(dense_digests(sys.argv[1])))
