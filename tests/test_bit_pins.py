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

The box-simplex pins are SHA-256 of ``x.tobytes()`` and ``y.tobytes()`` with
the accepted steps, retries and restarts: of every ``linf-reg`` benchmark
instance at seeds 0-2, and of one certified 2000 x 1500 game at 1% density,
whose margins are pinned too.  Its products are compressed-row, which no BLAS
thread count changes, and ``linf-reg``'s 20 x 5 dense products are too small
to thread, so these run in the test process.

Run as a script, ``python tests/test_bit_pins.py DIR`` prints the dense
digests and the box-simplex pins as JSON, with the quadratics saved to and
loaded from DIR.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import extragrad
from extragrad import (
    ScaledEuclidean, eg_accel, eg_coord_accel, gen_box_simplex, gen_quadratic,
    general_norm_accel, linf_regression_reduction, load_instance, make_rng, save_instance,
    solve_box_simplex,
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


# per seed: (digest of every game's x and y, [(iterations, retries, restarts)])
LINF_REG = {
    "seed 0": ("336f50e7bd422fa116fdca7c7e1466ede4aaf83bbb140ed566d37939e5cf8306",
               [(31, 5, 2), (23, 3, 1), (33, 6, 2), (30, 5, 1), (38, 8, 2), (25, 3, 1),
                (27, 4, 2), (30, 5, 2), (36, 7, 1), (30, 5, 2), (25, 3, 2), (32, 6, 1),
                (32, 6, 1), (26, 4, 1), (37, 7, 2), (29, 4, 2)]),
    "seed 1": ("6682e0f346f4d83329b3ac39e6995eb018c1c06d08a7c91f0bd0044172430b69",
               [(45, 10, 2), (26, 4, 1), (39, 8, 1), (27, 3, 2), (28, 4, 2), (31, 5, 0),
                (27, 4, 1), (27, 4, 2), (32, 6, 1), (27, 4, 1), (33, 6, 1), (35, 6, 1),
                (34, 6, 2), (26, 3, 2), (44, 10, 1), (25, 4, 2)]),
    "seed 2": ("eb6a434237e87f7f1364c4c4c344c017cf38576466f5c14df685cdb954f0824b",
               [(25, 3, 1), (35, 6, 2), (24, 3, 1), (24, 3, 2), (31, 5, 1), (33, 6, 1),
                (26, 3, 1), (26, 3, 2), (35, 7, 1), (39, 8, 2), (34, 7, 1), (23, 3, 1),
                (25, 4, 1), (40, 8, 2), (30, 5, 2), (27, 4, 1)]),
}

# (x digest, y digest, margins digest, iterations, retries, restarts)
LARGE_GAME = (
    "9eab6cb6a8383f5aba440f223ed6cff09ddc8437e5a2252d79acb28623c3ef82",
    "c0188d302f3b32d0b0b323d3797fa3a131bd8f8805a348a250cc148254a1091c",
    "9749ba04011b8ff571c840561d4383996673910c839d6573e595467706289b49",
    76, 22, 4)


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


def linf_reg_pins():
    """``linf-reg``'s sixteen 20 x 5 games per seed at eps = 0.07 ||A||, seeds 0-2:
    per seed, one digest of every game's x and y bytes in order, and each
    game's (iterations, retries, restarts)."""
    out = {}
    for seed in range(3):
        h, counts = hashlib.sha256(), []
        for j in range(16):
            rng = make_rng(100 + 16 * seed + j)
            A, b = rng.standard_normal((10, 5)), rng.standard_normal(10)
            inst = linf_regression_reduction(A, b)
            x, y, _, trace = solve_box_simplex(inst, 0.07 * inst.op_norm)
            h.update(x.tobytes())
            h.update(y.tobytes())
            s = trace.summary
            counts.append([s["iterations"], s["retries"], s["restarts"]])
        out[f"seed {seed}"] = [h.hexdigest(), counts]
    return out


def large_game_pin():
    """``game-sparse-large``'s first game at seed 0, certified at eps = 0.1 ||A||:
    digests of x, y and the margins, then (iterations, retries, restarts)."""
    inst = gen_box_simplex(2000, 1500, 0.01, seed=0)
    x, y, _, trace = solve_box_simplex(inst, 0.1 * inst.op_norm, certify=True)
    s = trace.summary
    return [digest(x), digest(y), digest(np.array(trace.margins)),
            s["iterations"], s["retries"], s["restarts"]]


def test_coordinate_answers_are_pinned():
    assert coord_digests() == COORD


def test_dense_answers_are_pinned_at_one_blas_thread(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(extragrad.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["dense"] == DENSE


def test_linf_reg_answers_are_pinned():
    pins = linf_reg_pins()
    assert {k: (h, [tuple(c) for c in counts]) for k, (h, counts) in pins.items()} == LINF_REG


def test_certified_large_game_answer_and_margins_are_pinned():
    assert tuple(large_game_pin()) == LARGE_GAME


def test_a_no_op_callback_keeps_every_bit():
    prob = gen_quadratic(50, 1.0, 200.0, diag=True, seed=4)
    x, info = eg_coord_accel(prob, np.zeros(50), 1e-4, eps0=prob.error(np.zeros(50)), seed=0,
                             callback=lambda i, g_v, g_vh, state: None)
    assert (digest(x), info["queries"], info["inner_iterations"], info["phases"]) \
        == COORD["d50 seed 0"]


if __name__ == "__main__":
    print(json.dumps({"dense": dense_digests(sys.argv[1]), "linf-reg": linf_reg_pins(),
                      "game 2000x1500": large_game_pin()}))
