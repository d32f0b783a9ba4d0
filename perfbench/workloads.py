"""The workloads: inputs made from the seed, timed solves and their checks.

A round is one pass over a workload's solves.  Every round of a run repeats
the same solves on the same inputs, so the program's counts repeat exactly
from round to round.  Each solve is timed from the call into the library or
into ``extragrad.cli.main`` until it returns; checks run after the timing.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
import warnings

import numpy as np

from extragrad import boxsimplex, cli, problems
from extragrad.operators import make_rng

import checks

clock = time.perf_counter


def read_summary(path):
    """The key=value lines that ``extragrad solve`` writes to <out>.summary.txt."""
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


class Capture:
    """Keeps what the solver called by ``extragrad.cli`` returned, and its time.

    For ``eg_accel`` it also keeps every phase iterate handed to ``collect``.
    """

    def __init__(self):
        self.results = []

    def install(self, patches):
        for attr in ("solve_box_simplex", "eg_accel", "eg_coord_accel"):
            patches.replace(cli, attr, self._wrap)

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            phases = []
            if "collect" in kwargs:
                inner = kwargs["collect"]

                def collect(k, xp):
                    phases.append(np.array(xp, copy=True))
                    if inner is not None:
                        inner(k, xp)
                kwargs["collect"] = collect
            t0 = clock()
            out = fn(*args, **kwargs)
            self.results.append({"out": out, "phases": phases, "seconds": clock() - t0})
            return out
        return wrapper


class Workload:
    """Base: ``setup`` makes the inputs, ``solves`` yields one round's timed solves."""

    name = ""

    def __init__(self, seed, capture, small=False):
        self.seed = seed
        self.capture = capture
        self.small = small
        self._refs = {}

    def _ref(self, key, make):
        """Reference values are computed once per input, outside the timing."""
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def _solve(self, call):
        """Run one solve; returns (result or None when it raised, seconds)."""
        self.capture.results.clear()
        t0 = clock()
        try:
            out = call()
        except Exception:  # a solve that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, clock() - t0
        return out, clock() - t0

    def _cli(self, argv, out):
        """One ``extragrad solve`` call in-process; None when it failed."""
        code, dt = self._solve(lambda: cli.main(argv))
        if code != 0 or not self.capture.results:
            if code is not None:
                print(f"{self.name}: exit code {code} for {argv}", file=sys.stderr)
            return None, dt
        res = self.capture.results[-1]
        return {"code": code, "summary": read_summary(out + ".summary.txt"),
                "out": res["out"], "phases": res["phases"],
                "seconds": res["seconds"]}, dt

    def run_round(self, normaliser):
        """Returns (normalised solve seconds, wall solve seconds, answers, attempted, failed).

        ``normaliser`` measures the machine's speed before the first solve,
        between solves at most once a second, and after the last solve.
        """
        times, answers, failed = [], [], 0
        normaliser.reset()
        normaliser.between(0, force=True)
        for answer, dt in self.solves():
            times.append(dt)
            if answer is None:
                failed += 1
            else:
                answers.append(answer)
            normaliser.between(len(times))
        if normaliser.marks[-1][0] != len(times):
            normaliser.between(len(times), force=True)
        return (sum(normaliser.scaled(times)), sum(times), answers,
                len(answers) + failed, failed)


# ---------------------------------------------------------------------------
# linf-reg: criterion 07's instances, solved uncertified through the library
# ---------------------------------------------------------------------------


class LinfReg(Workload):
    name = "linf-reg"

    def setup(self, rep_dir):
        self.count, self.tol = (2, 0.1) if self.small else (16, 0.07)
        self.cases = []
        for j in range(self.count):
            rng = make_rng(100 + self.count * self.seed + j)
            A = rng.standard_normal((10, 5))
            b = rng.standard_normal(10)
            self.cases.append((A, b, boxsimplex.linf_regression_reduction(A, b)))
        inst = self.cases[0][2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # budget of 10 runs out
            boxsimplex.solve_box_simplex(inst, self.tol * inst.op_norm, max_iters=10)

    def solves(self):
        for j, (_, _, inst) in enumerate(self.cases):
            eps = self.tol * inst.op_norm
            out, dt = self._solve(lambda: boxsimplex.solve_box_simplex(inst, eps))
            if out is None:
                yield None, dt
                continue
            x, y, gap, trace = out
            yield {"kind": "linf", "case": j, "x": x, "y": y, "gap": gap, "eps": eps,
                   "iterations": trace.summary["iterations"]}, dt

    def check(self, a):
        A0, b0, inst = self.cases[a["case"]]
        A = inst.A.toarray()
        v_star = self._ref(("game", a["case"]), lambda: checks.game_value_lp(A, inst.b, inst.c))
        ref = self._ref(("linf", a["case"]), lambda: checks.linf_value_lp(A0, b0))
        return (checks.check_game(A, inst.b, inst.c, v_star, a["x"], a["y"], a["gap"], a["eps"])
                + checks.check_linf(A0, b0, ref, a["x"], a["eps"] / 0.75))

    def perturbations(self, a):
        inst = self.cases[a["case"]][2]
        return _game_perturbations(a, inst.A.toarray(), inst.b, inst.c)


def _game_perturbations(a, A, b, c):
    x_out = a["x"].copy()
    x_out[0] = 1.5
    return [
        ("x outside the box", dict(a, x=x_out)),
        ("y off the simplex", dict(a, y=a["y"] * 1.01)),
        ("x at the worst box corner", dict(a, x=checks.worst_box_point(A, b, c))),
        ("reported gap off by eps/100", dict(a, gap=a["gap"] + 0.01 * a["eps"])),
    ]


# ---------------------------------------------------------------------------
# game-sparse-large: certified `extragrad solve` calls on two 2000 x 1500 games
# ---------------------------------------------------------------------------


class GameLarge(Workload):
    name = "game-sparse-large"
    games_per_round = 2  # two draws halve the variance that the seed adds to solve_s

    def setup(self, rep_dir):
        m, n, density, self.tol = (200, 150, 0.05, 0.1) if self.small else (2000, 1500, 0.01, 0.1)
        self.games = []
        for j in range(1 if self.small else self.games_per_round):
            inst = problems.gen_box_simplex(m, n, density, seed=self.games_per_round * self.seed + j)
            manifest = problems.save_instance(inst, os.path.join(rep_dir, f"game{j}.manifest"))
            self.games.append({"inst": inst, "manifest": manifest, "eps": self.tol * inst.op_norm})
        self.out = os.path.join(rep_dir, "solve")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # budget of 3 runs out
            cli.main(["solve", "--alg", "box-simplex", "--instance", self.games[0]["manifest"],
                      "--iters", "3", "--out", self.out, "--check"])

    def solves(self):
        for j, game in enumerate(self.games):
            argv = ["solve", "--alg", "box-simplex", "--instance", game["manifest"],
                    "--eps", repr(game["eps"]), "--out", self.out, "--check"]
            res, dt = self._cli(argv, self.out)
            if res is None:
                yield None, dt
                continue
            x, y, gap, trace = res["out"]
            yield {"kind": "game-cli", "case": j, "code": res["code"], "summary": res["summary"],
                   "x": x, "y": y, "gap": gap, "eps": game["eps"],
                   "iterations": trace.summary["iterations"]}, dt

    def _dense(self, j):
        return self._ref(("dense", j), self.games[j]["inst"].A.toarray)

    def check(self, a):
        inst = self.games[a["case"]]["inst"]
        A, b, c = self._dense(a["case"]), inst.b, inst.c
        v_star = self._ref(("game", a["case"]), lambda: checks.game_value_lp(inst.A, b, c))
        return (checks.check_cli(a["code"], a["summary"], certified=True)
                + checks.check_game(A, b, c, v_star, a["x"], a["y"], a["gap"], a["eps"]))

    def perturbations(self, a):
        inst = self.games[a["case"]]["inst"]
        return _game_perturbations(a, self._dense(a["case"]), inst.b, inst.c) + [
            ("exit code 2", dict(a, code=2)),
            ("stability_ok=0", dict(a, summary=dict(a["summary"], stability_ok="0"))),
            ("local_rl_ok=0", dict(a, summary=dict(a["summary"], local_rl_ok="0"))),
        ]


# ---------------------------------------------------------------------------
# smooth: eg-accel on dense quadratics and averaged eg-coord, via the CLI
# ---------------------------------------------------------------------------


class Smooth(Workload):
    name = "smooth"
    mu = 1.0  # strong convexity of every generated quadratic

    def setup(self, rep_dir):
        if self.small:
            n_dense, d, kappa, self.accel_phases = 2, 30, 100.0, 4
            d_coord, kappa_coord, self.coord_phases = 50, 200.0, 2
        else:
            n_dense, d, kappa, self.accel_phases = 10, 200, 1e4, 20
            d_coord, kappa_coord, self.coord_phases = 1000, 200.0, 3
        self.dense = []
        for j in range(n_dense):
            p = problems.gen_quadratic(d, self.mu, kappa * self.mu, diag=False,
                                       seed=100 * self.seed + j)
            self.dense.append(self._case(p, rep_dir, f"dense{j}", self.accel_phases))
        p = problems.gen_quadratic(d_coord, self.mu, kappa_coord * self.mu, diag=True,
                                   seed=100 * self.seed + 99)
        self.coord = self._case(p, rep_dir, "coord", self.coord_phases)
        self.out = os.path.join(rep_dir, "solve")
        case = self.dense[0]
        cli.main(["solve", "--alg", "eg-accel", "--instance", case["manifest"],
                  "--eps", repr(case["eps0"] / 2), "--eps0", repr(case["eps0"]),
                  "--out", self.out])

    @staticmethod
    def _case(p, rep_dir, stem, phases):
        """--eps0 is the exact initial error at x0 = 0 and --eps is 2^-phases of it."""
        x_star = checks.quad_minimizer(p.M, p.b)
        eps0 = checks.quad_error(p.M, x_star, np.zeros(p.d))
        return {"M": p.M, "x_star": x_star, "eps0": eps0, "eps": math.ldexp(eps0, -phases),
                "manifest": problems.save_instance(p, os.path.join(rep_dir, stem + ".manifest"))}

    def _argv(self, alg, case):
        return ["solve", "--alg", alg, "--instance", case["manifest"],
                "--eps", repr(case["eps"]), "--eps0", repr(case["eps0"]),
                "--seed", str(self.seed), "--out", self.out]

    def solves(self):
        for j, case in enumerate(self.dense):
            res, dt = self._cli(self._argv("eg-accel", case), self.out)
            yield (None if res is None else dict(res, kind="accel", case=j, x=res["out"])), dt
        res, dt = self._cli(self._argv("eg-coord", self.coord), self.out)
        if res is None:
            yield None, dt
            return
        x, info = res["out"]
        yield dict(res, kind="coord", x=x, info=info), dt

    def check(self, a):
        fails = checks.check_cli(a["code"], a["summary"], certified=False)
        if a["kind"] == "accel":
            case = self.dense[a["case"]]
            return fails + checks.check_accel(case["M"], case["x_star"], case["eps"],
                                              case["eps0"], a["x"], a["phases"])
        case, info = self.coord, a["info"]
        return fails + checks.check_coord(case["M"], self.mu, case["x_star"], case["eps"],
                                          case["eps0"], a["x"], info["queries"],
                                          info["inner_iterations"], info["phases"])

    def perturbations(self, a):
        case = self.dense[a["case"]] if a["kind"] == "accel" else self.coord
        out = [("x pushed to f - f* >= 2 eps",
                dict(a, x=checks.push_error(case["M"], case["x_star"], a["x"], case["eps"]))),
               ("exit code 2", dict(a, code=2))]
        if a["kind"] == "accel":
            stalled = case["x_star"] * 0.1  # x* + 0.9 (x0 - x*): error 0.81 eps0
            out += [("first phase keeps 81% of the error",
                     dict(a, phases=[stalled] + a["phases"][1:])),
                    ("last phase missing", dict(a, phases=a["phases"][:-1]))]
        else:
            info = a["info"]
            out += [("one query short", dict(a, info=dict(info, queries=info["queries"] - 1))),
                    ("one extra inner iteration",
                     dict(a, info=dict(info, inner_iterations=info["inner_iterations"] + 1,
                                       queries=info["queries"] + 2)))]
        return out


WORKLOADS = {w.name: w for w in (LinfReg, GameLarge, Smooth)}


def self_test(workload, answers):
    """Each checker accepts the program's answer and rejects every perturbation of it.

    Returns the failures: answers rejected, or perturbations accepted.
    """
    fails = []
    for a in answers:
        if workload.check(a):
            fails.append(f"{a['kind']}: the program's answer is rejected")
        for label, bad in workload.perturbations(a):
            if not workload.check(bad):
                fails.append(f"{a['kind']}: perturbation '{label}' is accepted")
    return fails
