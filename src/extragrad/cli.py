"""Command-line entry point: generate instances, run solvers, certify, benchmark.

Exit codes: 0 success, 2 iteration budget exhausted before the target,
3 certificate failure, 4 I/O or parse error, 64 usage error.

Trace CSVs carry the fixed header ``iter,f_err,gap,div_to_opt,cum_regret,wall_ms``
with columns left empty when an algorithm does not produce them.  Per-row wall
times are deliberately left empty so that identical (flags, seed) pairs yield
byte-identical traces; the total wall time goes to the summary file instead.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import warnings

import numpy as np

from .core import (Everywhere, Point, ProductSet, ScaledEuclidean,
                   ConjugateRegularizer, ProductRegularizer)
from .operators import (BoxSimplexInstance, MinimaxInstance, lambda_fenchel,
                        lambda_minimax)
from .problems import (ParseError, QuadraticProblem, gen_box_simplex,
                       gen_minimax, gen_quadratic, save_instance, load_instance)
from .solvers import (baseline_unaccelerated, dual_extrapolation, eg_accel,
                      eg_coord_accel, general_norm_accel, mirror_prox,
                      mirror_prox_sm, EuclideanOmega)
from .boxsimplex import solve_box_simplex
from . import verify as V

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_CERT = 3
EXIT_IO = 4
EXIT_USAGE = 64

ALGORITHMS = ("mirror-prox", "dual-ex", "mp-strong", "baseline", "eg-accel",
              "eg-gennorm", "eg-coord", "box-simplex")
CHECKS = ("rel-lip", "rel-smooth", "strong-mono", "regret", "estimator", "local-rl")

TRACE_HEADER = ("iter", "f_err", "gap", "div_to_opt", "cum_regret", "wall_ms")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, rule):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""
    kind = "whole number" if convert is int else "number"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a {kind}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


# --eps, --eps0, --lambda
_positive_float = _checked(float, lambda v: np.isfinite(v) and v > 0, "positive and finite")
# --mono
_nonnegative_float = _checked(float, lambda v: np.isfinite(v) and v >= 0,
                              "finite and zero or more")
# --iters
_count = _checked(int, lambda v: v >= 0, "zero or more")
# --samples
_positive_count = _checked(int, lambda v: v >= 1, "one or more")


def _fmt(x):
    return "" if x is None else repr(float(x))


def write_trace(path, rows):
    """rows: iterable of dicts keyed by TRACE_HEADER names (missing -> empty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for row in rows:
            writer.writerow([
                row.get("iter", ""),
                _fmt(row.get("f_err")),
                _fmt(row.get("gap")),
                _fmt(row.get("div_to_opt")),
                _fmt(row.get("cum_regret")),
                _fmt(row.get("wall_ms")),
            ])


def write_summary(path, entries):
    with open(path, "w", newline="\n") as fh:
        for k, v in entries.items():
            if isinstance(v, (bool, np.bool_)):
                v = int(v)
            elif isinstance(v, (float, np.floating)):
                v = repr(float(v))
            elif isinstance(v, np.integer):
                v = int(v)
            fh.write(f"{k}={v}\n")


def _load(path):
    if path is None:
        raise UsageError("--instance is required for this command")
    return load_instance(path)


def _fenchel_pair(problem: QuadraticProblem):
    """Explicit primal-dual pair (g, r) for min_x max_y <y,x> - f*(y) + mu/2|x|^2 form."""
    oracle = problem.oracle
    mu = problem.profile.mu

    def g(z: Point) -> Point:
        return Point(z.y, oracle.grad_fstar(z.y) - z.x)

    r = ProductRegularizer(ScaledEuclidean(mu), ConjugateRegularizer(oracle))
    return g, r


def _minimax_pair(inst: MinimaxInstance):
    r = ProductRegularizer(ScaledEuclidean(inst.mu_x), ScaledEuclidean(inst.mu_y))
    return inst.operator, r


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args):
    params = {}
    for kv in args.params:
        if "=" not in kv:
            raise UsageError(f"generator parameter must be key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        params[k] = v
    out = args.out or (args.kind + ".manifest")
    if args.kind == "quadratic":
        problem = gen_quadratic(
            d=int(params.pop("d", 10)),
            mu=float(params.pop("mu", 1.0)),
            L=float(params.pop("L", 10.0)),
            diag=bool(int(params.pop("diag", 1))),
            seed=args.seed)
    elif args.kind == "box-simplex":
        problem = gen_box_simplex(
            m=int(params.pop("m", 50)),
            n=int(params.pop("n", 40)),
            density=float(params.pop("density", 0.5)),
            seed=args.seed)
    elif args.kind == "minimax":
        problem = gen_minimax(
            n=int(params.pop("n", 10)),
            m=int(params.pop("m", 10)),
            mu_x=float(params.pop("mu_x", 1.0)),
            mu_y=float(params.pop("mu_y", 1.0)),
            coupling=float(params.pop("coupling", 1.0)),
            seed=args.seed)
    else:
        raise UsageError(f"unknown instance kind {args.kind!r}")
    if params:
        raise UsageError(f"unknown generator parameters: {sorted(params)}")
    save_instance(problem, out)
    print(out)
    return EXIT_OK


def _solve_quadratic_mp(problem, args, dual):
    lam = args.lam if args.lam is not None else problem.profile.L
    T = args.iters if args.iters is not None else 100
    x0 = np.zeros(problem.d)
    g = problem.grad
    r = ScaledEuclidean(1.0)
    run = dual_extrapolation if dual else mirror_prox
    trace = run(g, r, x0, lam, T, u=problem.x_star)
    rows = []
    acc = np.zeros(problem.d)
    cum = 0.0
    for t, w in enumerate(trace.iterates):
        acc += w
        cum += trace.regrets[t]
        rows.append({"iter": t, "f_err": problem.error(acc / (t + 1)), "cum_regret": cum})
    return trace, rows, {"lam": lam, "iters": T}


def _solve_minimax_mp(inst, args, alg):
    g, r = _minimax_pair(inst)
    lam = args.lam if args.lam is not None else lambda_minimax(inst.profile)
    T = args.iters if args.iters is not None else 100
    z0 = Point(np.zeros(inst.C.shape[0]), np.zeros(inst.C.shape[1]))
    z_star = inst.saddle_point()
    if alg == "mp-strong":
        m = args.mono if args.mono is not None else 1.0
        trace = mirror_prox_sm(g, r, z0, lam, m, T, z_star=z_star)
        rows = [{"iter": t, "div_to_opt": dv}
                for t, dv in enumerate(trace.divs_to_opt)]
        return trace, rows, {"lam": lam, "m": m, "iters": T}
    run = dual_extrapolation if alg == "dual-ex" else mirror_prox
    trace = run(g, r, z0, lam, T, u=z_star)
    cum = 0.0
    rows = []
    for t, reg in enumerate(trace.regrets):
        cum += reg
        rows.append({"iter": t, "cum_regret": cum})
    return trace, rows, {"lam": lam, "iters": T}


def cmd_solve(args):
    problem = _load(args.instance)
    out = args.out or args.alg
    rows = []
    summary = {"algorithm": args.alg, "instance": args.instance, "seed": args.seed}
    code = EXIT_OK
    start = time.perf_counter()

    if args.alg in ("mirror-prox", "dual-ex", "mp-strong"):
        if isinstance(problem, QuadraticProblem):
            if args.alg == "mp-strong":
                raise UsageError("mp-strong needs a minimax instance")
            trace, rows, cfg = _solve_quadratic_mp(problem, args, args.alg == "dual-ex")
            summary.update(cfg)
            # no step taken: the answer is x0, as for the baseline
            summary["final_f_err"] = rows[-1]["f_err"] if rows else problem.error(
                np.zeros(problem.d))
            if args.check:
                g = problem.grad
                r = ScaledEuclidean(1.0)
                ok, margin = V.check_regret_certificate(
                    trace, g, r, cfg["lam"], np.zeros(problem.d), problem.x_star)
                summary["certificate_pass"] = ok
                summary["certificate_margin"] = margin
                if not ok:
                    code = EXIT_CERT
        elif isinstance(problem, MinimaxInstance):
            trace, rows, cfg = _solve_minimax_mp(problem, args, args.alg)
            summary.update(cfg)
            if args.alg == "mp-strong":
                summary["final_div_to_opt"] = trace.divs_to_opt[-1]
                if args.check:
                    rate = (1.0 + cfg["m"] / cfg["lam"]) ** (-cfg["iters"])
                    bound = rate * trace.divs_to_opt[0]
                    ok = trace.divs_to_opt[-1] <= bound * (1.0 + 1e-9) + 1e-12
                    summary["certificate_pass"] = ok
                    if not ok:
                        code = EXIT_CERT
            else:
                summary["cum_regret"] = trace.cum_regret()
                if args.check:
                    g, r = _minimax_pair(problem)
                    z0 = Point(np.zeros(problem.C.shape[0]), np.zeros(problem.C.shape[1]))
                    ok, margin = V.check_regret_certificate(
                        trace, g, r, cfg["lam"], z0, problem.saddle_point())
                    summary["certificate_pass"] = ok
                    summary["certificate_margin"] = margin
                    if not ok:
                        code = EXIT_CERT
        else:
            raise UsageError(f"{args.alg} does not apply to {problem.kind if hasattr(problem, 'kind') else type(problem).__name__}")

    elif args.alg == "baseline":
        if not isinstance(problem, QuadraticProblem):
            raise UsageError("baseline needs a quadratic instance")
        T = args.iters if args.iters is not None else 1000
        trace = baseline_unaccelerated(problem, np.zeros(problem.d), T)
        rows = [{"iter": t, "f_err": fe} for t, fe in enumerate(trace.f_errors)]
        summary.update({"iters": T, "final_f_err": trace.summary["f_err"],
                        "bound": trace.summary["bound"]})
        if args.eps is not None and trace.summary["f_err"] > args.eps:
            code = EXIT_BUDGET

    elif args.alg in ("eg-accel", "eg-gennorm", "eg-coord"):
        if not isinstance(problem, QuadraticProblem):
            raise UsageError(f"{args.alg} needs a quadratic instance")
        eps = args.eps if args.eps is not None else 1e-6
        x0 = np.zeros(problem.d)
        if args.alg == "eg-accel":
            phase_errs = []

            def collect(k, xp):
                phase_errs.append(problem.error(xp))

            x = eg_accel(problem, x0, eps, eps0=args.eps0, collect=collect)
            rows = [{"iter": k, "f_err": fe} for k, fe in enumerate(phase_errs)]
            summary["phases"] = len(phase_errs)
        elif args.alg == "eg-gennorm":
            x = general_norm_accel(problem, EuclideanOmega(), x0, eps, T=args.iters)
            rows = [{"iter": 0, "f_err": problem.error(x)}]
        else:
            if not problem.diag:
                raise UsageError("eg-coord needs a diagonal quadratic instance")
            x, info = eg_coord_accel(problem, x0, eps, eps0=args.eps0,
                                     seed=args.seed, average_phases=True)
            summary.update({"queries": info["queries"],
                            "inner_iterations": info["inner_iterations"],
                            "phases": info["phases"]})
            rows = [{"iter": 0, "f_err": problem.error(x)}]
        final = problem.error(x)
        summary["eps"] = eps
        summary["final_f_err"] = final
        if final > eps:
            code = EXIT_BUDGET

    elif args.alg == "box-simplex":
        if not isinstance(problem, BoxSimplexInstance):
            raise UsageError("box-simplex needs a box-simplex instance")
        eps = args.eps if args.eps is not None else 1e-2 * max(problem.op_norm, 1.0)
        x, y, gap, trace = solve_box_simplex(
            problem, eps, max_iters=args.iters, certify=args.check is not None)
        rows = [{"iter": t, "gap": gp} for t, gp in enumerate(trace.gaps)]
        summary.update({"eps": eps, "gap": gap,
                        "iterations": trace.summary["iterations"],
                        "budget": trace.summary["budget"],
                        "prox_gap_sum": trace.summary["prox_gap_sum"]})
        if args.check is not None:
            ok = trace.summary["stability_ok"] and trace.summary["local_rl_ok"]
            summary["stability_ok"] = trace.summary["stability_ok"]
            summary["local_rl_ok"] = trace.summary["local_rl_ok"]
            if not ok:
                code = EXIT_CERT
        if gap > eps and code == EXIT_OK:
            code = EXIT_BUDGET
    else:
        raise UsageError(f"unknown algorithm id {args.alg!r}")

    summary["wall_ms_total"] = (time.perf_counter() - start) * 1e3
    summary["exit_code"] = code
    write_trace(out + ".trace.csv", rows)
    write_summary(out + ".summary.txt", summary)
    return code


def cmd_verify(args):
    problem = _load(args.instance)
    out = args.out or ("verify-" + args.check)
    N = args.samples if args.samples is not None else 1000
    code = EXIT_OK
    summary = {"check": args.check, "instance": args.instance, "seed": args.seed}

    if args.check in ("rel-lip", "rel-smooth", "strong-mono"):
        summary["samples"] = N
        if isinstance(problem, QuadraticProblem):
            d = problem.d
            if args.check == "rel-lip":
                g, r = _fenchel_pair(problem)
                lam = args.lam if args.lam is not None else lambda_fenchel(problem.profile)
                dom = ProductSet(Everywhere(d), Everywhere(d))
                sampler = V.TripleSampler(dom, N, args.seed)
                rep = V.check_relative_lipschitzness(g, r, lam, sampler)
            elif args.check == "rel-smooth":
                L = args.lam if args.lam is not None else problem.profile.L
                sampler = V.TripleSampler(Everywhere(d), N, args.seed)
                rep = V.check_relative_smoothness_implies(
                    problem.grad, ScaledEuclidean(1.0), L, sampler)
            else:
                m = args.mono if args.mono is not None else problem.profile.mu
                sampler = V.TripleSampler(Everywhere(d), N, args.seed)
                rep = V.check_strong_monotonicity(
                    problem.grad, ScaledEuclidean(1.0), m, sampler)
        elif isinstance(problem, MinimaxInstance):
            g, r = _minimax_pair(problem)
            n, m_dim = problem.C.shape
            dom = ProductSet(Everywhere(n), Everywhere(m_dim))
            sampler = V.TripleSampler(dom, N, args.seed)
            if args.check == "strong-mono":
                m = args.mono if args.mono is not None else 1.0
                rep = V.check_strong_monotonicity(g, r, m, sampler)
            else:
                lam = args.lam if args.lam is not None else lambda_minimax(problem.profile)
                rep = V.check_relative_lipschitzness(g, r, lam, sampler)
        else:
            raise UsageError(f"{args.check} is not defined for this instance kind")
        summary.update({"constant": rep.constant, "worst": rep.worst,
                        "n_tested": rep.n_tested, "passed": rep.passed})
        rep.save(out + ".report.txt")
        if not rep.passed:
            code = EXIT_CERT

    elif args.check == "regret":
        if isinstance(problem, MinimaxInstance):
            g, r = _minimax_pair(problem)
            lam = args.lam if args.lam is not None else lambda_minimax(problem.profile)
            z0 = Point(np.zeros(problem.C.shape[0]), np.zeros(problem.C.shape[1]))
            u = problem.saddle_point()
        elif isinstance(problem, QuadraticProblem):
            g, r = problem.grad, ScaledEuclidean(1.0)
            lam = args.lam if args.lam is not None else problem.profile.L
            z0 = np.zeros(problem.d)
            u = problem.x_star
        else:
            raise UsageError("regret check needs a quadratic or minimax instance")
        T = args.iters if args.iters is not None else 100
        trace = mirror_prox(g, r, z0, lam, T, u=u)
        ok, margin = V.check_regret_certificate(trace, g, r, lam, z0, u)
        summary.update({"lam": lam, "iters": T, "passed": ok, "margin": margin})
        if not ok:
            code = EXIT_CERT

    elif args.check == "estimator":
        if not (isinstance(problem, QuadraticProblem) and problem.diag):
            raise UsageError("estimator check needs a diagonal quadratic instance")
        steps = args.iters if args.iters is not None else 10
        if steps < 1:
            raise UsageError("estimator check needs --iters of one or more")
        states = V.coord_trajectory(problem, np.zeros(problem.d), steps, seed=args.seed)
        try:
            rep = V.check_estimator_conditions(
                problem, states, (problem.x_star, problem.x_star), lam=args.lam)
        except ValueError as e:
            raise UsageError(str(e)) from None
        summary.update({"constant": rep.constant, "worst": rep.worst,
                        "identity_error": rep.details["worst_identity_error"],
                        "passed": rep.passed})
        rep.save(out + ".report.txt")
        if not rep.passed:
            code = EXIT_CERT

    elif args.check == "local-rl":
        if not isinstance(problem, BoxSimplexInstance):
            raise UsageError("local-rl check needs a box-simplex instance")
        iters = args.iters if args.iters is not None else 200
        eps = args.eps if args.eps is not None else 0.0  # run the full budget
        with warnings.catch_warnings():
            if args.eps is None:  # exhausting the budget is the point here
                warnings.simplefilter("ignore", RuntimeWarning)
            _, _, gap, trace = solve_box_simplex(problem, max(eps, 1e-300),
                                                 max_iters=iters, certify=True)
        ok = trace.summary["stability_ok"] and trace.summary["local_rl_ok"]
        summary.update({"iters": iters, "gap": gap,
                        "stability_ok": trace.summary["stability_ok"],
                        "local_rl_ok": trace.summary["local_rl_ok"],
                        "passed": ok})
        if not ok:
            code = EXIT_CERT
    else:
        raise UsageError(f"unknown check id {args.check!r}")

    summary["exit_code"] = code
    write_summary(out + ".summary.txt", summary)
    return code


def cmd_bench(args):
    problem = _load(args.instance)
    out = args.out or "bench"
    results = []
    for alg in args.alg:
        if alg not in ALGORITHMS:
            raise UsageError(f"unknown algorithm id {alg!r}")
        start = time.perf_counter()
        if alg == "baseline":
            if not isinstance(problem, QuadraticProblem):
                raise UsageError("baseline needs a quadratic instance")
            eps = args.eps if args.eps is not None else 1e-2
            T = args.iters if args.iters is not None else 100000
            trace = baseline_unaccelerated(problem, np.zeros(problem.d), T, eps=eps)
            it = trace.summary["iterations"]
            results.append((alg, it, 2 * it, trace.summary["f_err"],
                            (time.perf_counter() - start) * 1e3))
        elif alg == "eg-accel":
            eps = args.eps if args.eps is not None else 1e-6
            counter = {"n": 0}
            true_grad = problem.grad

            class _Counting:
                profile = problem.profile

                @staticmethod
                def f(x):
                    return problem.f(x)

                @staticmethod
                def grad(x):
                    counter["n"] += 1
                    return true_grad(x)

                @staticmethod
                def error(x):
                    return problem.error(x)

            x = eg_accel(_Counting, np.zeros(problem.d), eps)
            # 2 gradient queries per inner iteration
            inner = (counter["n"] - 2) // 2  # minus the eps0 estimate queries
            results.append((alg, inner, counter["n"], problem.error(x),
                            (time.perf_counter() - start) * 1e3))
        elif alg == "eg-coord":
            eps = args.eps if args.eps is not None else 1e-6
            x, info = eg_coord_accel(problem, np.zeros(problem.d), eps,
                                     seed=args.seed, average_phases=True)
            results.append((alg, info["inner_iterations"], info["queries"],
                            problem.error(x), (time.perf_counter() - start) * 1e3))
        elif alg == "box-simplex":
            eps = args.eps if args.eps is not None else 1e-2 * max(problem.op_norm, 1.0)
            _, _, gap, trace = solve_box_simplex(problem, eps, max_iters=args.iters)
            results.append((alg, trace.summary["iterations"],
                            2 * trace.summary["iterations"], gap,
                            (time.perf_counter() - start) * 1e3))
        else:
            raise UsageError(f"bench does not support {alg!r}")
    with open(out + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alg", "iterations", "queries", "final_err", "wall_ms"])
        for alg, iters, queries, err, ms in results:
            writer.writerow([alg, iters, queries, repr(float(err)), repr(float(ms))])
    for alg, iters, queries, err, ms in results:
        print(f"{alg}: iters={iters} queries={queries} err={err:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="extragrad",
                     description="Extragradient solvers and certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("kind", choices=("quadratic", "box-simplex", "minimax"))
    p_gen.add_argument("params", nargs="*",
                       help="generator parameters as key=value")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out")

    def common(p, with_alg):
        if with_alg:
            p.add_argument("--alg", required=True)
        p.add_argument("--instance")
        p.add_argument("--eps", type=_positive_float)
        p.add_argument("--eps0", type=_positive_float)
        p.add_argument("--iters", type=_count)
        p.add_argument("--lambda", dest="lam", type=_positive_float)
        p.add_argument("--mono", type=_nonnegative_float)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")

    p_solve = sub.add_parser("solve", help="run a solver")
    common(p_solve, with_alg=True)
    p_solve.add_argument("--check", nargs="?", const="trace",
                         help="also certify the produced trace")

    p_verify = sub.add_parser("verify", help="certify an inequality")
    common(p_verify, with_alg=False)
    p_verify.add_argument("--check", required=True)
    p_verify.add_argument("--samples", type=_positive_count)

    p_bench = sub.add_parser("bench", help="compare algorithms on one instance")
    p_bench.add_argument("--alg", action="append", required=True)
    p_bench.add_argument("--instance")
    p_bench.add_argument("--eps", type=_positive_float)
    p_bench.add_argument("--iters", type=_count)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "alg", None) is not None and args.command == "solve":
            if args.alg not in ALGORITHMS:
                raise UsageError(f"unknown algorithm id {args.alg!r}")
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bench":
            return cmd_bench(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
