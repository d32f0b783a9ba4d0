"""Command-line entry point: generate instances, run solvers, certify, benchmark.

Exit codes: 0 success, 2 iteration budget exhausted before the target,
3 a certificate failed or the run diverged (a non-finite iterate or duality
gap, or a point outside a regularizer's domain), 4 I/O or parse error, 64 usage
error, which covers any value a run cannot take, such as an --eps so small that a
count overflows, a quadratic whose L/mu or coordinate constant overflows, a dense one
whose L/mu is above ``KAPPA_MAX_DENSE``, or a minimax game whose lambda overflows
(64 from gen, 4 when loaded).  ``main`` alone maps errors to these codes.

``solve``, ``verify`` and ``bench`` each look up what they run in a table keyed
by (algorithm or check id, instance kind); a pair outside the table is a usage
error, and so is a flag that no id of the run reads.  The instance kinds are
``quadratic``, ``diagonal quadratic``, ``box-simplex`` and ``minimax``.

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
from functools import partial
from itertools import chain, islice
from types import SimpleNamespace

import numpy as np

from .core import (DomainError, Everywhere, Point, ProductSet, ScaledEuclidean,
                   ConjugateRegularizer, ProductRegularizer, vdot)
from .operators import lambda_fenchel, lambda_minimax
from .problems import (ParseError, QuadraticProblem, gen_box_simplex, gen_minimax,
                       gen_quadratic, save_instance, load_instance, write_manifest)
from .solvers import (NonFiniteIterateError, baseline_unaccelerated,
                      dual_extrapolation, eg_accel, eg_coord_accel,
                      general_norm_accel, mirror_prox, mirror_prox_sm, phase_length)
from .boxsimplex import solve_box_simplex
from . import verify as V

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_CERT = 3
EXIT_IO = 4
EXIT_USAGE = 64

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
# --iters of solve and bench, --seed
_count = _checked(int, lambda v: v >= 0, "zero or more")
# --samples, --iters of verify
_positive_count = _checked(int, lambda v: v >= 1, "one or more")


def _or(value, default):
    return default if value is None else value


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


# a name of its own, so that perfbench/tracing.py can time the summary writes
write_summary = write_manifest


def _cert(ok):
    return EXIT_OK if ok else EXIT_CERT


QUADRATICS = ("quadratic", "diagonal quadratic")
VI_KINDS = QUADRATICS + ("minimax",)


# argparse dests that every runner reads
READ_BY_ALL = ["command", "instance", "seed", "out"]


def _table(*rows):
    """{(id, kind): (runner, flags)} from (id, kinds, flags, runner) rows; ``flags``
    names the dests the runner reads besides READ_BY_ALL."""
    return {(ident, kind): (run, reads.split()) for ident, kinds, reads, run in rows
            for kind in kinds}


def _resolve(table, what, id_dest, args):
    """Load --instance and the runner of each id in ``args.<id_dest>`` for its kind.

    An id ``table`` lacks, or lacks for that kind, is a usage error, and so is a
    flag given that no id given reads.
    """
    idents = getattr(args, id_dest)
    idents = [idents] if isinstance(idents, str) else idents
    for ident in idents:
        if not any(i == ident for i, _ in table):
            known = ", ".join(dict.fromkeys(i for i, _ in table))
            raise UsageError(f"{what} {ident!r} is not one of {known}")
    reads = READ_BY_ALL + [id_dest] + [
        flag for (i, _), (_, flags) in table.items() if i in idents for flag in flags]
    unread = [dest for dest, value in vars(args).items()
              if value is not None and value is not False and dest not in reads]
    if "check" in unread:  # solve's --check switch
        raise UsageError(f"{what} {idents[0]} has no certificate to --check")
    if unread:
        flags = ", ".join("--lambda" if dest == "lam" else "--" + dest for dest in unread)
        raise UsageError(f"{flags} not read by {what} {', '.join(idents)}")
    problem = _load(args.instance)
    kind = "diagonal quadratic" if getattr(problem, "diag", False) else problem.kind
    for ident in idents:
        if (ident, kind) not in table:
            kinds = [k for i, k in table if i == ident]
            wanted = " or ".join([", ".join(kinds[:-1]), kinds[-1]] if len(kinds) > 1 else kinds)
            raise UsageError(f"{what} {ident} needs a {wanted} instance, not a {kind} one")
    return problem, [table[ident, kind][0] for ident in idents]


def _load(path):
    if path is None:
        raise UsageError("--instance is required for this command")
    return load_instance(path)


def _quadratic_vi(problem):
    return SimpleNamespace(
        g=problem.grad, r=ScaledEuclidean(1.0), z0=np.zeros(problem.d),
        u=problem.x_star, lam=problem.profile.L, mono=problem.profile.mu,
        dom=Everywhere(problem.d), error=problem.error)


def _minimax_vi(problem):
    n, m = problem.C.shape
    return SimpleNamespace(
        g=problem.operator,
        r=ProductRegularizer(ScaledEuclidean(problem.mu_x), ScaledEuclidean(problem.mu_y)),
        z0=Point(np.zeros(n), np.zeros(m)), u=problem.saddle_point(),
        lam=lambda_minimax(problem.profile), mono=1.0,
        dom=ProductSet(Everywhere(n), Everywhere(m)), error=None)


def _vi(problem):
    """Operator g, regularizer r, start z0, solution u, default --lambda and
    --mono, sampling domain, and f-error (None for a game) of ``problem``."""
    return {"quadratic": _quadratic_vi, "minimax": _minimax_vi}[problem.kind](problem)


def _fenchel_pair(problem: QuadraticProblem):
    """Explicit primal-dual pair (g, r) for min_x max_y <y,x> - f*(y) + mu/2|x|^2 form."""
    mu = problem.profile.mu

    def g(z: Point) -> Point:
        return Point(z.y, problem.grad_fstar(z.y) - z.x)

    r = ProductRegularizer(ScaledEuclidean(mu), ConjugateRegularizer(problem))
    return g, r


# gen: kind -> (generator, {parameter: (type, default)})
GEN = {
    "quadratic": (gen_quadratic, {
        "d": (_positive_count, 10), "mu": (_positive_float, 1.0),
        "L": (_positive_float, 10.0), "diag": (_count, 1)}),
    "box-simplex": (gen_box_simplex, {
        "m": (_positive_count, 50), "n": (_positive_count, 40),
        "density": (_positive_float, 0.5)}),
    "minimax": (gen_minimax, {
        "n": (_positive_count, 10), "m": (_positive_count, 10),
        "mu_x": (_positive_float, 1.0), "mu_y": (_positive_float, 1.0),
        "coupling": (_checked(float, np.isfinite, "finite"), 1.0)}),
}


def cmd_gen(args):
    generate, spec = GEN[args.kind]
    kwargs = {key: default for key, (_, default) in spec.items()}
    for kv in args.params:
        key, sep, text = kv.partition("=")
        if not sep or key not in spec:
            raise UsageError(f"generator parameters are key=value with key one of "
                             f"{', '.join(spec)}, got {kv!r}")
        try:
            kwargs[key] = spec[key][0](text)
        except argparse.ArgumentTypeError as e:
            raise UsageError(f"generator parameter {key}: {e}") from None
    problem = generate(**kwargs, seed=args.seed)
    out = args.out or (args.kind + ".manifest")
    save_instance(problem, out)
    print(out)
    return EXIT_OK


def _solve_vi(problem, args, dual):
    """mirror-prox or dual-ex; --check tests the regret certificate."""
    vi = _vi(problem)
    lam, T = _or(args.lam, vi.lam), _or(args.iters, 100)
    steps = (dual_extrapolation if dual else mirror_prox)(vi.g, vi.r, vi.z0, lam)
    rows, ws, cum, acc = [], [], 0.0, 0.0
    for t, (w, gw, _) in enumerate(islice(steps, T)):
        ws.append(w)
        cum += vdot(gw, w - vi.u)  # the regret against the solution, summed left to right
        rows.append({"iter": t, "cum_regret": cum})
        if vi.error is not None:  # f-error of the running average
            acc = acc + w
            rows[-1]["f_err"] = vi.error(acc / (t + 1))
    summary = {"lam": lam, "iters": T}
    if vi.error is None:
        summary["cum_regret"] = cum
    else:  # no step taken: the answer is z0, as for the baseline
        summary["final_f_err"] = rows[-1]["f_err"] if rows else vi.error(vi.z0)
    if args.check:
        ok, margin = V.check_regret_certificate(ws, vi.g, vi.r, lam, vi.z0, vi.u)
        summary.update(certificate_pass=ok, certificate_margin=margin)
    return rows, summary, _cert(not args.check or ok)


def _solve_mp_strong(problem, args):
    """--check tests the contraction V_{z_T}(z*) <= (1 + m/lam)^-T V_{z_0}(z*)."""
    vi = _vi(problem)
    lam, m, T = _or(args.lam, vi.lam), _or(args.mono, vi.mono), _or(args.iters, 100)
    steps = islice(mirror_prox_sm(vi.g, vi.r, vi.z0, lam, m), T)
    divs = [vi.r.divergence(z, vi.u) for z in chain([vi.z0], steps)]
    rows = [{"iter": t, "div_to_opt": dv} for t, dv in enumerate(divs)]
    summary = {"lam": lam, "m": m, "iters": T, "final_div_to_opt": divs[-1]}
    ok = divs[-1] <= (1.0 + m / lam) ** (-T) * divs[0] * (1.0 + 1e-9) + 1e-12
    if args.check:
        summary["certificate_pass"] = ok
    return rows, summary, _cert(not args.check or ok)


def _solve_baseline(problem, args):
    """Stops at the first mean iterate within --eps; 2 gradient queries per step.
    The bound is L |x0 - x*|^2 / (2T) at the T steps taken."""
    T = _or(args.iters, 1000)
    x0 = np.zeros(problem.d)
    _, f_errors = baseline_unaccelerated(problem, x0, T, eps=args.eps)
    rows = [{"iter": t, "f_err": fe} for t, fe in enumerate(f_errors)]
    n = len(f_errors)
    f_err = f_errors[-1] if n else problem.error(x0)
    dist2 = float(np.dot(x0 - problem.x_star, x0 - problem.x_star))
    summary = {"iters": T, "iterations": n, "queries": 2 * n, "final_f_err": f_err,
               "bound": problem.profile.L * dist2 / (2 * n) if n else np.inf}
    return rows, summary, EXIT_OK if args.eps is None or f_err <= args.eps else EXIT_BUDGET


def _accuracy(problem, x, eps, rows, summary):
    """An accelerated method's result: exit 2 unless f(x) - f* <= eps (a NaN misses)."""
    final = problem.error(x)
    summary.update(eps=eps, final_f_err=final)
    return rows, summary, EXIT_OK if final <= eps else EXIT_BUDGET


def _solve_eg_accel(problem, args):
    """2 gradient queries per step, after the 2 that bound eps0 when --eps0 is not given."""
    eps = _or(args.eps, 1e-6)
    errs = []
    x = eg_accel(problem, np.zeros(problem.d), eps, eps0=args.eps0,
                 collect=lambda k, xp: errs.append(problem.error(xp)))
    rows = [{"iter": k, "f_err": fe} for k, fe in enumerate(errs)]
    iterations = len(errs) * phase_length(lambda_fenchel(problem.profile))
    summary = {"phases": len(errs), "iterations": iterations,
               "queries": 2 * iterations + (2 if args.eps0 is None else 0)}
    return _accuracy(problem, x, eps, rows, summary)


def _solve_eg_gennorm(problem, args):
    eps = _or(args.eps, 1e-6)
    x = general_norm_accel(problem, ScaledEuclidean(problem.profile.mu), np.zeros(problem.d),
                           eps, T=args.iters)
    return _accuracy(problem, x, eps, [{"iter": 0, "f_err": problem.error(x)}], {})


def _solve_eg_coord(problem, args):
    eps = _or(args.eps, 1e-6)
    x, info = eg_coord_accel(problem, np.zeros(problem.d), eps, eps0=args.eps0,
                             seed=args.seed)
    summary = {"queries": info["queries"] + info["bound_queries"],
               "iterations": info["inner_iterations"], "phases": info["phases"]}
    return _accuracy(problem, x, eps, [{"iter": 0, "f_err": problem.error(x)}], summary)


BOX_SIMPLEX_FLAGS = ("stability_ok", "local_rl_ok", "gap_bound_ok")  # a certified solve's


def _solve_box_simplex(problem, args):
    """--check certifies stability and local relative Lipschitzness of the step at
    lam = 3 from every accepted step's point, and the gap bound that the steps prove."""
    eps = _or(args.eps, 1e-2 * max(problem.op_norm, 1.0))
    _, _, gap, trace = solve_box_simplex(problem, eps, max_iters=args.iters,
                                         certify=args.check)
    s = trace.summary
    rows = [{"iter": t, "gap": gp} for t, gp in enumerate(trace.gaps)]
    summary = {"eps": eps, "gap": gap, "answer": s["answer"], **{k: s[k] for k in (
        "iterations", "queries", "retries", "restarts", "lam_min", "budget", "prox_gap_sum",
        "prox_stalls")}}
    if args.check:
        summary.update((k, s[k]) for k in BOX_SIMPLEX_FLAGS)
        if not all(s[k] for k in BOX_SIMPLEX_FLAGS):
            return rows, summary, EXIT_CERT
    return rows, summary, EXIT_OK if gap <= eps else EXIT_BUDGET


# solve: runner(problem, args) -> (trace rows, summary entries, exit code);
# the runners that read --check certify their run
SOLVE = _table(
    ("mirror-prox", VI_KINDS, "lam iters check", partial(_solve_vi, dual=False)),
    ("dual-ex", VI_KINDS, "lam iters check", partial(_solve_vi, dual=True)),
    ("mp-strong", ("minimax",), "lam mono iters check", _solve_mp_strong),
    ("baseline", QUADRATICS, "eps iters", _solve_baseline),
    ("eg-accel", QUADRATICS, "eps eps0", _solve_eg_accel),
    ("eg-gennorm", QUADRATICS, "eps iters", _solve_eg_gennorm),
    ("eg-coord", ("diagonal quadratic",), "eps eps0", _solve_eg_coord),
    ("box-simplex", ("box-simplex",), "eps iters check", _solve_box_simplex),
)


def cmd_solve(args):
    problem, [run] = _resolve(SOLVE, "algorithm", "alg", args)
    out = args.out or args.alg
    start = time.perf_counter()
    rows, entries, code = run(problem, args)
    summary = {"algorithm": args.alg, "instance": args.instance, "seed": args.seed, **entries,
               "wall_ms_total": (time.perf_counter() - start) * 1e3, "exit_code": code}
    write_trace(out + ".trace.csv", rows)
    write_summary(out + ".summary.txt", summary)
    return code


def _report(rep, out, **entries):
    """Writes the report ``rep``; gives ``entries``, then its own, and the exit code."""
    rep.save(out + ".report.txt")
    return {**entries, "constant": rep.constant, "worst": rep.worst, "n_tested": rep.n_tested,
            "n_skipped": rep.n_skipped, "passed": rep.passed}, _cert(rep.passed)


def _sampled(args, out, check, g, r, constant, dom):
    """``check(g, r, constant, sampler)`` on --samples points; writes the report."""
    N = _or(args.samples, 1000)
    return _report(check(g, r, constant, V.TripleSampler(dom, N, args.seed)), out, samples=N)


def _sampled_vi(check, flag):
    """A runner sampling ``check`` on the VI's (g, r) at the constant --lambda or
    --mono gives (``flag`` "lam" or "mono"), by default the VI's."""
    def run(problem, args, out):
        vi = _vi(problem)
        constant = _or(getattr(args, flag), getattr(vi, flag))
        return _sampled(args, out, check, vi.g, vi.r, constant, vi.dom)
    return run


def _verify_rel_lip_fenchel(problem, args, out):
    """On a quadratic, rel-lip samples the Fenchel game that eg-accel runs on."""
    g, r = _fenchel_pair(problem)
    dom = ProductSet(Everywhere(problem.d), Everywhere(problem.d))
    lam = _or(args.lam, lambda_fenchel(problem.profile))
    return _sampled(args, out, V.check_relative_lipschitzness, g, r, lam, dom)


def _verify_regret(problem, args, out):
    vi = _vi(problem)
    lam, T = _or(args.lam, vi.lam), _or(args.iters, 100)
    ws = [w for w, _, _ in islice(mirror_prox(vi.g, vi.r, vi.z0, lam), T)]
    ok, margin = V.check_regret_certificate(ws, vi.g, vi.r, lam, vi.z0, vi.u)
    return {"lam": lam, "iters": T, "passed": ok, "margin": margin}, _cert(ok)


def _verify_estimator(problem, args, out):
    steps = _or(args.iters, 10)
    states = V.coord_trajectory(problem, np.zeros(problem.d), steps, seed=args.seed)
    rep = V.check_estimator_conditions(
        problem, states, (problem.x_star, problem.x_star), lam=args.lam)
    return _report(rep, out, identity_error=rep.details["worst_identity_error"])


def _verify_local_rl(problem, args, out):
    iters = _or(args.iters, 200)
    _, _, gap, trace = solve_box_simplex(problem, max(_or(args.eps, 0.0), 1e-300),
                                         max_iters=iters, certify=True)
    flags = {k: trace.summary[k] for k in BOX_SIMPLEX_FLAGS}
    ok = all(flags.values())
    return {"iters": iters, "gap": gap, **flags, "passed": ok}, _cert(ok)


# verify: runner(problem, args, out) -> (summary entries, exit code)
VERIFY = _table(
    ("rel-lip", QUADRATICS, "lam samples", _verify_rel_lip_fenchel),
    ("rel-lip", ("minimax",), "lam samples", _sampled_vi(V.check_relative_lipschitzness, "lam")),
    ("rel-smooth", QUADRATICS, "lam samples",
     _sampled_vi(V.check_relative_smoothness_implies, "lam")),
    ("strong-mono", VI_KINDS, "mono samples", _sampled_vi(V.check_strong_monotonicity, "mono")),
    ("regret", VI_KINDS, "lam iters", _verify_regret),
    ("estimator", ("diagonal quadratic",), "lam iters", _verify_estimator),
    ("local-rl", ("box-simplex",), "eps iters", _verify_local_rl),
)


def cmd_verify(args):
    problem, [run] = _resolve(VERIFY, "check", "check", args)
    out = args.out or ("verify-" + args.check)
    entries, code = run(problem, args, out)
    write_summary(out + ".summary.txt", {"check": args.check, "instance": args.instance,
                                         "seed": args.seed, **entries, "exit_code": code})
    return code


# bench: the solve runners whose summaries count iterations and queries
BENCH = {key: SOLVE[key] for key in SOLVE
         if key[0] in ("baseline", "eg-accel", "eg-coord", "box-simplex")}


def cmd_bench(args):
    problem, runs = _resolve(BENCH, "algorithm", "alg", args)
    results = []
    for alg, run in zip(args.alg, runs):
        start = time.perf_counter()
        _, summary, _ = run(problem, args)
        err = summary["gap"] if "gap" in summary else summary["final_f_err"]
        results.append((alg, summary["iterations"], summary["queries"], err,
                        (time.perf_counter() - start) * 1e3))
    with open((args.out or "bench") + ".csv", "w", newline="") as fh:
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
    p_gen.add_argument("kind", choices=tuple(GEN))
    p_gen.add_argument("params", nargs="*",
                       help="generator parameters as key=value")
    p_gen.add_argument("--seed", type=_count, default=0)
    p_gen.add_argument("--out")

    def common(p, with_alg, iters):
        if with_alg:
            p.add_argument("--alg", required=True)
        p.add_argument("--instance")
        p.add_argument("--eps", type=_positive_float)
        p.add_argument("--eps0", type=_positive_float)
        p.add_argument("--iters", type=iters)
        p.add_argument("--lambda", dest="lam", type=_positive_float)
        p.add_argument("--mono", type=_nonnegative_float)
        p.add_argument("--seed", type=_count, default=0)
        p.add_argument("--out")

    p_solve = sub.add_parser("solve", help="run a solver")
    common(p_solve, with_alg=True, iters=_count)
    p_solve.add_argument("--check", action="store_true",
                         help="also certify the produced trace")

    p_verify = sub.add_parser("verify", help="certify an inequality")
    common(p_verify, with_alg=False, iters=_positive_count)  # zero would certify nothing
    p_verify.add_argument("--check", required=True)
    p_verify.add_argument("--samples", type=_positive_count)

    p_bench = sub.add_parser("bench", help="compare algorithms on one instance")
    p_bench.add_argument("--alg", action="append", required=True)
    p_bench.add_argument("--instance")
    p_bench.add_argument("--eps", type=_positive_float)
    p_bench.add_argument("--iters", type=_count)
    p_bench.add_argument("--seed", type=_count, default=0)
    p_bench.add_argument("--out")
    p_bench.set_defaults(eps0=None, check=False)  # solve's, for the shared runners
    return parser


COMMANDS = {"gen": cmd_gen, "solve": cmd_solve, "verify": cmd_verify, "bench": cmd_bench}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # a non-finite value is reported once, by its check
            return COMMANDS[args.command](args)
    except (ParseError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (NonFiniteIterateError, DomainError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return EXIT_CERT
    except (UsageError, ValueError) as e:  # last: ParseError and DomainError are ValueErrors
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
