"""Time to a checked answer, end to end and per layer, for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload linf-reg --seed 0 --seconds 30 --trace 0

The process imports ``extragrad`` from ``src/`` of the checkout it sits in,
sets the inputs up several times, then repeats whole rounds of the
workload's solves while each is expected to end within ``--seconds``.
Times are scaled by a reference computation measured between solves
(``calibrate.py``).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it spends half the time on untraced rounds and half on
traced ones and prints the per-layer metrics.
Every answer is checked after the timing.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread of control: no BLAS worker threads, before numpy is loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 3

clock = time.perf_counter
median = statistics.median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine():
    import numpy
    import scipy
    import extragrad

    digest = hashlib.sha256()
    for path in sorted((SRC / "extragrad").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "USING_NUMBA": bool(extragrad.USING_NUMBA),
            "git_commit": git_commit(), "src_sha256": digest.hexdigest()}


def measure(workload, tracer, normaliser, seconds):
    """Whole rounds while the next one is expected to end within ``seconds``; at least one."""
    rounds = []
    start = clock()
    longest = 0.0
    while True:
        tracer.reset()
        t0 = clock()
        solve_s, wall_s, answers, attempted, failed = workload.run_round(normaliser)
        longest = max(longest, clock() - t0)
        rounds.append({"solve_s": solve_s, "wall_s": wall_s, "answers": answers,
                       "attempted": attempted, "failed": failed, "stats": tracer.snapshot(),
                       "reference_s": normaliser.speed()})
        if clock() - start + longest > seconds:
            return rounds


def layer_metrics(untraced, traced, setup_stats, cpu_s):
    """Per-layer figures of one round: counts from the first traced round, times as medians."""
    first = traced[0]["stats"]
    if any(r["stats"]["calls"] != first["calls"] for r in traced):
        print("warning: call counts differ between traced rounds", file=sys.stderr)

    def n(name):
        return first["calls"].get(name, 0)

    def t(name):
        return median(r["stats"]["total"].get(name, 0.0) for r in traced)

    def self_t(name):
        return median(r["stats"]["total"].get(name, 0.0) - r["stats"]["child"].get(name, 0.0)
                      for r in traced)

    def setup_t(name):
        return median(s["total"].get(name, 0.0) for s in setup_stats)

    def per(total, count):
        return 1e6 * total / count if count else 0.0

    solve_u = median(r["solve_s"] for r in untraced)
    solve_t = median(r["solve_s"] for r in traced)
    answers = traced[0]["answers"]
    iterations = sum(a["iterations"] for a in answers if a["kind"] in ("linf", "game-cli"))
    coord = [a["info"] for a in answers if a["kind"] == "coord"]
    inner = sum(i["inner_iterations"] for i in coord)
    coord_s = median(sum(a["seconds"] for a in r["answers"] if a["kind"] == "coord")
                     for r in untraced)
    prox_rounds = first["counters"].get("prox_rounds", 0)
    wall_u = median(r["wall_s"] for r in untraced)
    reference_s = median(r["reference_s"] for r in untraced + traced)
    return {
        "boxsimplex.iterations": (iterations, "count"),
        "boxsimplex.us_per_iter": (per(solve_u, iterations), "us"),
        "boxsimplex.prox_calls": (n("boxsimplex.prox"), "count"),
        "boxsimplex.prox_rounds": (prox_rounds, "count"),
        "boxsimplex.prox_s": (t("boxsimplex.prox"), "s"),
        "boxsimplex.prox_us_per_round": (per(t("boxsimplex.prox"), prox_rounds), "us"),
        "boxsimplex.gap_calls": (n("boxsimplex.gap"), "count"),
        "boxsimplex.gap_s": (t("boxsimplex.gap"), "s"),
        "boxsimplex.divergence_calls": (n("boxsimplex.divergence"), "count"),
        "boxsimplex.divergence_s": (t("boxsimplex.divergence"), "s"),
        "boxsimplex.loop_self_s": (self_t("boxsimplex.solve"), "s"),
        "operators.operator_calls": (n("operators.operator"), "count"),
        "operators.operator_s": (t("operators.operator"), "s"),
        "operators.instance_build_s": (setup_t("operators.instance_build")
                                       + t("operators.instance_build"), "s"),
        "operators.alias_draws": (n("operators.alias_draw"), "count"),
        "operators.alias_draw_s": (t("operators.alias_draw"), "s"),
        "problems.gen_s": (setup_t("problems.gen"), "s"),
        "problems.save_s": (setup_t("problems.save"), "s"),
        "problems.load_s": (t("problems.load"), "s"),
        "problems.grad_calls": (n("problems.grad"), "count"),
        "problems.grad_s": (t("problems.grad"), "s"),
        "problems.partial_calls": (n("problems.partial"), "count"),
        "problems.partial_s": (t("problems.partial"), "s"),
        "solvers.inner_iterations": (inner, "count"),
        "solvers.queries": (sum(i["queries"] for i in coord), "count"),
        "solvers.us_per_inner_iter": (per(coord_s, inner), "us"),
        "solvers.reconstruct_calls": (n("solvers.reconstruct"), "count"),
        "solvers.reconstruct_s": (t("solvers.reconstruct"), "s"),
        "solvers.refactors": (n("solvers.refactor"), "count"),
        "cli.self_s": (self_t("cli.main"), "s"),
        "cli.write_s": (t("cli.write"), "s"),
        "process.cpu_s": (cpu_s, "s"),
        "process.solve_wall_s": (wall_u, "s"),
        "process.reference_s": (reference_s, "s"),
        "trace.overhead_s": (solve_t - solve_u, "s"),
    }


def run(args, work_dir):
    t0 = clock()
    import numpy  # noqa: F401  the program's own imports count as set-up
    import scipy.sparse  # noqa: F401
    import extragrad
    import extragrad.cli  # noqa: F401
    import tracing
    import workloads
    import_s = clock() - t0
    import calibrate
    if Path(extragrad.__file__).resolve().parent != SRC / "extragrad":
        raise SystemExit(f"extragrad was imported from {extragrad.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"machine": machine()}))

    capture_patches, trace_patches = tracing.Patches(), tracing.Patches()
    tracer = tracing.Tracer()
    capture = workloads.Capture()
    capture.install(capture_patches)
    workload = workloads.WORKLOADS[args.workload](args.seed, capture)
    normaliser = calibrate.Normaliser(calibrate.Reference())
    normaliser.between(0, force=True)
    try:
        if args.trace:
            tracing.install(trace_patches, tracer)
        setup_times, setup_stats = [], []
        for k in range(SETUP_REPS):
            rep_dir = work_dir / f"setup{k}"
            rep_dir.mkdir(parents=True)
            tracer.reset()
            t0 = clock()
            workload.setup(str(rep_dir))
            setup_times.append(clock() - t0)
            setup_stats.append(tracer.snapshot())
            normaliser.between(k + 1, force=True)
        setup_s = (import_s * calibrate.REFERENCE_S / normaliser.marks[0][1]
                   + median(normaliser.scaled(setup_times)))
        if args.trace:
            trace_patches.restore()
            untraced = measure(workload, tracer, normaliser, args.seconds / 2)
            tracing.install(trace_patches, tracer)
            traced = measure(workload, tracer, normaliser, args.seconds / 2)
        else:
            untraced, traced = measure(workload, tracer, normaliser, args.seconds), []
    finally:
        trace_patches.restore()
        capture_patches.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    cpu_s = usage.ru_utime + usage.ru_stime

    rounds = untraced + traced
    print("round solve_s: " + " ".join(f"{r['solve_s']:.3f}" for r in rounds)
          + "; wall: " + " ".join(f"{r['wall_s']:.3f}" for r in rounds)
          + "; reference: " + " ".join(f"{r['reference_s']:.4f}" for r in rounds), file=sys.stderr)
    correct = True
    for r in rounds:
        for a in r["answers"]:
            fails = workload.check(a)
            if fails:
                correct = False
                print(f"check failed ({a['kind']}): {'; '.join(fails)}", file=sys.stderr)
    fails = workloads.self_test(workload, rounds[0]["answers"])
    if fails:
        correct = False
        print("checker self-test failed: " + "; ".join(fails), file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(untraced, traced, setup_stats, cpu_s)
        kind = "per_layer"
    else:
        metrics = {"solve_s": (median(r["solve_s"] for r in untraced), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        kind = "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    declared = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise SystemExit(f"metrics {got} do not match BENCHMARK.json {kind} {declared}")
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "extragrad" / "__init__.py").is_file():
        print(f"no extragrad sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 64
    sys.path.insert(0, str(SRC))
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
