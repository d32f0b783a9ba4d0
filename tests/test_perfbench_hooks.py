"""The benchmark's patch points: every name `perfbench` wraps must exist.

`perfbench/tracing.py` wraps library attributes by name
(`ImplicitIterate.refactor`, `cli.eg_coord_accel`, ...), so renaming or
deleting one breaks only traced benchmark runs unless checked here.  The
gradient layer counts ``QuadraticProblem.grad`` calls, so an ``eg_accel`` step
must stay one call on its two stacked query rows, and the operator and gap
layers count box-simplex calls, which must match the solver's own counts.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracing_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from extragrad import cli, solvers

    originals = (cli.eg_coord_accel, solvers.ImplicitIterate.refactor)
    patches = tracing.Patches()
    try:
        tracing.install(patches, tracing.Tracer())
        assert cli.eg_coord_accel is not originals[0]
    finally:
        patches.restore()
    assert (cli.eg_coord_accel, solvers.ImplicitIterate.refactor) == originals


def test_traced_eg_accel_step_is_one_grad_call_on_two_rows(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from extragrad import cli, load_instance, problems
    from extragrad.operators import lambda_fenchel

    d = 12
    manifest = str(tmp_path / "q.manifest")
    assert cli.main(["gen", "quadratic", f"d={d}", "mu=1", "L=50", "diag=0",
                     "--out", manifest]) == 0
    shapes = []

    def record(grad):
        def wrapper(self, x):
            shapes.append(x.shape)
            return grad(self, x)
        return wrapper

    tracer, patches = tracing.Tracer(), tracing.Patches()
    out = str(tmp_path / "run")
    try:
        tracing.install(patches, tracer)
        patches.replace(problems.QuadraticProblem, "grad", record)
        assert cli.main(["solve", "--alg", "eg-accel", "--instance", manifest,
                         "--eps", "1e-6", "--eps0", "1e3", "--out", out]) == 0
    finally:
        patches.restore()
    with open(out + ".summary.txt") as fh:
        K = int(dict(line.rstrip("\n").split("=", 1) for line in fh)["phases"])
    T = 4 * int(np.ceil(lambda_fenchel(load_instance(manifest).profile)))
    assert K > 0 and tracer.calls["problems.grad"] == K * T == len(shapes)
    assert set(shapes) == {(2, d)}


def test_traced_box_simplex_solve_counts_its_own_operator_calls(monkeypatch, tmp_path):
    # the operator at z' is queried at the end of a step, where the stop and
    # restart tests read its gap; the layer counts must still match the solver's
    # own, and duality_gap runs at z0 and at each average whose running-sum gap
    # meets eps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from extragrad import boxsimplex, cli

    manifest = str(tmp_path / "g.manifest")
    assert cli.main(["gen", "box-simplex", "m=50", "n=40", "density=0.5",
                     "--seed", "3", "--out", manifest]) == 0
    traces = []

    def record(solve):
        def wrapper(*args, **kwargs):
            out = solve(*args, **kwargs)
            traces.append(out[3])
            return out
        return wrapper

    tracer, patches = tracing.Tracer(), tracing.Patches()
    out = str(tmp_path / "run")
    try:
        tracing.install(patches, tracer)
        patches.replace(cli, "solve_box_simplex", record)
        assert cli.main(["solve", "--alg", "box-simplex", "--instance", manifest,
                         "--eps", "0.05", "--check", "--out", out]) == 0
    finally:
        patches.restore()
    assert cli.solve_box_simplex is boxsimplex.solve_box_simplex
    (trace,) = traces
    s = trace.summary
    assert s["restarts"] > 0 and s["stability_ok"] and s["local_rl_ok"]
    assert s["iterations"] < s["budget"]
    assert tracer.calls["operators.operator"] == s["queries"]
    assert tracer.calls["boxsimplex.gap"] == 1 + sum(g <= 0.05 for g in trace.gaps)


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
