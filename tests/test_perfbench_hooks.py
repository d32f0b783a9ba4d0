"""The benchmark's patch points: every name `perfbench` wraps must exist.

`perfbench/tracing.py` wraps library attributes by name
(`ImplicitIterate.refactor`, `cli.eg_coord_accel`, ...), so renaming or
deleting one breaks only traced benchmark runs unless checked here.
"""

import subprocess
import sys
from pathlib import Path

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


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
