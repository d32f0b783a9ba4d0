"""Self-test of the answer checks on small instances, in a few seconds.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs one small round of every workload through the same code as the
benchmark, then requires that each check accepts the program's answers and
rejects every perturbed answer.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import tracing
    import workloads

    patches = tracing.Patches()
    capture = workloads.Capture()
    capture.install(patches)
    normaliser = calibrate.Normaliser(calibrate.Reference())
    work = ROOT / ".perfbench-work" / "selftest"
    ok = True
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(seed=0, capture=capture, small=True)
            rep_dir = work / name
            rep_dir.mkdir(parents=True, exist_ok=True)
            workload.setup(str(rep_dir))
            _, _, answers, attempted, failed = workload.run_round(normaliser)
            fails = workloads.self_test(workload, answers)
            if failed:
                fails.append(f"{failed} of {attempted} solves failed")
            n_perturbed = sum(len(workload.perturbations(a)) for a in answers)
            print(f"{name}: {len(answers)} answers accepted, {n_perturbed} perturbations "
                  f"checked: {'PASS' if not fails else 'FAIL'}")
            for f in fails:
                print(f"  {f}")
            ok = ok and not fails
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
