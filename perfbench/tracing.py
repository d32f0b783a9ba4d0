"""Per-layer spans recorded from outside the library.

Every span is a wrapper put in place of a module or class attribute, at the
name the caller looks up (``extragrad.cli.load_instance``,
``ShermanRegularizer.prox``, ...).  ``Patches.restore`` puts the originals
back, so the same process can run untraced and traced rounds.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Call counts, inclusive time and time spent in child spans, per span name.

    A span's self time is its inclusive time minus the inclusive time of the
    spans opened directly inside it.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []

    def reset(self):
        for d in (self.calls, self.total, self.child, self.counters):
            d.clear()

    def snapshot(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "child": dict(self.child), "counters": dict(self.counters)}

    def span(self, name, after=None):
        """Decorator factory for ``Patches.replace``; ``after(args)`` runs on return."""
        calls, total, child, stack = self.calls, self.total, self.child, self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    child[name] += stack.pop()
                    calls[name] += 1
                    total[name] += dur
                    if stack:
                        stack[-1] += dur
                    if after is not None:
                        after(args)
            return wrapper
        return make


def install(patches: Patches, tracer: Tracer):
    """Wrap the public functions of each layer where their callers find them."""
    from extragrad import boxsimplex, cli, operators, problems, solvers

    def count_prox_rounds(args):
        tracer.counters["prox_rounds"] += args[0].last_rounds

    points = [
        (boxsimplex, "solve_box_simplex", "boxsimplex.solve", None),
        (cli, "solve_box_simplex", "boxsimplex.solve", None),
        (boxsimplex, "duality_gap", "boxsimplex.gap", None),
        (boxsimplex.ShermanRegularizer, "prox", "boxsimplex.prox", count_prox_rounds),
        (boxsimplex.ShermanRegularizer, "divergence", "boxsimplex.divergence", None),
        (operators.BoxSimplexInstance, "operator", "operators.operator", None),
        (operators.BoxSimplexInstance, "__init__", "operators.instance_build", None),
        (operators.AliasTable, "draw", "operators.alias_draw", None),
        (problems, "gen_box_simplex", "problems.gen", None),
        (problems, "gen_quadratic", "problems.gen", None),
        (problems, "save_instance", "problems.save", None),
        (cli, "load_instance", "problems.load", None),
        (problems.QuadraticProblem, "grad", "problems.grad", None),
        (problems.QuadraticProblem, "partial_at", "problems.partial", None),
        (cli, "eg_accel", "solvers.eg_accel", None),
        (cli, "eg_coord_accel", "solvers.eg_coord", None),
        (solvers.ImplicitIterate, "reconstruct", "solvers.reconstruct", None),
        (solvers.ImplicitIterate, "refactor", "solvers.refactor", None),
        (cli, "write_trace", "cli.write", None),
        (cli, "write_summary", "cli.write", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, after in points:
        patches.replace(owner, attr, tracer.span(name, after))
