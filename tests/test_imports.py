"""Every name a library module imports is used in that module, every
module-level UPPER_CASE constant of a library module is read by some library
module, and every method of a library class is read by some library code.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extragrad"


def unused_imports(source):
    """Names bound by the import statements of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # an attribute chain such as np.linalg.solve starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_library_modules_use_every_import():
    probe = "import os\nimport numpy as np\nfrom dataclasses import dataclass, field\nnp.eye(1)\n"
    assert unused_imports(probe) == ["line 1: os", "line 3: dataclass", "line 3: field"]
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def module_constants(source):
    """UPPER_CASE names that the top level of ``source`` assigns."""
    names = {}
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                names[target.id] = node.lineno
    return names


def names_read(source):
    """Names that ``source`` loads, bare or as the attribute of a module."""
    tree = ast.parse(source)
    bare = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bare | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_library_module_constants_are_read():
    probe = "TOL = 1e-9\nUNUSED: float = 2.0\nlower = 3\nTOL_X = TOL\nnp.linalg.norm\n"
    assert module_constants(probe) == {"TOL": 1, "UNUSED": 2, "TOL_X": 4}
    assert names_read(probe) == {"float", "TOL", "np", "linalg", "norm"}
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert len(sources) > 1
    read = set().union(*(names_read(s) for s in sources.values()))
    unread = {name: [f"line {line}: {c}" for c, line in module_constants(s).items() if c not in read]
              for name, s in sources.items() if name != "__init__.py"}
    assert {name: consts for name, consts in unread.items() if consts} == {}


# methods that no library code reads, with the reason each stays
UNREAD_ON_PURPOSE = {
    "ImplicitIterate.refactor": "perfbench/tracing.py wraps it as the solvers.refactor span",
}


def class_methods(source):
    """{Class.method: line} for the methods the classes of ``source`` define, dunders left out."""
    return {f"{node.name}.{item.name}": item.lineno
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")}


def attributes_read(source):
    """Attribute names that ``source`` loads outside any function of the same name,
    so that a method calling its namesake on another object does not count."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr not in enclosing):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return read


def test_library_methods_are_read():
    probe = ("class A:\n"
             "    def __init__(self): self.used()\n"
             "    def used(self): pass\n"
             "    def unused(self): pass\n"
             "    def value(self): return self.b.value()\n"
             "    def other(self): self.unused = 1\n")
    assert class_methods(probe) == {"A.used": 3, "A.unused": 4, "A.value": 5, "A.other": 6}
    assert attributes_read(probe) == {"used", "b"}
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    read = set().union(*(attributes_read(s) for s in sources.values()))
    unread = {method: f"{name} line {line}" for name, s in sources.items()
              for method, line in class_methods(s).items() if method.split(".")[1] not in read}
    assert {m: where for m, where in unread.items() if m not in UNREAD_ON_PURPOSE} == {}
    # an exception whose method has gained a reader is stale
    assert set(UNREAD_ON_PURPOSE) <= set(unread)
