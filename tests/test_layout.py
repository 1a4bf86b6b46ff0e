"""Every function, class and method in src/mitmscan is used by src/mitmscan, and
every per-layer key the benchmark reads names one."""

import ast
import dataclasses
import importlib
import re
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mitmscan"

# Names no module refers to, each kept for a reason the code cannot show.
KEPT = {
    "detection_rates": "R_app and R_TLS, to be reported against the scan's truth",
    "coverage_rates": "C_UI and C_TLS, to be reported against the scan's truth",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """Top-level functions and classes, and the methods of each class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, DEFINITIONS))


def _references(node):
    """Every name, attribute and imported name under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_no_code_only_tests_use():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in _references(tree))
    unused = {}
    for module, tree in trees.items():
        for node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by the interpreter
            # References inside a definition, a recursive call say, are not uses.
            if everywhere[node.name] == Counter(_references(node))[node.name]:
                unused[node.name] = f"{module}:{node.lineno}"
    assert {name: at for name, at in unused.items() if name not in KEPT} == {}
    assert set(unused) == set(KEPT), "a KEPT name is used now, or gone"


def _traced(key: str) -> bool:
    """Whether perfbench's tracer wraps the function ``key`` names: a public function
    defined in its module, or a public method (or ``__init__`` of a class that is not a
    dataclass) in its own class's ``__dict__``."""
    module_name, *path = key.split(".")
    module = importlib.import_module(f"mitmscan.{module_name}")
    *owner, name = path
    if name.startswith("_") and name != "__init__":
        return False
    if not owner:
        fn = vars(module).get(name)
        return isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
    cls = vars(module).get(owner[0])
    return (
        len(owner) == 1
        and isinstance(cls, type)
        and cls.__module__ == module.__name__
        and isinstance(vars(cls).get(name), (types.FunctionType, classmethod, staticmethod))
        and not (name == "__init__" and dataclasses.is_dataclass(cls))
    )


def test_every_benchmark_layer_key_names_a_traced_function():
    """A key that names no wrapped function reads 0 with no error, say after a method
    moves into a base class."""
    text = (ROOT / "perfbench" / "run.py").read_text()
    keys = set(re.findall(r'\b(?:total|count)\(t, "([^"]+)"\)', text))
    assert len(keys) == 19, "perfbench/run.py's layer keys changed: update this count"
    assert sorted(key for key in keys if not _traced(key)) == []
