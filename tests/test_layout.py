"""Every function, class and method in src/mitmscan is used by src/mitmscan."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mitmscan"

# Names no module refers to, each kept for a reason the code cannot show.
KEPT = {
    "expected_truth_table": "the oracle that tests compare scan outcomes against",
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
