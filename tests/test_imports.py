"""Package layering: modules import each other at the top level only."""

from __future__ import annotations

import ast
from pathlib import Path

import rectlab

SRC = Path(rectlab.__file__).parent

# rect's canonical keys need biject, which imports rect at load time.
LAZY = {("rect.py", "weak_key"), ("rect.py", "strong_key")}


def _function_imports(tree: ast.AST):
    """(function name, line) of every import nested in a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


def test_no_imports_inside_functions():
    found = {
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _function_imports(ast.parse(path.read_text()))
    }
    assert {(f, name) for f, name, _ in found} == LAZY, sorted(found)
