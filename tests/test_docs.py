"""Documented examples run: every doctest in the package's docstrings, and
the ``python`` code fences of the README's "Library tour"."""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import rectlab

SRC = Path(rectlab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_module_doctests_pass():
    attempted = 0
    for path in sorted(SRC.glob("*.py")):
        name = "rectlab" if path.stem == "__init__" else "rectlab." + path.stem
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 10


def tour_fences() -> list[tuple[int, str]]:
    """The body of each ```python fence in the README's "Library tour"
    section, with the line number it starts on: doctest reads the closing
    fence as expected output unless the fences are cut away."""
    lines = README.read_text().splitlines(keepends=True)
    tour = lines.index("## Library tour\n") + 1
    fences: list[tuple[int, str]] = []
    body = None
    for lineno, line in enumerate(lines[tour:], tour):  # 0-based, as doctest counts
        if line.startswith("## "):
            break
        if body is None and line.startswith("```python"):
            start, body = lineno + 1, []
        elif body is not None and line.startswith("```"):
            fences.append((start, "".join(body)))
            body = None
        elif body is not None:
            body.append(line)
    return fences


def test_readme_library_tour_runs():
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    fences = tour_fences()
    assert len(fences) == 3
    for lineno, body in fences:
        runner.run(parser.get_doctest(body, {}, "Library tour", str(README), lineno))
    result = runner.summarize(verbose=False)
    assert result.failed == 0 and result.attempted >= 10
