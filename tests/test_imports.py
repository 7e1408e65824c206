"""Package layering: modules import each other at the top level only and
without a cycle, only outside input validates a tiling, the lean constructor stays behind the
library's own drawings, readers use a drawing's boxes and walls rather than
its object views, no transitive closure is built (a poset reads its order
off its extremal extensions), walls are read through their covers and
one merge along each, only fibers list linear extensions, the mesh
matcher and the weak-order helpers live in the tests, every public name is
exported or used by the package itself, no loop reads the walk counts or
the guillotine series one size at a time, one recurrence solves the
guillotine series, a series carries no arithmetic, one loop builds the
guillotine table, one Kahn pass orders labels, and the package keeps its
checks under ``python -O``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


# The walk-counting engine and the counts that read its last entry, and the
# guillotine series with the Schroder counts, which hold every size up to N.
ONE_PASS = {
    "_excursion_counts",
    "count_strong_rect",
    "count_weak_rect",
    "count_U",
    "count_O",
    "schroder_counts",
    "schroder_series",
    "weighted_guillotine_series",
}


def _looped_counts(tree: ast.AST):
    """(name, line) of every ``ONE_PASS`` count that a loop or comprehension
    reaches once per iteration: anywhere in it but a call in the one
    iterable it evaluates once (a ``for``'s, or a comprehension's first)."""
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            once = loop.iter
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            once = loop.generators[0].iter
        elif isinstance(loop, ast.While):
            once = None
        else:
            continue
        calls = () if once is None else ast.walk(once)
        called = {id(node.func) for node in calls if isinstance(node, ast.Call)}
        for node in ast.walk(loop):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ONE_PASS and id(node) not in called:
                yield name, node.lineno


def test_no_loop_over_single_walk_counts():
    """One DP pass holds every walk count up to its size, and one series
    solve every coefficient up to its order, so no loop calls the engine, a
    ``count_*``, a series or ``schroder_counts`` per size, nor hands one to
    its body."""
    found = {
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _looped_counts(ast.parse(path.read_text()))
    }
    assert found == set(), sorted(found)


def _package_imports(tree: ast.Module):
    """Package modules imported at module level (``from .x import ..`` and
    ``from . import x, y``)."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_top_level_imports_form_a_dag():
    """Load-time imports never close a cycle (``perm`` reads its class
    flags off ``rect``'s staircase insertion and nothing else, so ``rect``
    must stay below it), and ``counting`` builds no drawing: it needs only
    the walk counts."""
    graph = {
        path.stem: set(_package_imports(ast.parse(path.read_text())))
        for path in sorted(SRC.glob("*.py"))
    }
    assert graph["perm"] == {"rect"}
    assert graph["counting"] == {"walks"}
    left = dict(graph)
    while left:
        ready = [m for m, deps in left.items() if not deps & left.keys()]
        assert ready, "import cycle among %s" % sorted(left)
        for m in ready:
            del left[m]


def test_no_assert_statements():
    """Invariants are real checks: ``python -O`` strips every ``assert``."""
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _owners(match):
    """(module file, innermost enclosing function) of every node ``match``
    accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (ast.walk is BFS)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        found += [(path.name, owner.get(node)) for node in ast.walk(tree) if match(node)]
    return sorted(found)


def _calls(name: str):
    """Every reference to ``name``, as a plain name or as an attribute."""
    return _owners(
        lambda node: isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.Name) and node.id == name
    )


def test_lean_constructor_only_in_forward_maps():
    """Only the constructor and ``from_rects`` validate a tiling, and only
    the drawings the library builds itself (``gamma_s``, ``gamma_w``,
    ``reflect_swne``, and ``diagonal_representative``, which places boxes
    on a drawing's own walls) reach the lean constructor from outside
    ``rect``; ``from_rects`` reaches it once, for the drawing it returns.
    The cell grid that names a coverage error has one caller,
    ``_tile_walls``, and only on input it refuses."""
    assert _calls("_tile_walls") == [("rect.py", "__init__"), ("rect.py", "from_rects")]
    # the cell grid only names what the runs and the area sum refused
    assert _calls("_coverage_error") == [("rect.py", "_tile_walls")]
    assert _calls("_built") == [
        ("biject.py", "diagonal_representative"),
        ("biject.py", "gamma_s"),
        ("biject.py", "gamma_w"),
        ("biject.py", "reflect_swne"),
        ("rect.py", "from_rects"),
    ]


def test_drawings_are_read_as_boxes_and_walls():
    """A drawing stores its boxes and walls, and the library reads those:
    outside ``rect`` no module reads the ``rects``/``segments`` views or
    calls ``rect(label)``, and ``Rect``/``Segment`` objects are built only
    where outside input arrives (``from_json``, ``from_rects``) and by the
    two views."""
    def reads_a_view(node):
        if isinstance(node, ast.Call):  # r.rect(label)
            return isinstance(node.func, ast.Attribute) and node.func.attr == "rect"
        return isinstance(node, ast.Attribute) and node.attr in ("rects", "segments")

    assert [where for where in _owners(reads_a_view) if where[0] != "rect.py"] == []
    for cls, owners in (("Rect", ["from_json", "from_rects", "rects"]), ("Segment", ["segments"])):
        assert _owners(
            lambda node: isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == cls
        ) == [("rect.py", fn) for fn in owners], cls


def test_closures_only_in_biject():
    """``rect`` reads its labelings off the walls, and ``src`` builds no
    transitive closure at all: a poset is the intersection of its two
    extremal extensions, so its order is one cached tuple of "later in
    both" masks, ``Poset._later`` in ``biject``, which only ``less``,
    ``covers``, ``==`` and ``hash`` read.  Extremal extensions and keys are
    one least-first Kahn pass, with no greedy rescan left."""
    assert _calls("_later") == [
        ("biject.py", "__eq__"),
        ("biject.py", "__eq__"),
        ("biject.py", "__hash__"),
        ("biject.py", "covers"),
        ("biject.py", "less"),
    ]
    assert [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in ("_closure_masks", "_reach", "_greedy_extension")
        if name in path.read_text()
    ] == []


def test_walls_are_read_through_their_covers():
    """No reader pairs every box of one side of a wall with every box of
    the other.  The labelings read one cover per wall (``_linear_order``,
    and the Baxter flag of ``classify``); keys and posets read the touching
    and same-segment pairs of one merge along each wall (``_wall_pairs``);
    and the constructor's label check)."""
    assert _calls("_wall_covers") == [
        ("perm.py", "classify"),
        ("rect.py", "__init__"),
        ("rect.py", "_linear_order"),
    ]
    assert _calls("_wall_pairs") == [
        ("biject.py", "adjacency_poset"),
        ("biject.py", "strong_poset"),
        ("biject.py", "weak_poset"),
        ("rect.py", "strong_key"),
        ("rect.py", "weak_key"),
    ]
    assert [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in ("_adjacency_pairs", "_strong_pairs")
        if name in path.read_text()
    ] == []


def test_one_topological_order_pass():
    """Labelings, keys and extremal extensions share one Kahn loop, the
    least-first pass ``rect._topological_order``: it alone keeps ready
    labels in a heap and counts in-degrees down, and on a cycle it names
    two labels through one walk back (``_cycle_pair``).
    ``biject._least_order`` only wraps its labels in a ``Permutation``."""

    def kahn_loop(node):  # a while loop that counts a subscript down
        return isinstance(node, ast.While) and any(
            isinstance(sub, ast.AugAssign)
            and isinstance(sub.op, ast.Sub)
            and isinstance(sub.target, ast.Subscript)
            for sub in ast.walk(node)
        )

    def imports_heapq(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "heapq"
        return isinstance(node, ast.Import) and "heapq" in {a.name for a in node.names}

    assert _owners(kahn_loop) == [("rect.py", "_topological_order")]
    assert _owners(imports_heapq) == [("rect.py", None)]
    assert _calls("_cycle_pair") == [("rect.py", "_topological_order")]
    tree = ast.parse((SRC / "biject.py").read_text())
    (least,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_least_order"
    ]
    _, body = least.body  # the docstring, then one statement
    assert isinstance(body, ast.Return) and ast.unparse(body.value) == (
        "Permutation(_topological_order(n, pairs, reverse))"
    )


def test_one_series_recurrence_and_one_table_loop():
    """The Schroder series is the weighted guillotine series at y = 1, so
    ``schroder_series`` only calls ``weighted_guillotine_series``, and one
    helper reads the integer terms of a series.  ``CountTable.extend_to``
    is the one loop of a table build: it alone packs, multiplies,
    transposes and checks, and no per-layer hook is left; only a stored
    ``_PackedLayer`` keeps accumulators.  It never unpacks: a layer's view is built when it is read, or
    to name a profile that breaks the symmetry check."""
    tree = ast.parse((SRC / "counting.py").read_text())
    (schroder,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "schroder_series"
    ]
    _, body = schroder.body  # the docstring, then one statement
    assert isinstance(body, ast.Return) and ast.unparse(body.value) == (
        "weighted_guillotine_series(1, N)"
    )
    assert _calls("_integer_term") == [("cli.py", None), ("counting.py", "schroder_counts")]
    for name in ("products", "pack", "grids", "shifted", "transpose", "_check_packed"):
        assert set(_calls(name)) == {("counting.py", "extend_to")}, name
    assert _calls("unpack") == [("counting.py", "_check_packed"), ("counting.py", "_view")]
    assert [path.name for path in sorted(SRC.glob("*.py")) if "_compute_layer" in path.read_text()] == []
    # a stored layer's accumulators are read only by its own view and total
    assert _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "acc") == [
        ("counting.py", "total"),
        ("counting.py", "unpack"),
    ]


def test_series_keeps_only_its_coefficients():
    """Every series the library returns comes from the one coefficient
    recurrence, and ``verify`` checks the closed forms by one truncated
    integer square, so ``Series`` has no arithmetic: no operator, no
    series inverse and no Newton square root, in ``counting`` or anywhere
    else in the package."""
    tree = ast.parse((SRC / "counting.py").read_text())
    (series,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Series"
    ]
    assert [node.name for node in series.body if isinstance(node, ast.FunctionDef)] == [
        "__post_init__",
        "order",
        "coefficient",
    ]
    assert _owners(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("sqrt", "inverse")
        and ast.unparse(node.func.value) != "math"
    ) == []


def test_only_fibers_list_extensions():
    """Flips and the quotient graph read a class's two extremal extensions
    (the ends of its weak-order interval), so only the fibers themselves
    list linear extensions."""
    assert _calls("linear_extensions") == [("biject.py", "fiber_s"), ("biject.py", "fiber_w")]


def test_matcher_is_only_an_oracle():
    """``classify`` reads every flag off one staircase insertion, so the
    mesh matcher and the weak-order helpers live in the tests, which alone
    use them, and the step rules that ``classify``, the walk predicates and
    the counting DP share are defined once, beside the insertion's walk
    points in ``perm``."""
    names = ("occurrences", "contains_pattern", "MeshPattern", "inversion_set", "bruhat_")
    assert [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in names
        if name in path.read_text()
    ] == []
    assert [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_slack"
    ] == ["perm.py"]


# The documented API: a name appears in or leaves it only on purpose.
API = [
    "CLASS_FLAGS",
    "CountTable",
    "FlipGraph",
    "GrowthConstants",
    "HistoryQuadrantWalk",
    "Permutation",
    "Poset",
    "RealizerError",
    "Rect",
    "Rectangulation",
    "RectangulationError",
    "Segment",
    "Series",
    "WalkPoint",
    "Windmill",
    "adjacency_poset",
    "all_permutations",
    "baxter_number",
    "baxter_representative",
    "classify",
    "closed_excursions",
    "complement",
    "count_O",
    "count_U",
    "count_linear_extensions",
    "count_strong_rect",
    "count_weak_rect",
    "decode",
    "decode_strong",
    "diagonal_representative",
    "encode_strong",
    "encode_weak",
    "fiber_s",
    "fiber_w",
    "find_windmills",
    "flips",
    "from_json",
    "from_rects",
    "gamma_s",
    "gamma_w",
    "growth_constants",
    "guillotine_tree",
    "has_z_wall",
    "identity_permutation",
    "is_diagonal",
    "is_guillotine",
    "is_leftmost",
    "is_leftright",
    "is_one_sided",
    "is_rightmost",
    "leftmost_extension",
    "linear_extensions",
    "multiplicity",
    "nit_count",
    "nwse_labeling",
    "parse_permutation",
    "quotient_cover_graph",
    "reflect_swne",
    "render",
    "rightmost_extension",
    "schroder_counts",
    "schroder_series",
    "strong_guillotine_count",
    "strong_guillotine_table",
    "strong_key",
    "strong_poset",
    "swne_labeling",
    "to_json",
    "walk_from_text",
    "walk_to_text",
    "weak_key",
    "weak_poset",
    "weighted_guillotine_series",
]


def _public_definitions():
    """(module file, name, node) of every public top-level ``def``,
    ``class`` and assigned name in a package module."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((path.name, name, node) for name in names if not name.startswith("_"))


def test_api_is_pinned():
    assert rectlab.__all__ == API


def test_public_names_are_exported_or_used():
    """A public name outside ``__all__`` must be read somewhere in the
    package other than its own definition: code that only tests reach
    belongs in the tests."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, name, node in _public_definitions():
        if name in rectlab.__all__:
            continue
        own = set(map(id, ast.walk(node)))
        if not any(
            id(ref) not in own
            and (
                isinstance(ref, ast.Name) and ref.id == name
                or isinstance(ref, ast.Attribute) and ref.attr == name
            )
            for tree in trees.values()
            for ref in ast.walk(tree)
        ):
            unused.append((module, name))
    assert unused == []


def test_exported_callables_have_docstrings():
    """Every exported callable is a ``def`` or ``class`` of the package, and
    each carries its own docstring."""
    defined = {
        name: node
        for _, name, node in _public_definitions()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    callables = [name for name in rectlab.__all__ if callable(getattr(rectlab, name))]
    assert [name for name in callables if name not in defined] == []
    assert [name for name in callables if not ast.get_docstring(defined[name])] == []


def test_verify_passes_under_optimize():
    # rect goes through the constructor's label check and both labelings
    for group in ("walks", "rect"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "rectlab.cli", "verify", group, "--max-n", "4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC.parent)},
            timeout=120,
        )
        assert proc.returncode == 0, (group, proc.stderr)
        assert proc.stdout.rstrip().endswith(" 0 failed"), group
