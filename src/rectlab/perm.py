"""Permutations, pattern containment, class predicates, and the weak Bruhat order.

Conventions
-----------
- A permutation of size ``n`` is written in one-line notation: ``pi[i]`` is the
  image of position ``i`` (0-based indexing in code, values are ``1..n``).
  The text form is whitespace-separated, e.g. ``"2 5 3 1 4"``.
- A *mesh pattern* is a pair ``(tau, shaded)`` where ``tau`` is a permutation
  of size ``k`` and ``shaded`` is a set of cells ``(i, j)`` with
  ``0 <= i, j <= k``.  An occurrence of the pattern in ``pi`` is a subsequence
  ``pi[s_1] .. pi[s_k]`` (1-based ``s_1 < .. < s_k``) order-isomorphic to
  ``tau`` such that for every shaded cell ``(i, j)`` no entry of ``pi`` lies
  strictly between columns ``s_i`` and ``s_{i+1}`` and strictly between the
  ``j``-th and ``(j+1)``-th smallest chosen values (with sentinels
  ``s_0 = t_0 = 0`` and ``s_{k+1} = t_{k+1} = n+1``).
- A *classical* pattern has no shaded cells.  A *vincular* pattern with an
  adjacency bar between positions ``c`` and ``c+1`` is the mesh pattern whose
  column ``c`` is fully shaded, which forces ``s_{c+1} = s_c + 1``.
- The *weak Bruhat order* compares permutations by inclusion of inversion
  sets; covers differ by one adjacent transposition creating one inversion.
- Class flags are pattern avoidance, but :func:`classify` runs no matcher:
  it reads every flag off one staircase insertion of :mod:`rectlab.rect`
  (the one package module imported here), whose walk points and step
  rules live here so that :mod:`rectlab.walks` shares them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Iterator

from .rect import _Staircase, _windmills


class Permutation(tuple):
    """A permutation of ``1..n`` in one-line notation.

    >>> Permutation([2, 5, 3, 1, 4]).n
    5
    >>> Permutation("213")
    Traceback (most recent call last):
        ...
    TypeError: entries must be integers, not str
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "Permutation":
        if isinstance(entries, str):
            raise TypeError("entries must be integers, not str")
        values = tuple(entries)
        if not values:
            raise ValueError("a permutation has size at least 1")
        if not all(type(v) is int for v in values):  # rejects bool
            bad = next(v for v in values if type(v) is not int)
            raise TypeError("entries must be integers, not %s" % type(bad).__name__)
        if sorted(values) != list(range(1, len(values) + 1)):
            raise ValueError("entries %r are not a permutation of 1..%d" % (values, len(values)))
        return super().__new__(cls, values)

    @property
    def n(self) -> int:
        return len(self)

    def one_line(self) -> str:
        """One-line text form.

        >>> Permutation([2, 1, 3]).one_line()
        '2 1 3'
        """
        return " ".join(str(v) for v in self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Permutation(%s)" % (tuple(self),)


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace-separated one-line notation.

    >>> parse_permutation("2 5 3 1 4")
    Permutation((2, 5, 3, 1, 4))
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty permutation text")
    values = []
    for i, part in enumerate(parts, start=1):
        try:
            values.append(_numeral(part))
        except ValueError as exc:
            raise ValueError("permutation entry %d: %s" % (i, exc)) from None
    return Permutation(values)


def _numeral(token: str) -> int:
    """The value of an ASCII decimal numeral ``[0-9]+``.  Signs, underscores
    and non-ASCII digits, which ``int()`` accepts, raise ``ValueError``."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError("expected a decimal numeral [0-9]+, got %r" % token)
    return int(token)


def identity_permutation(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of size ``n`` in lexicographic order."""
    for values in itertools.permutations(range(1, n + 1)):
        yield Permutation(values)


def complement(pi: Permutation) -> Permutation:
    """Replace each value ``v`` by ``n + 1 - v``; an involution.

    >>> complement(Permutation([1, 3, 2]))
    Permutation((3, 1, 2))
    """
    n = len(pi)
    return Permutation(n + 1 - v for v in pi)


# ---------------------------------------------------------------------------
# Mesh patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeshPattern:
    """A mesh pattern ``(tau, shaded)``; classical when ``shaded`` is empty."""

    tau: Permutation
    shaded: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", Permutation(self.tau))
        object.__setattr__(self, "shaded", frozenset(self.shaded))
        k = len(self.tau)
        for (i, j) in self.shaded:
            if not (0 <= i <= k and 0 <= j <= k):
                raise ValueError("shaded cell %r outside {0..%d}^2" % ((i, j), k))

    @property
    def k(self) -> int:
        return len(self.tau)

    def forced_adjacencies(self) -> frozenset[int]:
        """Column indices ``c`` whose full shading forces ``s_{c+1} = s_c + 1``."""
        k = self.k
        full = []
        for c in range(k + 1):
            if all((c, j) in self.shaded for j in range(k + 1)):
                full.append(c)
        return frozenset(full)


def classical_pattern(word: Iterable[int]) -> MeshPattern:
    """Mesh pattern with no shading.

    >>> classical_pattern([1, 3, 2]).shaded
    frozenset()
    """
    return MeshPattern(Permutation(word), frozenset())


def vincular_pattern(word: Iterable[int], adjacent_after: Iterable[int]) -> MeshPattern:
    """Vincular pattern: each column in ``adjacent_after`` is fully shaded.

    ``adjacent_after=(c,)`` with ``1 <= c <= k-1`` requires the occurrence's
    positions ``s_c`` and ``s_{c+1}`` to be adjacent in the host permutation.
    """
    tau = Permutation(word)
    k = len(tau)
    cells = set()
    for c in adjacent_after:
        if not 0 <= c <= k:
            raise ValueError("adjacency column %d outside 0..%d" % (c, k))
        cells.update((c, j) for j in range(k + 1))
    return MeshPattern(tau, frozenset(cells))


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------


def occurrences(pi: Permutation, m: MeshPattern) -> Iterator[tuple[int, ...]]:
    """Yield the occurrences of ``m`` in ``pi`` as 1-based index tuples.

    Occurrences are produced in lexicographic index order.  A pattern larger
    than ``pi`` has no occurrences.
    """
    n = len(pi)
    k = m.k
    if k > n:
        return
    tau = m.tau
    shaded = m.shaded
    forced = m.forced_adjacencies()
    # chosen[i] = 0-based position of the (i+1)-th pattern point.
    chosen: list[int] = []

    def value_order_ok(pos: int) -> bool:
        v = pi[pos]
        i = len(chosen)
        for j, earlier in enumerate(chosen):
            if (pi[earlier] < v) != (tau[j] < tau[i]):
                return False
        return True

    def shading_ok() -> bool:
        s = [0] + [p + 1 for p in chosen] + [n + 1]  # 1-based with sentinels
        values = sorted(pi[p] for p in chosen)
        t = [0] + values + [n + 1]
        for (i, j) in shaded:
            lo_pos, hi_pos = s[i], s[i + 1]
            lo_val, hi_val = t[j], t[j + 1]
            for ell in range(lo_pos + 1, hi_pos):
                if lo_val < pi[ell - 1] < hi_val:
                    return False
        return True

    def extend() -> Iterator[tuple[int, ...]]:
        i = len(chosen)
        if i == k:
            if shading_ok():
                yield tuple(p + 1 for p in chosen)
            return
        prev = chosen[-1] if chosen else -1  # s_0 = 0 is position -1
        if i in forced:
            # column i fully shaded: s_{i+1} must be s_i + 1
            candidates: Iterable[int] = (prev + 1,) if prev + 1 <= n - (k - i) else ()
        else:
            candidates = range(prev + 1, n - (k - 1 - i))
        for pos in candidates:
            if value_order_ok(pos):
                chosen.append(pos)
                yield from extend()
                chosen.pop()

    # A fully shaded column k leaves no entry after s_k: shading_ok checks it.
    yield from extend()


def contains_pattern(pi: Permutation, m: MeshPattern) -> bool:
    """True iff ``pi`` contains the mesh pattern ``m``."""
    return next(occurrences(pi, m), None) is not None


# ---------------------------------------------------------------------------
# Class predicates
# ---------------------------------------------------------------------------

CLASS_FLAGS = (
    "baxter",
    "twisted_baxter",
    "co_twisted_baxter",
    "separable",
    "two_clumped",
    "co_two_clumped",
    "semi_baxter",
    "windmill_mesh_avoiding",
)


# The walk colors of :mod:`rectlab.walks`, indexed by right + 2 * top aligned
COLORS = ("black", "red", "green", "white")


def _history(pi: Permutation) -> tuple[list, list[tuple[int, int, str]]]:
    """One staircase insertion of ``pi``: its walls, the segments of both
    images, and its walk points ``(x, y, color)``, one per step, as
    :mod:`rectlab.walks` defines them."""
    st = _Staircase(len(pi))
    points = []
    for j in pi:
        _, _, valley, n_valleys, top, right = st.insert(j)
        points.append((valley, n_valleys - 1 - valley, COLORS[right + 2 * top]))
    return st.walls, points


def _slack(inward_from: bool, inward_to: bool, weak: bool) -> int:
    """How far one step may move back in x (leftmost rule) or in y
    (rightmost rule): 0 when it is inward (either side inward for the weak
    variant, both sides for the strong one), else 1.  :func:`classify`,
    the walk predicates and the counting DP of :mod:`rectlab.walks` share
    this one definition of the step rules."""
    inward = (inward_from or inward_to) if weak else (inward_from and inward_to)
    return 0 if inward else 1


def _left_slack(c: str, c2: str, weak: bool) -> int:
    return _slack(c in ("black", "red"), c2 in ("black", "green"), weak)


def _right_slack(c: str, c2: str, weak: bool) -> int:
    return _slack(c in ("black", "green"), c2 in ("black", "red"), weak)


def _extremal(points, weak: bool, rightmost: bool) -> bool:
    """Whether the walk points ``(x, y, color)`` encode the leftmost linear
    extension of their fiber (the rightmost with ``rightmost``) under the
    weak or the strong step rules: no step moves back in x (in y) by more
    than its slack."""
    slack, i = (_right_slack, 1) if rightmost else (_left_slack, 0)
    return all(
        q[i] >= p[i] - slack(p[2], q[2], weak) for p, q in zip(points, points[1:])
    )


def _avoids_2_41_3(pi: Permutation) -> bool:
    """Whether ``pi`` avoids the vincular pattern 2-41-3.

    An adjacent descent ``a > b`` starts an occurrence iff the least value
    in ``(b, a)`` before it lies below the greatest value in ``(b, a)``
    after it; sorted lists of the earlier and the later values answer both
    by bisection.
    """
    earlier, later = [], sorted(pi[2:])
    for t, (a, b) in enumerate(zip(pi, pi[1:])):
        if a > b:
            i, k = bisect_right(earlier, b), bisect_left(later, a)
            if i < len(earlier) and k and earlier[i] < later[k - 1]:
                return False
        insort(earlier, a)
        if t + 2 < len(pi):
            del later[bisect_left(later, pi[t + 2])]
    return True


def classify(pi: Permutation) -> frozenset[str]:
    """The set of class flags that hold for ``pi``.

    Every flag is read off one staircase insertion (:func:`_history`); no
    drawing is built and no pattern is matched.  Each class but one is the
    set of distinguished members of the fibers of a forward map:

    - ``two_clumped`` / ``co_two_clumped``: ``pi`` is the bottom (top) of
      its strong fiber, that is its walk is leftmost (rightmost) under the
      strong step rules (Reading, "Generic rectangulations", 2012).
    - ``twisted_baxter`` / ``co_twisted_baxter``: the same under the weak
      step rules, for the weak fiber (Law and Reading, 2012).
    - ``baxter``: ``pi`` is its weak fiber's one Baxter member, the SW-NE
      order of the walls.  That order is the unique topological order of
      the pairs across the walls, so ``pi`` is it iff each wall's earlier
      side lies wholly before its later side in ``pi``.
    - ``windmill_mesh_avoiding``: the walls hold no windmill; by the source
      paper's theorem these are exactly the ``pi`` with guillotine images.
    - ``separable``: Baxter and windmill-free.
    - ``semi_baxter``, avoidance of 2-41-3, has no map:
      :func:`_avoids_2_41_3`.

    The flags are avoidance of fixed pattern lists, and the mesh matcher
    (:func:`occurrences`) over those lists is the reference in the tests.
    """
    walls, points = _history(pi)
    pos = {q: t for t, q in enumerate(pi)}
    # SW-NE puts below before above: horizontal walls swap their sides
    sides = [(b, a) if o == "h" else (a, b) for o, a, b in walls]
    baxter = all(max(pos[q] for q in a) < min(pos[q] for q in b) for a, b in sides)
    windmill_free = next(_windmills(len(pi), walls), None) is None
    flags = {
        "baxter": baxter,
        "twisted_baxter": _extremal(points, True, False),
        "co_twisted_baxter": _extremal(points, True, True),
        "separable": baxter and windmill_free,
        "two_clumped": _extremal(points, False, False),
        "co_two_clumped": _extremal(points, False, True),
        "semi_baxter": _avoids_2_41_3(pi),
        "windmill_mesh_avoiding": windmill_free,
    }
    return frozenset(f for f, held in flags.items() if held)


# ---------------------------------------------------------------------------
# Weak Bruhat order
# ---------------------------------------------------------------------------


def inversion_set(pi: Permutation) -> frozenset[tuple[int, int]]:
    """Pairs of values ``(a, b)`` with ``a < b`` but ``a`` after ``b`` in ``pi``.

    >>> sorted(inversion_set(Permutation([3, 1, 2])))
    [(1, 3), (2, 3)]
    """
    pos = {v: i for i, v in enumerate(pi)}
    n = len(pi)
    return frozenset(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if pos[a] > pos[b]
    )


def bruhat_leq(pi: Permutation, sigma: Permutation) -> bool:
    """Weak Bruhat comparison: ``Inv(pi)`` included in ``Inv(sigma)``."""
    if len(pi) != len(sigma):
        raise ValueError(
            "cannot compare permutations of sizes %d and %d" % (len(pi), len(sigma))
        )
    return inversion_set(pi) <= inversion_set(sigma)


def bruhat_covers(pi: Permutation) -> list[Permutation]:
    """Permutations covering ``pi``: one adjacent transposition adds one inversion."""
    out = []
    values = list(pi)
    for i in range(len(values) - 1):
        if values[i] < values[i + 1]:
            swapped = values[:]
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            out.append(Permutation(swapped))
    return out
