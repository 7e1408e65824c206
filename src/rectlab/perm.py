"""Permutations and the class predicates of the source paper.

Conventions
-----------
- A permutation of size ``n`` is written in one-line notation: ``pi[i]`` is the
  image of position ``i`` (0-based indexing in code, values are ``1..n``).
  The text form is whitespace-separated, e.g. ``"2 5 3 1 4"``.
- The paper defines each class by avoidance of classical, vincular or mesh
  patterns, but :func:`classify` runs no matcher: it reads every flag off
  one staircase insertion of :mod:`rectlab.rect` (the one package module
  imported here), whose walk points and step rules live here so that
  :mod:`rectlab.walks` shares them.  The pattern definitions live with the
  tests, whose mesh matcher is the reference for :func:`classify`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from typing import Iterable, Iterator

from .rect import _Staircase, _wall_covers, _windmills


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
    """The increasing permutation ``1 2 .. n``."""
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
      order of the walls.  Each wall holds one pair of consecutive labels
      of that order, its cover (:func:`rectlab.rect._wall_covers`), so
      ``pi`` is it iff every cover is adjacent, in order, in ``pi``.
    - ``windmill_mesh_avoiding``: the walls hold no windmill; by the source
      paper's theorem these are exactly the ``pi`` with guillotine images.
    - ``separable``: Baxter and windmill-free.
    - ``semi_baxter``, avoidance of 2-41-3, has no map:
      :func:`_avoids_2_41_3`.

    The paper defines the flags as avoidance of fixed pattern lists; those
    lists and the mesh matcher over them live with the tests, as the
    reference that each flag is checked against.
    """
    walls, points = _history(pi)
    pos = {q: t for t, q in enumerate(pi)}
    baxter = all(pos[j] == pos[i] + 1 for i, j in _wall_covers(walls, swne=True))
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

