"""History quadrant walks encoding rectangle-insertion histories.

Each insertion step of the forward algorithms is recorded as one colored
point in the quarter plane:

- ``x`` is the 0-based index (from the left) of the staircase valley the new
  rectangle is placed in; ``y`` is determined by ``x + y = level``, where the
  level equals (number of valleys - 1) just before the insertion.
- The color records which sides of the new rectangle align with existing
  walls: ``black`` = neither, ``green`` = top aligned (the left peak is
  consumed), ``red`` = right aligned (the bottom peak is consumed),
  ``white`` = both.

Levels therefore step by +1 after a black point, 0 after red/green, and -1
after white.  A walk is an *excursion* when it starts at the origin, and
*closed* when its final point is the origin colored white.  Closed
excursions are in bijection with permutations: each one is the strong
encoding of exactly one ``pi``, and decoding recovers that ``pi`` and maps it
forward again.

The encoding is the walk point list of :func:`rectlab.perm._history`, and
the step rules of the walk predicates and of the counting DP are
:func:`rectlab.perm._slack`: :func:`rectlab.perm.classify` reads its flags
off the same points under the same rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import Iterator

from .biject import gamma_s, gamma_w
from .perm import (
    COLORS,
    Permutation,
    _extremal,
    _history,
    _left_slack,
    _numeral,
    _right_slack,
)
from .rect import Rectangulation

_LEVEL_STEP = {"black": 1, "red": 0, "green": 0, "white": -1}


@dataclass(frozen=True)
class WalkPoint:
    """One insertion event: quadrant position plus alignment color."""

    x: int
    y: int
    color: str

    def __post_init__(self) -> None:
        if type(self.x) is not int or type(self.y) is not int:  # rejects bool
            raise ValueError("walk coordinates must be integers: %r" % (self,))
        if self.x < 0 or self.y < 0:
            raise ValueError("walk points live in the quarter plane: %r" % (self,))
        if self.color not in COLORS:
            raise ValueError(
                "color must be one of %s, got %r" % ("/".join(COLORS), self.color)
            )

    @property
    def level(self) -> int:
        return self.x + self.y


@dataclass(frozen=True)
class HistoryQuadrantWalk:
    """A sequence of colored quadrant points obeying the level rules."""

    points: tuple[WalkPoint, ...]
    variant: str = "strong"

    def __post_init__(self) -> None:
        if self.variant not in ("strong", "weak"):
            raise ValueError("variant must be 'strong' or 'weak'")
        pts = self.points
        if not pts:
            raise ValueError("a walk has at least one point")
        if pts[0].level != 0:
            raise ValueError("an excursion starts at the origin")
        for p, q in zip(pts, pts[1:]):
            if q.level != p.level + _LEVEL_STEP[p.color]:
                raise ValueError(
                    "level rule violated between %r and %r" % (p, q)
                )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def is_closed(self) -> bool:
        last = self.points[-1]
        return last.x == 0 and last.y == 0 and last.color == "white"


def walk_to_text(w: HistoryQuadrantWalk) -> str:
    """Serialize as one "x y color" line per point."""
    return "".join("%d %d %s\n" % (p.x, p.y, p.color) for p in w.points)


def walk_from_text(text: str, variant: str = "strong") -> HistoryQuadrantWalk:
    """Parse the "x y color" line format (blank lines ignored)."""
    pts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError('line %d: expected "x y color"' % lineno)
        try:
            pts.append(WalkPoint(_numeral(parts[0]), _numeral(parts[1]), parts[2]))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return HistoryQuadrantWalk(tuple(pts), variant)


# ---------------------------------------------------------------------------
# Encoding (permutation -> walk)
# ---------------------------------------------------------------------------


def _encode_points(pi: Permutation) -> tuple[WalkPoint, ...]:
    return tuple(WalkPoint(*p) for p in _history(pi)[1])


def encode_strong(pi: Permutation) -> HistoryQuadrantWalk:
    """The insertion history of the strong forward algorithm on ``pi``.

    >>> [(p.x, p.y, p.color) for p in encode_strong(Permutation((1, 2, 3))).points]
    [(0, 0, 'green'), (0, 0, 'green'), (0, 0, 'white')]
    """
    return HistoryQuadrantWalk(_encode_points(pi), "strong")


def encode_weak(pi: Permutation) -> HistoryQuadrantWalk:
    """The insertion history of the weak forward algorithm on ``pi``.

    The point sequence coincides with the strong encoding (both algorithms
    share the staircase combinatorics); only the variant tag differs.
    """
    return HistoryQuadrantWalk(_encode_points(pi), "weak")


# ---------------------------------------------------------------------------
# Decoding (walk -> the permutation it encodes -> rectangulation)
# ---------------------------------------------------------------------------


def _permutation(w: HistoryQuadrantWalk) -> Permutation:
    """The permutation whose insertion history is the closed excursion ``w``.

    The steps are placed in NW-SE order.  Each valley holds one nonempty run
    of labels still to come, kept as the list it fills from the left plus its
    red steps: a green step goes first in its run, a red step last, a white
    step fills the run and a black step splits it in two around itself.
    Raises ``ValueError`` unless ``w`` is closed.
    """
    if not w.is_closed:
        raise ValueError("only closed excursions decode to rectangulations")
    order: list = []
    runs = [(order, [])]  # the open runs, one per valley from left to right
    for t, p in enumerate(w.points):
        run, reds = runs[p.x]
        if p.color == "green":
            run.append(t)
        elif p.color == "red":
            reds.append(t)
        elif p.color == "white":
            run += [t, *reversed(reds)]
            del runs[p.x]
        else:  # black
            left, right = [], []
            run += [left, t, right, *reversed(reds)]
            runs[p.x : p.x + 1] = (left, []), (right, [])
    label = [0] * w.n
    stack, k = [order], 0
    while stack:  # flatten the nested runs without recursion
        item = stack.pop()
        if type(item) is list:
            stack += reversed(item)
        else:
            k += 1
            label[item] = k
    return Permutation(tuple(label))


def decode_strong(w: HistoryQuadrantWalk) -> Rectangulation:
    """The strong rectangulation of a closed excursion: ``gamma_s`` of the
    permutation it encodes.  Raises ``ValueError`` unless ``w`` is closed."""
    return gamma_s(_permutation(w))


def decode(w: HistoryQuadrantWalk) -> Rectangulation:
    """Decode by variant: ``gamma_s`` of the permutation the walk encodes,
    or ``gamma_w`` (the diagonal drawing) for a weak walk."""
    return (gamma_w if w.variant == "weak" else gamma_s)(_permutation(w))


# ---------------------------------------------------------------------------
# Walk predicates
# ---------------------------------------------------------------------------


def is_leftmost(w: HistoryQuadrantWalk) -> bool:
    """True iff the walk encodes a leftmost linear extension (per variant)."""
    return _extremal([(p.x, p.y, p.color) for p in w.points], w.variant == "weak", False)


def is_rightmost(w: HistoryQuadrantWalk) -> bool:
    """True iff the walk encodes a rightmost linear extension (per variant)."""
    return _extremal([(p.x, p.y, p.color) for p in w.points], w.variant == "weak", True)


def is_leftright(w: HistoryQuadrantWalk) -> bool:
    """Both leftmost and rightmost: the fiber is a single permutation."""
    return is_leftmost(w) and is_rightmost(w)


# ---------------------------------------------------------------------------
# Counting DPs
# ---------------------------------------------------------------------------


def _excursion_count(
    n: int, *, leftmost: bool = False, rightmost: bool = False, weak: bool = False
) -> int:
    """Closed excursions with ``n`` points under the chosen step rules.

    Frontier DP over the points in order: ``rows[c][h][x]`` counts the
    admissible prefixes ending in the point (x, h - x) colored ``c``.  A
    level above the number of points still to come cannot return to 0 in
    time, so it is never stored.  Both step rules leave a contiguous window
    of x: leftmost asks x2 >= x - dl and rightmost y2 >= y - dr, that is
    x2 <= x + step + dr.  So the point (x2, h2) collects the window
    x2 - step - dr <= x <= x2 + dl of one source row per color, a
    difference of two prefix sums: O(1) per state and color pair instead
    of O(n).  Arbitrary-precision integers throughout.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # (dl, dr) per color pair; a slack of n is wider than any row, which
    # switches the rule off
    slack = {
        (c, c2): (
            _left_slack(c, c2, weak) if leftmost else n,
            _right_slack(c, c2, weak) if rightmost else n,
        )
        for c in COLORS
        for c2 in COLORS
    }
    # prefix sums padded with n + 1 zeros on the left and n + 1 copies of
    # the row total on the right, so that every window end is a plain slice
    pad = n + 1
    rows = {c: [[1]] for c in COLORS}
    for t in range(1, n):
        prefix = {}
        for c in COLORS:
            prefix[c] = padded = []
            for row in rows[c]:
                p = list(accumulate(row, initial=0))
                padded.append([0] * pad + p + [p[-1]] * pad)
        # levels rise by at most 1 per point, and point t must leave
        # n - 1 - t points to come back down to the origin
        levels = range(min(t, n - 1 - t) + 1)
        nxt = {}
        for c2 in COLORS:
            out = []
            for h2 in levels:
                m = h2 + 1
                acc = [0] * m
                for c in COLORS:
                    step = _LEVEL_STEP[c]
                    h = h2 - step
                    if not 0 <= h < len(prefix[c]):
                        continue
                    p = prefix[c][h]
                    dl, dr = slack[c, c2]
                    hi = pad + dl + 1
                    lo = pad - step - dr
                    acc = list(map(add, acc, map(sub, p[hi : hi + m], p[lo : lo + m])))
                out.append(acc)
            nxt[c2] = out
        rows = nxt
    return rows["white"][0][0]


def count_strong_rect(n: int) -> int:
    """Strong rectangulations of size ``n``: leftmost closed excursions."""
    return _excursion_count(n, leftmost=True)


def count_weak_rect(n: int) -> int:
    """Weak rectangulations of size ``n``: weak-variant leftmost excursions
    (equals the Baxter numbers)."""
    return _excursion_count(n, leftmost=True, weak=True)


def count_U(n: int) -> int:
    """Strong leftright excursions with ``n`` points.

    Counts the strong rectangulations whose fiber is a single permutation;
    equivalently the permutations that are both 2-clumped and co-2-clumped.
    """
    return _excursion_count(n, leftmost=True, rightmost=True)


def count_O(n: int) -> int:
    """Weak leftright excursions with ``n`` points (one-sided weak classes)."""
    return _excursion_count(n, leftmost=True, rightmost=True, weak=True)


# ---------------------------------------------------------------------------
# Non-intersecting triples of lattice paths
# ---------------------------------------------------------------------------


def _paths(dx: int, dy: int) -> int:
    if dx < 0 or dy < 0:
        return 0
    return math.comb(dx + dy, dx)


def nit_count(n: int) -> int:
    """Triples of vertex-disjoint up/right paths, summed by determinant.

    Paths run from (-1,1), (0,0), (1,-1) to (n-k-1,k), (n-k,k-1), (n-k+1,k-2)
    for k = 1..n; the Lindstrom-Gessel-Viennot determinant counts the
    disjoint triples.  Equals the Baxter numbers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    starts = ((-1, 1), (0, 0), (1, -1))
    total = 0
    for k in range(1, n + 1):
        ends = ((n - k - 1, k), (n - k, k - 1), (n - k + 1, k - 2))
        m = [
            [_paths(e[0] - s[0], e[1] - s[1]) for e in ends] for s in starts
        ]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        total += det
    return total


# ---------------------------------------------------------------------------
# Exhaustive generation (small n; used by tests and verification suites)
# ---------------------------------------------------------------------------


def closed_excursions(n: int, variant: str = "strong") -> Iterator[HistoryQuadrantWalk]:
    """All closed excursions with ``n`` points (level rules only), depth
    first without recursion: ``stack[d]`` yields the choices not yet tried
    for point ``d``."""

    def choices(h: int, remaining: int) -> Iterator[tuple[WalkPoint, int]]:
        """(point, next level) for a point at level ``h``, with ``remaining``
        points to place, this one included."""
        if remaining == 1:  # the level bound below leaves h == 0 here
            yield WalkPoint(0, 0, "white"), 0
            return
        for c in COLORS:
            h2 = h + _LEVEL_STEP[c]
            # the remaining points must be able to come back to level 0
            if 0 <= h2 <= remaining - 2:
                for x in range(h + 1):
                    yield WalkPoint(x, h - x, c), h2

    pts: list[WalkPoint] = []
    stack = [choices(0, n)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        del pts[len(stack) - 1 :]
        pts.append(step[0])
        if len(pts) == n:
            yield HistoryQuadrantWalk(tuple(pts), variant)
        else:
            stack.append(choices(step[1], n - len(pts)))
