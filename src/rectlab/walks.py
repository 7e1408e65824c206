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
from itertools import accumulate, chain
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


def _excursion_counts(
    N: int, *, leftmost: bool = False, rightmost: bool = False, weak: bool = False
) -> list[int]:
    """Closed excursions with ``n`` points under the step rules, n = 1..N.

    Frontier DP over the points in order: ``rows[c][h][x]`` counts the
    admissible prefixes ending in the point (x, h - x) colored ``c``.  A
    level above the points still to come before point N - 1 cannot reach
    0 by then, nor by any earlier point, so it is never stored, and after
    point n - 1 ``rows["white"][0][0]`` is the count for n points.  Both
    step rules leave a contiguous window of x: leftmost asks x2 >= x - dl
    and rightmost y2 >= y - dr, that is x2 <= x + step + dr.  So the point
    (x2, h2) collects the window x2 - step - dr <= x <= x2 + dl of one
    source row per color: a difference of two prefix sums, or one prefix
    sum when a rule is off.  Each source row sums its windows once per
    distinct (dl, dr) that a target color reads, and each target adds its
    four windows.

    Transposing a walk (x <-> y) swaps red with green and the leftmost rule
    with the rightmost one: ``_left_slack(σc, σc2) == _right_slack(c, c2)``
    for that swap σ, and red and green share a level step.  So when the two
    rules are alike, green's rows are red's reversed, and only black, red
    and white are computed.  Arbitrary-precision integers throughout.
    """
    if N < 1:
        raise ValueError("n must be >= 1")
    mirror = leftmost == rightmost
    targets = ("black", "red", "white") if mirror else COLORS
    # (dl, dr) per color pair; None switches the rule off
    slack = {
        (c, c2): (
            _left_slack(c, c2, weak) if leftmost else None,
            _right_slack(c, c2, weak) if rightmost else None,
        )
        for c in COLORS
        for c2 in targets
    }
    windows = {c: {slack[c, c2] for c2 in targets} for c in COLORS}
    rows = {c: [[1]] for c in COLORS}
    counts = [1]  # one point: the white origin
    for t in range(1, N):
        top = min(t, N - 1 - t)
        # every level gets a window: red's from the same level, or black's
        # from below at the new top
        acc = {c2: [None] * (top + 1) for c2 in targets}
        for c in COLORS:
            step = _LEVEL_STEP[c]
            for h, row in enumerate(rows[c]):
                h2 = h + step
                if not 0 <= h2 <= top:
                    continue
                # prefix sums padded by the widest step plus slack: two
                # zeros on the left, two totals on the right, p[x + 2] the
                # sum of row[:x]
                p = list(accumulate(chain((0, 0, 0), row, (0, 0))))
                m = h2 + 1
                win = {}
                for dl, dr in windows[c]:
                    w = [p[-1]] * m if dl is None else p[dl + 3 : dl + 3 + m]
                    if dr is not None:
                        lo = 2 - step - dr
                        w = list(map(sub, w, p[lo : lo + m]))
                    win[dl, dr] = w
                for c2 in targets:
                    w, a = win[slack[c, c2]], acc[c2]
                    a[h2] = w if a[h2] is None else map(add, a[h2], w)
        rows = {c2: [list(a) for a in acc[c2]] for c2 in targets}
        if mirror:
            rows["green"] = [row[::-1] for row in rows["red"]]
        counts.append(rows["white"][0][0])
    return counts


# The step rules of the counted families: a sequence is one pass under them.
_STRONG = {"leftmost": True}
_WEAK = {"leftmost": True, "weak": True}
_U = {"leftmost": True, "rightmost": True}
_O = {"leftmost": True, "rightmost": True, "weak": True}


def count_strong_rect(n: int) -> int:
    """Strong rectangulations of size ``n``: leftmost closed excursions."""
    return _excursion_counts(n, **_STRONG)[-1]


def count_weak_rect(n: int) -> int:
    """Weak rectangulations of size ``n``: weak-variant leftmost excursions
    (equals the Baxter numbers)."""
    return _excursion_counts(n, **_WEAK)[-1]


def count_U(n: int) -> int:
    """Strong leftright excursions with ``n`` points.

    Counts the strong rectangulations whose fiber is a single permutation;
    equivalently the permutations that are both 2-clumped and co-2-clumped.
    """
    return _excursion_counts(n, **_U)[-1]


def count_O(n: int) -> int:
    """Weak leftright excursions with ``n`` points (one-sided weak classes)."""
    return _excursion_counts(n, **_O)[-1]


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
