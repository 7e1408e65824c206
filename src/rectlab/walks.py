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
*closed* when its final point is the origin colored white.  Every closed
excursion decodes to a rectangulation; no permutation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .perm import Permutation
from .rect import Rectangulation, from_rects

COLORS = ("black", "red", "green", "white")
_LEVEL_STEP = {"black": 1, "red": 0, "green": 0, "white": -1}


@dataclass(frozen=True)
class WalkPoint:
    """One insertion event: quadrant position plus alignment color."""

    x: int
    y: int
    color: str

    def __post_init__(self) -> None:
        if not (isinstance(self.x, int) and isinstance(self.y, int)):
            raise ValueError("walk coordinates must be integers")
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
            pts.append(WalkPoint(int(parts[0]), int(parts[1]), parts[2]))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return HistoryQuadrantWalk(tuple(pts), variant)


# ---------------------------------------------------------------------------
# Encoding (permutation -> walk)
# ---------------------------------------------------------------------------


def _encode_points(pi: Permutation) -> tuple[WalkPoint, ...]:
    from .biject import _Staircase

    st = _Staircase(pi.n)
    pts = []
    for j in pi:
        _, _, valley, n_valleys, top, right = st.insert(j)
        color = ("black", "green", "red", "white")[top + 2 * right]
        pts.append(WalkPoint(valley, n_valleys - 1 - valley, color))
    return tuple(pts)


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
# Decoding (walk -> rectangulation; the permutation is not needed)
# ---------------------------------------------------------------------------


def decode_strong(w: HistoryQuadrantWalk) -> Rectangulation:
    """Replay a closed excursion as strong insertions.

    Peaks are replayed geometrically over exact dyadic coordinates: each
    point's ``x`` selects the valley, its color dictates which sides align.
    Raises ``ValueError`` for walks that do not close into a tiling.
    """
    from .biject import _sentinel_boxes, _strong_box

    if not w.is_closed:
        raise ValueError("only closed excursions decode to rectangulations")
    # Peak records are the owning rectangle's box (x1, y1, x2, y2); the
    # peak proper is the corner (x2, y1).  Sentinels: left and bottom walls.
    peaks = list(_sentinel_boxes(w.n))
    boxes = []
    for p in w.points:
        if p.x + 1 >= len(peaks):
            raise ValueError("valley index %d out of range" % p.x)
        top = p.color in ("green", "white")
        right = p.color in ("red", "white")
        box = _strong_box(peaks[p.x], peaks[p.x + 1], top, right)
        idx = p.x
        if right:
            del peaks[idx + 1]
        if top:
            del peaks[idx]
            idx -= 1
        peaks.insert(idx + 1, box)
        boxes.append(box)
    if len(peaks) != 1:
        raise ValueError("walk does not close into a tiling")
    return from_rects(boxes)


def decode(w: HistoryQuadrantWalk) -> Rectangulation:
    """Decode by variant: strong replay, or its diagonal drawing for weak."""
    r = decode_strong(w)
    if w.variant == "weak":
        from .biject import diagonal_representative

        return diagonal_representative(r)
    return r


# ---------------------------------------------------------------------------
# Walk predicates
# ---------------------------------------------------------------------------


def _leftmost_ok(c: str, x: int, c2: str, x2: int, weak: bool) -> bool:
    inward = c in ("black", "red"), c2 in ("black", "green")
    cond = (inward[0] or inward[1]) if weak else (inward[0] and inward[1])
    return x2 >= x if cond else x2 >= x - 1


def _rightmost_ok(c: str, y: int, c2: str, y2: int, weak: bool) -> bool:
    inward = c in ("black", "green"), c2 in ("black", "red")
    cond = (inward[0] or inward[1]) if weak else (inward[0] and inward[1])
    return y2 >= y if cond else y2 >= y - 1


def is_leftmost(w: HistoryQuadrantWalk) -> bool:
    """True iff the walk encodes a leftmost linear extension (per variant)."""
    weak = w.variant == "weak"
    return all(
        _leftmost_ok(p.color, p.x, q.color, q.x, weak)
        for p, q in zip(w.points, w.points[1:])
    )


def is_rightmost(w: HistoryQuadrantWalk) -> bool:
    """True iff the walk encodes a rightmost linear extension (per variant)."""
    weak = w.variant == "weak"
    return all(
        _rightmost_ok(p.color, p.y, q.color, q.y, weak)
        for p, q in zip(w.points, w.points[1:])
    )


def is_leftright(w: HistoryQuadrantWalk) -> bool:
    """Both leftmost and rightmost: the fiber is a single permutation."""
    return is_leftmost(w) and is_rightmost(w)


# ---------------------------------------------------------------------------
# Counting DPs
# ---------------------------------------------------------------------------


def _excursion_count(
    n: int, *, leftmost: bool = False, rightmost: bool = False, weak: bool = False
) -> int:
    """Closed excursions with ``n`` points under the chosen constraints.

    Dense DP over (x, y, color) layers; arbitrary-precision integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n + 2
    layer = {c: [[0] * size for _ in range(size)] for c in COLORS}
    for c in COLORS:
        layer[c][0][0] = 1
    for _ in range(n - 1):
        nxt = {c: [[0] * size for _ in range(size)] for c in COLORS}
        for c in COLORS:
            grid = layer[c]
            for x in range(size):
                row = grid[x]
                for y in range(size):
                    v = row[y]
                    if not v:
                        continue
                    h2 = x + y + _LEVEL_STEP[c]
                    if h2 < 0:
                        continue
                    for c2 in COLORS:
                        for x2 in range(min(h2, size - 1) + 1):
                            y2 = h2 - x2
                            if y2 >= size:
                                continue
                            if leftmost and not _leftmost_ok(c, x, c2, x2, weak):
                                continue
                            if rightmost and not _rightmost_ok(c, y, c2, y2, weak):
                                continue
                            nxt[c2][x2][y2] += v
        layer = nxt
    return layer["white"][0][0]


def count_strong_rect(n: int) -> int:
    """Strong rectangulations of size ``n``: leftmost closed excursions."""
    return _excursion_count(n, leftmost=True)


def count_weak_rect(n: int) -> int:
    """Weak rectangulations of size ``n``: weak-variant leftmost excursions
    (equals the Baxter numbers)."""
    return _excursion_count(n, leftmost=True, weak=True)


def count_U(n: int) -> int:
    """Strong leftright excursions with ``n`` points, by the four-color
    first-point-removal recurrence (arbitrary precision).

    Counts the strong rectangulations whose fiber is a single permutation;
    equivalently the permutations that are both 2-clumped and co-2-clumped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # Layers over (i, j): B and W are symmetric, G is the transpose of R,
    # so only B, R, W are stored.  A = B + R + R^T + W.
    B: dict[tuple[int, int], int] = {}
    R: dict[tuple[int, int], int] = {(0, 0): 0}
    W: dict[tuple[int, int], int] = {(0, 0): 1}

    def A(i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return (
            B.get((i, j), 0) + R.get((i, j), 0) + R.get((j, i), 0) + W.get((i, j), 0)
        )

    def get(d: dict, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return d.get((i, j), 0)

    for t in range(1, n):
        B2: dict[tuple[int, int], int] = {}
        R2: dict[tuple[int, int], int] = {}
        W2: dict[tuple[int, int], int] = {}
        for i in range(2 * t + 1):
            for j in range(2 * t + 1 - i):
                b = (
                    A(i + 1, j)
                    + A(i, j + 1)
                    + get(R, i - 1, j + 2)
                    + get(W, i - 1, j + 2)
                    + get(R, j - 1, i + 2)  # G(i+2, j-1) by transpose
                    + get(W, i + 2, j - 1)
                )
                if b:
                    B2[(i, j)] = b
                r = (
                    A(i + 1, j - 1)
                    + A(i, j)
                    + get(R, i - 1, j + 1)
                    + get(W, i - 1, j + 1)
                )
                if r:
                    R2[(i, j)] = r
                w = A(i - 1, j) + A(i, j - 1)
                if w:
                    W2[(i, j)] = w
        B, R, W = B2, R2, W2
    return A(0, 0)


def count_O(n: int) -> int:
    """Weak leftright excursions with ``n`` points (one-sided weak classes).

    The recurrence is derived by first-point removal from the weak
    leftright step set (steps written target-relative as (dx, dy)):

        black:  (0,1), (1,0)  -> any color
        red:    (0,0)         -> any;  (1,-1) -> green/white
        green:  (0,0)         -> any;  (-1,1) -> red/white
        white:  (-1,0) -> red/white;   (0,-1) -> green/white
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    B: dict[tuple[int, int], int] = {}
    R: dict[tuple[int, int], int] = {(0, 0): 0}
    W: dict[tuple[int, int], int] = {(0, 0): 1}

    def A(i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return (
            B.get((i, j), 0) + R.get((i, j), 0) + R.get((j, i), 0) + W.get((i, j), 0)
        )

    def get(d: dict, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return d.get((i, j), 0)

    for t in range(1, n):
        B2: dict[tuple[int, int], int] = {}
        R2: dict[tuple[int, int], int] = {}
        W2: dict[tuple[int, int], int] = {}
        for i in range(2 * t + 1):
            for j in range(2 * t + 1 - i):
                b = A(i, j + 1) + A(i + 1, j)
                if b:
                    B2[(i, j)] = b
                r = (
                    A(i, j)
                    + get(R, j - 1, i + 1)  # G(i+1, j-1) by transpose
                    + get(W, i + 1, j - 1)
                )
                if r:
                    R2[(i, j)] = r
                w = (
                    get(R, i - 1, j)
                    + get(W, i - 1, j)
                    + get(R, j - 1, i)  # G(i, j-1) by transpose
                    + get(W, i, j - 1)
                )
                if w:
                    W2[(i, j)] = w
        B, R, W = B2, R2, W2
    return A(0, 0)


# ---------------------------------------------------------------------------
# Non-intersecting triples of lattice paths
# ---------------------------------------------------------------------------


def _paths(dx: int, dy: int) -> int:
    import math

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
    """All closed excursions with ``n`` points (level rules only)."""
    pts: list[WalkPoint] = []

    def rec(h: int, remaining: int) -> Iterator[HistoryQuadrantWalk]:
        if remaining == 1:
            if h == 0:
                pts.append(WalkPoint(0, 0, "white"))
                yield HistoryQuadrantWalk(tuple(pts), variant)
                pts.pop()
            return
        for c in COLORS:
            h2 = h + _LEVEL_STEP[c]
            # the remaining points must be able to come back to level 0
            if h2 < 0 or h2 > remaining - 2:
                continue
            for x in range(h + 1):
                pts.append(WalkPoint(x, h - x, c))
                yield from rec(h2, remaining - 1)
                pts.pop()

    if n == 1:
        yield HistoryQuadrantWalk((WalkPoint(0, 0, "white"),), variant)
        return
    yield from rec(0, n)
