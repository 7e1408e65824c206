"""Rectangulation geometry: segments, labelings, windmills, guillotine cuts.

Conventions
-----------
- Coordinates are non-negative integers; ``y`` increases **downward**, so
  "above" means smaller ``y``.  A box is ``(x1, y1, x2, y2)`` with
  ``x1 < x2`` (left/right) and ``y1 < y2`` (top/bottom).
- A rectangulation of size ``n`` tiles the box ``[0, width] x [0, height]``
  with ``n`` rectangles whose interiors are disjoint.  It must be *generic*:
  no point where four rectangles meet.
- :func:`from_rects` normalizes coordinates to be *compact* (every internal
  grid line hosts part of a wall), but the constructor accepts any integer
  embedding: the diagonal representative produced by the forward weak
  algorithm lives on the n x n grid, which is generally not compact.
  Canonical equality of classes is defined via :func:`strong_key` (strong)
  and :func:`weak_key` (weak), never via raw coordinates.
- Labels ``1..n`` are the NW-SE labeling: ``i < j`` iff rectangle ``i`` is
  left of or above rectangle ``j`` (in the transitive wall-sharing sense).
  Each wall holds one pair of consecutive labels of either labeling, read
  off its sides' ends (:func:`_wall_covers`).
- A *segment* is a maximal straight interval of internal walls.  A valid
  rectangulation of size ``n`` has exactly ``n - 1`` segments.
- A drawing stores its boxes, in label order, and its walls
  ``(orientation, side_a, side_b)``, one per segment with its sides in
  order along it: :func:`_tile_walls` validates outside input and yields
  them, and the :class:`_Staircase` of an insertion builds them for the
  forward maps.  ``Rect`` and ``Segment`` objects are views, built on
  first read of :attr:`Rectangulation.rects` / ``.segments``.
- Each end of a segment lies on the frame or strictly inside one
  perpendicular segment, its *hook*, which the walls alone name.  A
  windmill is a 4-cycle of hooks, and a drawing is guillotine exactly when
  it has none: :func:`find_windmills`, :func:`is_guillotine` and the
  windmill flag of :func:`rectlab.perm.classify` are one O(n) walk over
  the walls (:func:`_windmills`).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


class RectangulationError(ValueError):
    """Base class for invalid rectangulation input."""


class OverlapError(RectangulationError):
    """Two rectangles have intersecting interiors."""


class GapError(RectangulationError):
    """The union of the rectangles leaves an internal hole."""


class NonRectangularUnionError(RectangulationError):
    """The union of the rectangles is not a full box."""


class NonGenericError(RectangulationError):
    """Four rectangles meet in a point (a crossing joint)."""


@dataclass(frozen=True, order=True)
class Rect:
    """An axis-aligned rectangle with its NW-SE label."""

    label: int
    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        for v in (self.label, self.x1, self.y1, self.x2, self.y2):
            if type(v) is not int:  # bool is an int subclass; reject it too
                raise RectangulationError("rectangle fields must be integers: %r" % (self,))
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise RectangulationError(
                "degenerate rectangle %r (need x1 < x2 and y1 < y2)" % (self,)
            )

    @property
    def box(self) -> tuple[int, int, int, int]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class Segment:
    """A maximal internal wall interval.

    ``orientation`` is ``"v"`` (vertical, at ``x = line``, spanning
    ``lo <= y <= hi``) or ``"h"`` (horizontal, at ``y = line``, spanning
    ``lo <= x <= hi``).  ``side_a`` lists the labels of rectangles whose
    sides lie on the segment on the left (vertical) / above (horizontal)
    side; ``side_b`` the right / below side.  Both are ordered along the
    segment.
    """

    orientation: str
    line: int
    lo: int
    hi: int
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


class Rectangulation:
    """An immutable generic rectangulation: ``boxes[i]``, the box ``(x1, y1,
    x2, y2)`` of label ``i + 1``, and ``walls``, one ``(orientation, side_a,
    side_b)`` per segment in segment order.  Readers use these two tuples;
    :attr:`rects` and :attr:`segments` are views built on first read.

    Outside input comes through :func:`from_rects`, :func:`from_json` or the
    constructor (normalized, NW-SE-labeled rectangles), each validating once
    in :func:`_tile_walls`; built drawings come from :meth:`_built`.  Both
    assemble the walls alike; the labelings are read off the walls.
    """

    def __init__(self, rects: Iterable[Rect]):
        rect_list = sorted(rects, key=lambda r: r.label)
        if not rect_list:
            raise RectangulationError("a rectangulation has at least one rectangle")
        n = len(rect_list)
        if [r.label for r in rect_list] != list(range(1, n + 1)):
            raise RectangulationError(
                "labels must be exactly 1..%d, got %r" % (n, [r.label for r in rect_list])
            )
        if min(r.x1 for r in rect_list) != 0 or min(r.y1 for r in rect_list) != 0:
            raise RectangulationError("coordinates must start at 0 (not normalized)")
        self._assemble(tuple(r.box for r in rect_list), _tile_walls(rect_list))
        # A generic tiling with n - 1 walls: its covers are the consecutive
        # pairs of the NW-SE order, which is 1..n iff each is (i, i + 1).
        if any(j != i + 1 for i, j in _wall_covers(self.walls)):
            raise RectangulationError(
                "labels are not the NW-SE labeling (expected order %r)" % (nwse_labeling(self),)
            )

    @classmethod
    def _built(cls, boxes: Sequence[tuple[int, int, int, int]], walls) -> Rectangulation:
        """Trusted geometry: ``boxes[i]`` is the box of label ``i + 1``."""
        self = cls.__new__(cls)
        self._assemble(tuple(boxes), walls)
        return self

    def _assemble(self, boxes: tuple[tuple[int, int, int, int], ...], walls) -> None:
        """Fields from ``boxes`` (in label order) and ``walls``; checks only
        that both sides of each wall span the same interval."""
        self.boxes = boxes
        self.width = max(b[2] for b in boxes)
        self.height = max(b[3] for b in boxes)
        keyed = []
        for orientation, side_a, side_b in walls:
            span, other = _spans(boxes, orientation, side_a, side_b)
            if span != other:
                raise RectangulationError(
                    "segment sides %r and %r span different intervals" % (side_a, side_b)
                )
            wall = (orientation, tuple(side_a), tuple(side_b))
            keyed.append((orientation != "v", *span[:2], wall))  # segment order
        keyed.sort()
        self.walls = tuple(k[-1] for k in keyed)

    # -- views ---------------------------------------------------------------

    @functools.cached_property
    def rects(self) -> tuple[Rect, ...]:
        return tuple(Rect(i, *box) for i, box in enumerate(self.boxes, 1))

    @functools.cached_property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(
            Segment(wall[0], *_spans(self.boxes, *wall)[0], *wall[1:]) for wall in self.walls
        )

    def rect(self, label: int) -> Rect:
        return self.rects[label - 1]

    @property
    def n(self) -> int:
        return len(self.boxes)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rectangulation):
            return NotImplemented
        return self.boxes == other.boxes

    def __hash__(self) -> int:
        return hash(self.boxes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Rectangulation(n=%d, %dx%d)" % (self.n, self.width, self.height)


def _spans(boxes, orientation: str, side_a, side_b) -> tuple[tuple[int, int, int], ...]:
    """``(line, lo, hi)`` of a wall as each side sees it: the line its first
    box's edge lies on, and the span from that box to its last."""
    k = orientation == "v"  # index of a box's start along the wall
    a, b = boxes[side_a[0] - 1], boxes[side_b[0] - 1]
    return (
        (a[3 - k], a[k], boxes[side_a[-1] - 1][k + 2]),
        (b[1 - k], b[k], boxes[side_b[-1] - 1][k + 2]),
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _tile_walls(rects: Sequence[Rect]) -> list[tuple[str, list[int], list[int]]]:
    """Validate a tiling; return its walls in :meth:`Rectangulation._built`'s
    format, ``(orientation, side_a, side_b)``, vertical lines first.

    The rectangles on each internal line form maximal runs on either side,
    and the boxes tile their frame exactly once iff both sides of every line
    form the same runs and the areas sum to the frame's: equal runs leave the
    coverage depth no jump across any line, so it is constant, and by the
    area it is 1.  An exact cover has ``n = 1 + segments + crossings``, so
    ``n - 1`` walls is genericity.  Input that fails a test is named in a
    second pass: :func:`_coverage_error` raises :class:`OverlapError`,
    :class:`GapError` or :class:`NonRectangularUnionError`, and a corner count
    names the crossing of a :class:`NonGenericError`.
    """
    width, height = max(r.x2 for r in rects), max(r.y2 for r in rects)
    exact = sum((r.x2 - r.x1) * (r.y2 - r.y1) for r in rects) == width * height
    walls = []
    for orientation, size, key in (
        ("v", width, lambda r: (r.x2, r.x1, r.y1, r.y2)),
        ("h", height, lambda r: (r.y2, r.y1, r.x1, r.x2)),
    ):
        # Per internal line: (lo, hi, label) of the rectangles ending on
        # it (side a: left/above) and of those starting on it (side b).
        sides: dict[int, tuple[list, list]] = {}
        for r in rects:
            end, start, lo, hi = key(r)
            if end < size:
                sides.setdefault(end, ([], []))[0].append((lo, hi, r.label))
            if start > 0:
                sides.setdefault(start, ([], []))[1].append((lo, hi, r.label))
        for line in sorted(sides):
            side_a, side_b = map(_runs, sides[line])
            exact = exact and [run[:2] for run in side_a] == [run[:2] for run in side_b]
            walls += [(orientation, a[2], b[2]) for a, b in zip(side_a, side_b)]
    if not exact:
        raise _coverage_error(rects)
    if len(walls) != len(rects) - 1:
        corners = Counter(
            p for r in rects for p in ((r.x1, r.y1), (r.x2, r.y1), (r.x1, r.y2), (r.x2, r.y2))
        )
        crossing = next(p for p, c in corners.items() if c == 4)
        raise NonGenericError("four rectangles meet at %r (non-generic crossing)" % (crossing,))
    return walls


def _coverage_error(rects: Sequence[Rect]) -> RectangulationError:
    """The error for boxes that do not cover their frame exactly once, named
    at a cell of a grid over the compacted image: the first overlapping cell
    row by row, else the leftmost uncovered one, a hole unless some uncovered
    cell touches the border (then the union is not a box)."""
    # Ordering of coordinates is all that matters, and it keeps the cell
    # grid at most (2n)^2.
    xs = sorted({v for r in rects for v in (r.x1, r.x2)})
    ys = sorted({v for r in rects for v in (r.y1, r.y2)})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    cw, ch = len(xs) - 1, len(ys) - 1
    cover = [[0] * cw for _ in range(ch)]
    for r in rects:
        for y in range(yi[r.y1], yi[r.y2]):
            row = cover[y]
            for x in range(xi[r.x1], xi[r.x2]):
                row[x] += 1
    over = [(x, y) for y in range(ch) for x in range(cw) if cover[y][x] > 1]
    if over:
        x, y = over[0]
        return OverlapError("rectangle interiors overlap near (%d, %d)" % (xs[x], ys[y]))
    missing = {(x, y) for y in range(ch) for x in range(cw) if cover[y][x] == 0}
    boundary = any(x == 0 or y == 0 or x == cw - 1 or y == ch - 1 for x, y in missing)
    x, y = min(missing)
    if boundary:
        return NonRectangularUnionError(
            "union of rectangles is not a box (uncovered near (%d, %d))" % (xs[x], ys[y])
        )
    return GapError("hole inside the tiling near (%d, %d)" % (xs[x], ys[y]))


def _runs(side: list[tuple[int, int, int]]) -> list[list]:
    """Maximal runs of abutting ``(lo, hi, label)`` intervals on one side of
    a line, in order along it: ``[lo, hi, labels]`` each."""
    runs: list[list] = []
    for lo, hi, q in sorted(side):
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
            runs[-1][2].append(q)
        else:
            runs.append([lo, hi, [q]])
    return runs


def from_rects(boxes: Iterable[Sequence[int | Fraction]]) -> Rectangulation:
    """Build a rectangulation from raw ``(x1, y1, x2, y2)`` boxes.

    Coordinates may be ints or exact :class:`~fractions.Fraction` values
    (floats are rejected: compaction relies on exact comparisons).  Input
    labels (if any) are ignored: coordinates are compacted to 0-based
    integers, and labels are assigned by the NW-SE order.  Raises a specific
    :class:`RectangulationError` subclass when the input does not tile a box
    generically.  The tiling is validated once; relabeling moves the walls.
    """
    raw = []
    for b in boxes:
        vals = tuple(b.box if isinstance(b, Rect) else b)
        if len(vals) != 4:
            raise RectangulationError("expected 4 coordinates per box, got %r" % (vals,))
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise RectangulationError(
                    "coordinates must be ints or Fractions, got %r" % (v,)
                )
        raw.append(vals)
    if not raw:
        raise RectangulationError("a rectangulation has at least one rectangle")
    rects = [Rect(i, *b) for i, b in enumerate(sorted(_compact(raw)), 1)]
    walls = _tile_walls(rects)
    order = _linear_order(len(rects), walls)
    rank = {q: i for i, q in enumerate(order, 1)}  # provisional label -> NW-SE label
    return Rectangulation._built(
        [rects[q - 1].box for q in order],
        [(o, [rank[q] for q in a], [rank[q] for q in b]) for o, a, b in walls],
    )


def _compact(boxes: Sequence[Sequence]) -> list[tuple[int, int, int, int]]:
    """Each ``(x1, y1, x2, y2)`` with every coordinate replaced by its rank
    among the distinct values on its axis."""
    xs = sorted({v for b in boxes for v in (b[0], b[2])})
    ys = sorted({v for b in boxes for v in (b[1], b[3])})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    return [(xi[b[0]], yi[b[1]], xi[b[2]], yi[b[3]]) for b in boxes]


def _diagonal_boxes(n: int, walls) -> list[tuple[int, int, int, int]]:
    """The boxes of the diagonal drawing with these walls, ``boxes[i]`` for
    label ``i + 1``: every segment of a diagonal drawing meets the diagonal,
    so its line is the last label of its side a."""
    x1, y1, x2, y2 = [0] * (n + 1), [0] * (n + 1), [n] * (n + 1), [n] * (n + 1)
    for orientation, side_a, side_b in walls:
        near, far = (x1, x2) if orientation == "v" else (y1, y2)
        for j in side_a:
            far[j] = side_a[-1]
        for j in side_b:
            near[j] = side_a[-1]
    return list(zip(x1, y1, x2, y2))[1:]


class _Staircase:
    """The staircase of an insertion (see :mod:`rectlab.biject`): peak
    bookkeeping shared by the forward maps, the walk encoding and the class
    flags of :func:`rectlab.perm.classify`, and the walls it builds.  Both
    maps keep every rectangle-segment adjacency, so these are the segments
    of both.

    Each step is O(1) but for placing ``j`` among the peaks (one bisection
    and one slice assignment).  The inserted labels, with the sentinels
    ``0`` and ``n + 1``, form runs of consecutive integers: ``run[x]`` is
    the other end of the run that ends at ``x``, or -1 when ``x`` is not
    inserted (entries inside a run are never read).  The neighbours of a
    label not yet inserted are run ends or not inserted, so its alignment
    is two reads, and inserting it joins its neighbours' runs by writing
    their outer ends (the line case of Gabow and Tarjan's disjoint-set
    union, 1985).  Wall sides only grow by appends.
    """

    __slots__ = ("labels", "run", "right", "top", "built")

    def __init__(self, n: int):
        self.labels = [0, n + 1]
        self.run = [0] + [-1] * n + [n + 1]
        # the walls right of / above each label; the sentinels' sides lie on
        # the box boundary, which takes appends like a wall but is no segment
        edge = ("", [], [])
        self.right, self.top = [edge] * (n + 2), [edge] * (n + 2)
        self.built: list[tuple[str, list[int], list[int]]] = []

    @property
    def walls(self) -> list[tuple[str, list[int], list[int]]]:
        """The walls built so far, ``(orientation, side_a, side_b)`` with
        sides in order along them: vertical sides grow bottom-up, so they
        are read reversed.  Linear in ``n``: read it once, at the end."""
        return [("v", w[1][::-1], w[2][::-1]) if w[0] == "v" else w for w in self.built]

    def insert(self, j: int) -> tuple[int, int, int, int, bool, bool]:
        """Insert label ``j``; returns (a, b, valley_index, n_valleys,
        top_aligned, right_aligned) describing the state *before* insertion.
        """
        labels = self.labels
        idx = bisect.bisect_left(labels, j)
        if not 0 < idx < len(labels) or labels[idx] == j:
            raise RectangulationError(
                "staircase invariant violated at %d: no valley strictly between"
                " two peaks holds it" % j
            )
        a, b = labels[idx - 1], labels[idx]
        valley_index, n_valleys = idx - 1, len(labels) - 1
        # aligned iff every label strictly between a and j (j and b) is in;
        # a and b are, so iff the run through j - 1 (j + 1) reaches a (b)
        run = self.run
        lo, hi = run[j - 1], run[j + 1]
        top = 0 <= lo <= a
        right = hi >= b
        if lo < 0:
            lo = j
        if hi < 0:
            hi = j
        run[lo], run[hi] = hi, lo
        labels[idx - top : idx + right] = [j]  # j replaces the peaks it aligns with
        idx -= top
        # only the gaps next to j changed; j may have replaced a sentinel
        if (idx and j - labels[idx - 1] < 2) or (
            idx + 1 < len(labels) and labels[idx + 1] - j < 2
        ):
            raise RectangulationError(
                "staircase invariant violated at %d: consecutive peak labels"
                " differ by < 2" % j
            )
        R, T = self.right, self.top
        if top:
            T[j] = T[a]
        else:
            T[j] = wall = ("h", [], [])
            self.built.append(wall)
        if right:
            R[j] = R[b]
        else:
            R[j] = wall = ("v", [], [])
            self.built.append(wall)
        # j is right of R[a], above T[b], below T[j] and left of R[j]
        R[a][2].append(j)
        T[b][1].append(j)
        T[j][2].append(j)
        R[j][1].append(j)
        return a, b, valley_index, n_valleys, top, right


def _wall_covers(walls, swne: bool = False) -> Iterator[tuple[int, int]]:
    """Per wall, the last label of its earlier side and the first of its
    later side in NW-SE order (SW-NE with ``swne``, which reads vertical
    sides bottom-up and puts below first): the ``n - 1`` consecutive pairs."""
    for orientation, side_a, side_b in walls:
        if not swne:
            yield side_a[-1], side_b[0]
        else:
            yield (side_a[0], side_b[-1]) if orientation == "v" else (side_b[-1], side_a[0])


def _cycle_pair(n: int, succ: list[list[int]], placed) -> tuple[int, int]:
    """Two labels on a cycle of ``succ`` after a Kahn pass placed ``placed``:
    each label left has a predecessor left, so walking back repeats one."""
    left = set(range(1, n + 1)).difference(placed)
    pred = {j: i for i in left for j in succ[i] if j in left}
    seen = set()
    j = min(left)
    while j not in seen:
        seen.add(j)
        j = pred[j]
    return pred[j], j


_CYCLIC = (ValueError, "relation is cyclic: %d and %d lie on a cycle")


def _topological_order(n: int, pairs, reverse: bool = False, cyclic=_CYCLIC) -> list[int]:
    """The least topological order of the relation ``pairs`` on labels 1..n
    (the greatest with ``reverse``): one Kahn (1962) pass whose ready labels
    wait in a heap.  On a cycle raises ``cyclic[0]`` with the text
    ``cyclic[1]`` naming two of its labels (:func:`_cycle_pair`)."""
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for i, j in pairs:
        succ[i].append(j)
        indeg[j] += 1
    sign = -1 if reverse else 1
    ready = [sign * j for j in range(1, n + 1) if not indeg[j]]
    heapq.heapify(ready)
    order = []
    while ready:
        i = sign * heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                heapq.heappush(ready, sign * j)
    if len(order) < n:
        error, text = cyclic
        raise error(text % _cycle_pair(n, succ, order))
    return order


def _linear_order(n: int, walls, swne: bool = False) -> tuple[int, ...]:
    """Labels ``1..n`` in NW-SE order (SW-NE with ``swne``): consecutive
    labels of either order share a wall, one pair per wall, so the order is
    the unique topological order of the ``n - 1`` :func:`_wall_covers`, and
    each two consecutive labels of the least one must be a cover.  Raises
    :class:`RectangulationError` naming two labels that lie on a cycle, or
    the first consecutive two that are no cover: no label can come between
    comparable ones, so they are not comparable."""
    covers = set(_wall_covers(walls, swne))
    cyclic = (RectangulationError, "rectangles %d and %d lie on a cycle of the order")
    order = _topological_order(n, covers, cyclic=cyclic)
    for pair in zip(order, order[1:]):
        if pair not in covers:
            raise RectangulationError("rectangles %d and %d are not comparable" % pair)
    return tuple(order)


def nwse_labeling(r: Rectangulation) -> tuple[int, ...]:
    """Labels in NW-SE reading order: ``i`` before ``j`` iff left-of or above.

    For a valid rectangulation this is ``(1, 2, .., n)`` by the labeling
    invariant.
    """
    return _linear_order(r.n, r.walls)


def swne_labeling(r: Rectangulation) -> tuple[int, ...]:
    """Labels in SW-NE (anti-diagonal) reading order.

    ``i`` before ``j`` iff ``i`` left of ``j`` or ``j`` above ``i``.
    """
    return _linear_order(r.n, r.walls, swne=True)


def from_json(text: str) -> Rectangulation:
    """Parse the JSON interchange form and revalidate all invariants."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RectangulationError(
            "invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from None
    except RecursionError:
        raise RectangulationError("JSON nested too deeply to parse") from None
    if not isinstance(data, dict) or not isinstance(data.get("rects"), list):
        raise RectangulationError('JSON must be an object with a "rects" array')
    n = _json_int(data, "n", "document") if "n" in data else None
    rects = []
    for i, obj in enumerate(data["rects"], start=1):
        where = "rectangle #%d" % i
        if not isinstance(obj, dict):
            raise RectangulationError("%s must be a JSON object" % where)
        rects.append(
            Rect(*(_json_int(obj, f, where) for f in ("label", "x1", "y1", "x2", "y2")))
        )
    r = Rectangulation(rects)
    if n is not None and n != r.n:
        raise RectangulationError(
            'field "n" (%d) disagrees with the number of rectangles (%d)' % (n, r.n)
        )
    return r


def _json_int(obj: dict, field: str, where: str) -> int:
    """The exact integer ``obj[field]``; floats, bools and strings are rejected."""
    if field not in obj:
        raise RectangulationError('%s: missing field "%s"' % (where, field))
    v = obj[field]
    if isinstance(v, bool) or not isinstance(v, int):
        raise RectangulationError(
            '%s: field "%s" must be an integer, got %s' % (where, field, json.dumps(v))
        )
    return v


def to_json(r: Rectangulation) -> str:
    """Serialize to the JSON interchange form (deterministic bytes)."""
    return json.dumps(
        {
            "n": r.n,
            "rects": [
                {"label": i, "x1": x1, "y1": y1, "x2": x2, "y2": y2}
                for i, (x1, y1, x2, y2) in enumerate(r.boxes, 1)
            ],
        },
        separators=(", ", ": "),
    )


# ---------------------------------------------------------------------------
# Structure predicates
# ---------------------------------------------------------------------------


def is_diagonal(r: Rectangulation) -> bool:
    """True iff drawn on the n x n grid with rectangle ``j`` meeting cell ``j``
    of the main (NW-SE) diagonal."""
    return r.width == r.height == r.n and all(
        x1 < j <= x2 and y1 < j <= y2 for j, (x1, y1, x2, y2) in enumerate(r.boxes, 1)
    )


def segment_joint_counts(r: Rectangulation) -> list[tuple[int, int]]:
    """Per segment: how many perpendicular segments end strictly inside it,
    split by side (side_a count, side_b count).

    For a vertical segment, ``side_a`` counts horizontal segments arriving
    from the left, ``side_b`` from the right; for a horizontal segment,
    arrivals from above and from below.  A side with ``k`` rectangles meets
    ``k - 1`` such T-joints.
    """
    return [(len(side_a) - 1, len(side_b) - 1) for _, side_a, side_b in r.walls]


def multiplicity(r: Rectangulation) -> int:
    """Number of strong classes refining this weak class: the product over
    segments of C(a+b, a) with (a, b) the per-side joint counts.

    The value depends only on the weak class of ``r``.
    """
    out = 1
    for a, b in segment_joint_counts(r):
        out *= math.comb(a + b, a)
    return out


def is_one_sided(r: Rectangulation) -> bool:
    """True iff every segment has all its perpendicular arrivals on one side."""
    return all(a == 0 or b == 0 for a, b in segment_joint_counts(r))


def has_z_wall(r: Rectangulation) -> bool:
    """True iff some vertical segment carries a left-side rectangle whose
    bottom corner lies strictly above a right-side rectangle's top corner,
    both corners strictly inside the segment: sides run top-down, so the
    first left bottom lies above the last right top (a lone box's do not)."""
    box = r.boxes
    return any(o == "v" and box[a[0] - 1][3] < box[b[-1] - 1][1] for o, a, b in r.walls)


# ---------------------------------------------------------------------------
# Guillotine structure
# ---------------------------------------------------------------------------


def guillotine_tree(r: Rectangulation):
    """Cut decomposition, or ``None`` when the rectangulation is not guillotine.

    Tree nodes are ``("leaf", label)`` or ``(orientation, coordinate,
    first_subtree, second_subtree)`` with orientation ``"v"``/``"h"``; the cut
    chosen at each node is the leftmost vertical full cut, else the topmost
    horizontal one (any full cut of a guillotine rectangulation works, the
    choice just fixes a deterministic tree).

    A full cut of a part is a segment spanning it: genericity stops the
    segment at the cuts (or the frame) that bound the part.  So each part
    looks its cut up by one bisection among the lines of the segments with
    its span, and the parts wait on an explicit queue; O(n log n) overall.
    """
    leaf = {box: i for i, box in enumerate(r.boxes, 1)}
    lines: dict[tuple[str, int, int], list[int]] = {}
    for wall in r.walls:  # sorted by line
        line, lo, hi = _spans(r.boxes, *wall)[0]
        lines.setdefault((wall[0], lo, hi), []).append(line)
    parts = [(0, 0, r.width, r.height)]
    cuts = []  # per part: its leaf, or (orientation, line, first child's index)
    for x1, y1, x2, y2 in parts:  # grows while iterated: parents before children
        if (x1, y1, x2, y2) in leaf:
            cuts.append(("leaf", leaf[x1, y1, x2, y2]))
            continue
        for orientation, span, lo, hi in (("v", (y1, y2), x1, x2), ("h", (x1, x2), y1, y2)):
            found = lines.get((orientation, *span), ())
            i = bisect.bisect_right(found, lo)
            if i < len(found) and found[i] < hi:
                c = found[i]
                cuts.append((orientation, c, len(parts)))
                if orientation == "v":
                    parts += [(x1, y1, c, y2), (c, y1, x2, y2)]
                else:
                    parts += [(x1, y1, x2, c), (x1, c, x2, y2)]
                break
        else:
            return None
    trees: list = [None] * len(parts)
    for i in reversed(range(len(parts))):  # children before parents
        cut = cuts[i]
        if cut[0] != "leaf":
            orientation, c, k = cut
            cut = (orientation, c, trees[k], trees[k + 1])
        trees[i] = cut
    return trees[0]


def is_guillotine(r: Rectangulation) -> bool:
    """True iff the rectangulation can be fully decomposed by straight cuts.

    A generic rectangulation is guillotine exactly when it has no windmill,
    so this is one hook walk over the walls, O(n); :func:`guillotine_tree`
    builds the cuts themselves.
    """
    return next(_windmills(r.n, r.walls), None) is None


@dataclass(frozen=True)
class Windmill:
    """Four segments whose ends spiral around a central region.

    ``chirality`` is ``"cw"`` when the top horizontal wall's right end lies
    strictly inside the right vertical wall (and so on around the cycle);
    ``"ccw"`` is the mirror image.
    """

    chirality: str
    top: Segment
    right: Segment
    bottom: Segment
    left: Segment


def find_windmills(r: Rectangulation) -> list[Windmill]:
    """All windmills, each reported once with a fixed role assignment: by
    top wall in segment order, the ``ccw`` one before the ``cw`` one."""
    s = r.segments
    return [
        Windmill(chirality, s[top], s[right], s[bottom], s[left])
        for chirality, top, right, bottom, left in _windmills(r.n, r.walls)
    ]


def _windmills(n: int, walls) -> Iterator[tuple[str, int, int, int, int]]:
    """Every windmill among the walls ``(orientation, side_a, side_b)`` of a
    drawing of size ``n``, as ``(chirality, top, right, bottom, left)`` wall
    indices, in the order of :func:`find_windmills`.

    In a generic drawing each end of a segment lies on the frame or strictly
    inside exactly one perpendicular segment, its *hook*, and the walls
    alone name it: a horizontal wall's right (left) end hooks into the wall
    right of its last (left of its first) side-a rectangle, a vertical
    wall's bottom (top) end into the wall below its last (above its first)
    side-a rectangle.  A windmill is a 4-cycle of hooks: ``cw`` runs from
    the top wall's right end through a bottom end, a left end and a top end
    back to it; ``ccw`` is its mirror image.  One pass: O(n).
    """
    ends = []  # per wall: orientation, first and last side-a label
    # the wall right of / left of / below / above each label; -1: the frame
    right, left, below, above = ([-1] * (n + 1) for _ in range(4))
    for w, (orientation, side_a, side_b) in enumerate(walls):
        before, after = (right, left) if orientation == "v" else (below, above)
        for q in side_a:
            before[q] = w
        for q in side_b:
            after[q] = w
        ends.append((orientation, side_a[0], side_a[-1]))
    for top, (orientation, first, last) in enumerate(ends):
        if orientation != "h":
            continue
        # ccw: the top wall's left end, then the bottom wall's right end; cw:
        # the top wall's right end, then the bottom wall's left end
        for chirality, v1, turn, k in (
            ("ccw", left[first], right, 2),
            ("cw", right[last], left, 1),
        ):
            bottom = below[ends[v1][2]] if v1 >= 0 else -1
            v2 = turn[ends[bottom][k]] if bottom >= 0 else -1
            if v2 >= 0 and above[ends[v2][1]] == top:
                if chirality == "cw":
                    yield chirality, top, v1, bottom, v2
                else:
                    yield chirality, top, v2, bottom, v1


# ---------------------------------------------------------------------------
# Canonical keys (delegate to the algorithms module)
# ---------------------------------------------------------------------------


def weak_key(r: Rectangulation):
    """The canonical permutation of the weak class: the leftmost extension
    of the weak poset, read as the least topological order of the touching
    pairs of the diagonal boxes that the walls place (no drawing is built).
    Two rectangulations are weakly equivalent iff their keys agree."""
    from . import biject

    return biject._least_order(r.n, biject._wall_pairs(_diagonal_boxes(r.n, r.walls), r.walls))


def strong_key(r: Rectangulation):
    """The canonical permutation of the strong class: the leftmost extension
    of the strong poset, read as the least topological order of its
    generating pairs (no closure is built).  Strong equivalence iff keys
    agree."""
    from . import biject

    return biject._least_order(r.n, biject._wall_pairs(r.boxes, r.walls, strong=True))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(r: Rectangulation, fmt: str = "ascii") -> str:
    """Deterministic drawing of the rectangulation (``"ascii"`` or ``"svg"``)."""
    if fmt == "ascii":
        return _render_ascii(r)
    if fmt == "svg":
        return _render_svg(r)
    raise ValueError("unsupported render format %r (use 'ascii' or 'svg')" % (fmt,))


_CELL_W = 4
_CELL_H = 2


def _render_ascii(r: Rectangulation) -> str:
    rows = r.height * _CELL_H + 1
    cols = r.width * _CELL_W + 1
    grid = [[" "] * cols for _ in range(rows)]

    def hline(y: int, x1: int, x2: int) -> None:
        gy = y * _CELL_H
        for gx in range(x1 * _CELL_W, x2 * _CELL_W + 1):
            grid[gy][gx] = "-"

    def vline(x: int, y1: int, y2: int) -> None:
        gx = x * _CELL_W
        for gy in range(y1 * _CELL_H, y2 * _CELL_H + 1):
            grid[gy][gx] = "|"

    for x1, y1, x2, y2 in r.boxes:
        hline(y1, x1, x2)
        hline(y2, x1, x2)
        vline(x1, y1, y2)
        vline(x2, y1, y2)
    for x1, y1, x2, y2 in r.boxes:
        for y in (y1, y2):
            for x in (x1, x2):
                grid[y * _CELL_H][x * _CELL_W] = "+"
    for label, (x1, y1, x2, y2) in enumerate(r.boxes, 1):
        text = str(label)
        gy = (y1 + y2) * _CELL_H // 2
        gx = (x1 + x2) * _CELL_W // 2 - len(text) // 2
        for i, ch in enumerate(text):
            grid[gy][gx + i] = ch
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


_SVG_UNIT = 40
_SVG_STROKE = 2


def _render_svg(r: Rectangulation) -> str:
    w = r.width * _SVG_UNIT
    h = r.height * _SVG_UNIT
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w, h, w, h)
    ]
    boxes = [[v * _SVG_UNIT for v in box] for box in r.boxes]
    for x1, y1, x2, y2 in boxes:
        parts.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="white" '
            'stroke="black" stroke-width="%d"/>' % (x1, y1, x2 - x1, y2 - y1, _SVG_STROKE)
        )
    for label, (x1, y1, x2, y2) in enumerate(boxes, 1):
        parts.append(
            '<text x="%d" y="%d" text-anchor="middle" dominant-baseline="central" '
            'font-family="sans-serif" font-size="16">%d</text>'
            % ((x1 + x2) // 2, (y1 + y2) // 2, label)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
