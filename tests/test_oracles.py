"""Reference implementations kept as oracles for the fast construction path.

The library reads a poset's order off its two extremal extensions, its
covers with a bitmask transitive reduction of that order, segments and
touching pairs from per-line groups, and strong-insertion coordinates as
integers on the ``2**n`` grid.  The straightforward versions below (a
fixpoint closure of the pairs, the cubic cover comprehension, all-pairs
scans and exact ``Fraction`` midpoints) must agree with them exactly: same
order, same covers, same segments, same JSON bytes.

Orders and joint counts are read from what a rectangulation already holds:
labelings are one topological pass over one cover per wall, joint counts
are side lengths minus one, extensions read cover predecessors, and keys
and extremal extensions are one least-first heap pass over the pairs that
generate the order, with no closure.  The pass over every pair across each
wall's two sides is kept as ``ref_linear_order``, and the strong pairs,
now one merge along each wall, must generate the same order as the
all-pairs reference and be a subset of it.  The comparison sort over the
fixpoint left-of and above closures, the all-pairs joint scan, the greedy
rescans over closed predecessor masks and the per-orientation copies they
replaced are the references here, and so are the recursive extension
enumerator and the memoized recursive count that the explicit stack and
the layered downset count replaced.  Each of them reads the fixpoint
closure of the pairs, never the library's order.

Walk counts come from one interval-window frontier DP.  Two independent
engines check it: the dense DP over every (x, y, color) cell with its own
copy of the step rules, and the hand-derived first-point-removal
recurrences for the leftright families U and O.

The forward maps build their drawings with the lean constructor, taking
the segments from the insertion.  The validating constructor is the
reference: rebuilt from the same boxes, it must give the same object
field by field and the same JSON bytes.  Outside JSON, fuzzed from both
images by one mutation each, must be accepted exactly when its tiling
validates and the comparison sort reads its labels as NW-SE.

A tiling is decided by its wall runs, one area sum and the wall count;
only refused input reaches the cell grid and the corner count that name
the failure.  The reference checks coverage on the whole cell grid, then
every interior corner, then the runs and their number, for the images of
small permutations under up to three mutations of their boxes: same walls,
or the same error class and message.

Walks decode through the permutation they encode, replayed over the NW-SE
order of the steps.  The reference decoder replays the staircase
geometrically with exact ``Fraction`` midpoints and never forms a
permutation.

Guillotine layers come from packed-integer products (Kronecker
substitution), computed for left count <= right count and mirrored.  The
reference is the direct recurrence: one dictionary update per pair of left
and right profiles, every profile computed on its own.

The class series are solved one coefficient at a time.  The references
are the Picard iterations they replaced: whole truncated-series passes of
the same systems until nothing changes.

Windmills are 4-cycles of one hook walk over the walls, and a drawing is
guillotine when it has none.  The four nested loops over the segments are
the reference for the list; the cut tree, whose own reference tracks each
part's box, is the reference for guillotine status; and the mesh matcher
is the reference for the windmill flag of ``classify``, which walks the
staircase insertion's walls.

Flips are the covers of the quotient of the weak order by strong
equivalence, read off the descents of a class's leftmost extension and the
ascents of its rightmost one, and the quotient graph's edges off the
descents of each class key.  The references map every member of the fiber,
and every permutation of S_n, through every adjacent swap.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import D1_RECTS, brick, build
from patterns import FORBIDDEN, avoids_all, matcher_flags
from rectlab import biject, counting, rect
from rectlab.cli import run
from rectlab.counting import (
    CountTable,
    schroder_series,
    weighted_guillotine_series,
)
from rectlab.biject import (
    FlipGraph,
    Poset,
    RealizerError,
    _default_max_n,
    _Staircase,
    _swap_positions,
    _wall_pairs,
    adjacency_poset,
    baxter_representative,
    count_linear_extensions,
    diagonal_representative,
    flips,
    gamma_s,
    gamma_w,
    leftmost_extension,
    linear_extensions,
    quotient_cover_graph,
    reflect_swne,
    rightmost_extension,
    strong_poset,
    weak_poset,
)
from rectlab.perm import Permutation, all_permutations, classify
from rectlab.rect import (
    GapError,
    NonGenericError,
    NonRectangularUnionError,
    OverlapError,
    Rect,
    Rectangulation,
    RectangulationError,
    Segment,
    Windmill,
    _tile_walls,
    _wall_covers,
    find_windmills,
    from_json,
    from_rects,
    guillotine_tree,
    has_z_wall,
    is_diagonal,
    is_guillotine,
    multiplicity,
    nwse_labeling,
    render,
    segment_joint_counts,
    strong_key,
    swne_labeling,
    to_json,
    weak_key,
)
from rectlab.walks import (
    COLORS,
    HistoryQuadrantWalk,
    WalkPoint,
    _O,
    _U,
    _excursion_counts,
    _permutation,
    closed_excursions,
    count_O,
    count_strong_rect,
    count_U,
    count_weak_rect,
    decode,
    decode_strong,
    encode_strong,
    encode_weak,
)

perms = lambda n: st.permutations(range(1, n + 1)).map(Permutation)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ref_closure_masks(n, edges):
    """Fixpoint transitive closure: OR successor masks until nothing changes."""
    succ = [0] * n
    for i, j in edges:
        succ[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            new = succ[i]
            for j in range(n):
                if succ[i] >> j & 1:
                    new |= succ[j]
            if new != succ[i]:
                succ[i] = new
                changed = True
    return succ


def ref_covers(n, pairs):
    """Cubic cover comprehension over the fixpoint closure (1-based pairs)."""
    reach = ref_closure_masks(n, [(i - 1, j - 1) for i, j in pairs])
    if any(reach[i] >> i & 1 for i in range(n)):
        raise ValueError("cyclic")
    bits = lambda m: [k for k in range(n) if m >> k & 1]
    return frozenset(
        (i + 1, j + 1)
        for i in range(n)
        for j in bits(reach[i])
        if not any(reach[k] >> j & 1 for k in bits(reach[i]) if k != j)
    )


def ref_adjacency_pairs(r):
    """All-pairs scan for touching left-of / below pairs."""
    pairs = set()
    for p in r.rects:
        for q in r.rects:
            if p.x2 == q.x1 and max(p.y1, q.y1) < min(p.y2, q.y2):
                pairs.add((p.label, q.label))
            if p.y1 == q.y2 and max(p.x1, q.x1) < min(p.x2, q.x2):
                pairs.add((p.label, q.label))
    return pairs


def _merge_runs(intervals):
    """Merge abutting/overlapping intervals into maximal runs."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((a, b) for a, b in out)


def ref_segments(r):
    """Per-line scans over every rectangle, vertical lines first."""
    out = []
    for orient, size, end, start, lo_of, hi_of in (
        ("v", r.width, "x2", "x1", "y1", "y2"),
        ("h", r.height, "y2", "y1", "x1", "x2"),
    ):
        at = lambda side, line: sorted(
            (q for q in r.rects if getattr(q, side) == line),
            key=lambda q: getattr(q, lo_of),
        )
        span = lambda q: (getattr(q, lo_of), getattr(q, hi_of))
        lines = {getattr(q, f) for q in r.rects for f in (end, start)}
        for line in sorted(v for v in lines if 0 < v < size):
            a, b = at(end, line), at(start, line)
            runs = _merge_runs(span(q) for q in a)
            assert runs == _merge_runs(span(q) for q in b)
            for lo, hi in runs:
                inside = lambda q: lo <= span(q)[0] and span(q)[1] <= hi
                out.append(
                    Segment(
                        orient, line, lo, hi,
                        tuple(q.label for q in a if inside(q)),
                        tuple(q.label for q in b if inside(q)),
                    )
                )
    return tuple(out)


def _ref_box(a, b, top, right):
    x1, y2 = a[2], b[1]
    y1 = a[1] if top else (a[1] + min(a[3], y2)) / 2
    x2 = b[2] if right else (max(b[0], x1) + b[2]) / 2
    return (x1, y1, x2, y2)


_ZERO, _ONE = Fraction(0), Fraction(1)
_REF_SENTINELS = ((-_ONE, _ZERO, _ZERO, _ONE), (_ZERO, _ONE, _ONE, 2 * _ONE))


def ref_staircase(pi):
    """Staircase insertion by its definition, on the set of inserted labels:
    ``j`` lands in the valley between the peaks ``a < j < b``, its top side
    aligns with ``a`` iff every label strictly between ``a`` and ``j`` is
    inserted, and its right side with ``b`` iff every label strictly between
    ``j`` and ``b`` is.  Returns each step's ``(a, b, valley_index,
    n_valleys, top, right)`` and the walls in the order they open, each
    side listed top-down or left to right as it grows."""
    n = len(pi)
    peaks, inserted = [0, n + 1], {0, n + 1}
    edge = ("", [], [])  # the box boundary: takes labels, is no segment
    top_of, right_of = {0: edge, n + 1: edge}, {0: edge, n + 1: edge}
    steps, walls = [], []
    for j in pi:
        i = min(k for k, p in enumerate(peaks) if p > j)
        a, b = peaks[i - 1], peaks[i]
        top = all(x in inserted for x in range(a + 1, j))
        right = all(x in inserted for x in range(j + 1, b))
        steps.append((a, b, i - 1, len(peaks) - 1, top, right))
        peaks[i - top : i + right] = [j]
        inserted.add(j)
        top_of[j] = top_of[a] if top else ("h", [], [])
        right_of[j] = right_of[b] if right else ("v", [], [])
        walls += [w for w, old in ((top_of[j], top), (right_of[j], right)) if not old]
        right_of[a][2].insert(0, j)  # j is the highest so far on that line
        top_of[b][1].append(j)
        top_of[j][2].append(j)
        right_of[j][1].insert(0, j)
    return steps, walls


def ref_gamma_s(pi):
    """Strong insertion with exact ``Fraction`` midpoints, then compaction."""
    n = pi.n
    geo = dict(zip((0, n + 1), _REF_SENTINELS))
    for j, (a, b, _, _, top, right) in zip(pi, ref_staircase(pi)[0]):
        geo[j] = _ref_box(geo[a], geo[b], top, right)
    xs = sorted({v for j in range(1, n + 1) for v in (geo[j][0], geo[j][2])})
    ys = sorted({v for j in range(1, n + 1) for v in (geo[j][1], geo[j][3])})
    return Rectangulation(
        Rect(j, *((ys if k % 2 else xs).index(geo[j][k]) for k in range(4)))
        for j in range(1, n + 1)
    )


def ref_decode_strong(w):
    """Walk replay with exact ``Fraction`` midpoints."""
    peaks = list(_REF_SENTINELS)
    boxes = []
    for p in w.points:
        top, right = p.color in ("green", "white"), p.color in ("red", "white")
        box = _ref_box(peaks[p.x], peaks[p.x + 1], top, right)
        idx = p.x
        if right:
            del peaks[idx + 1]
        if top:
            del peaks[idx]
            idx -= 1
        peaks.insert(idx + 1, box)
        boxes.append(box)
    assert len(peaks) == 1
    return from_rects(boxes)


def left_of(reach, i, j):
    """Rectangle ``i`` left of ``j`` via a chain of shared vertical walls,
    read off ``reach = ref_reach(r)``."""
    return bool(reach[0][i - 1] >> (j - 1) & 1)


def above(reach, i, j):
    """Rectangle ``i`` above ``j`` via a chain of shared horizontal walls."""
    return bool(reach[1][i - 1] >> (j - 1) & 1)


def ref_labeling(r, flip_above=False):
    """NW-SE (or, flipping above, SW-NE) labels by a comparison sort that
    asks ``left_of``/``above`` about each pair it compares."""
    reach = ref_reach(r)

    def cmp(i, j):
        if i == j:
            return 0
        li, lj = left_of(reach, i, j), left_of(reach, j, i)
        ai, aj = above(reach, i, j), above(reach, j, i)
        if flip_above:
            ai, aj = aj, ai
        before, after = li or ai, lj or aj
        if before != after:
            return -1 if before else 1
        raise RectangulationError("rectangles %d and %d are not comparable" % (i, j))

    return tuple(sorted(range(1, r.n + 1), key=functools.cmp_to_key(cmp)))


def ref_linear_order(n: int, walls, swne: bool = False) -> tuple[int, ...]:
    """Labels ``1..n`` in NW-SE order (SW-NE with ``swne``): each side a of a
    wall precedes its side b, except that SW-NE puts below before above.

    Consecutive labels of either order share a wall, so the order is the
    unique topological order of the pairs across the walls: one Kahn (1962)
    pass that must find exactly one label ready at every step.  Raises
    :class:`RectangulationError` naming two labels that are not comparable
    or that lie on a cycle.
    """
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for orientation, side_a, side_b in walls:
        if swne and orientation == "h":
            side_a, side_b = side_b, side_a
        for j in side_b:
            indeg[j] += len(side_a)
        for i in side_a:
            succ[i] += side_b
    ready = [i for i in range(1, n + 1) if not indeg[i]]
    order = []
    while len(ready) == 1:
        i = ready.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    if ready:
        raise RectangulationError(
            "rectangles %d and %d are not comparable" % tuple(sorted(ready)[:2])
        )
    if len(order) < n:
        # every label left has a predecessor left: walk back until one repeats
        left = set(range(1, n + 1)).difference(order)
        pred = {j: i for i in left for j in succ[i] if j in left}
        seen = set()
        j = min(left)
        while j not in seen:
            seen.add(j)
            j = pred[j]
        raise RectangulationError(
            "rectangles %d and %d lie on a cycle of the order" % (pred[j], j)
        )
    return tuple(order)


def ref_reach(r):
    """Left-of and above closures, each from its own orientation's segments."""
    return tuple(
        ref_closure_masks(
            r.n,
            [
                (i - 1, j - 1)
                for s in r.segments
                if s.orientation == orientation
                for i in s.side_a
                for j in s.side_b
            ],
        )
        for orientation in "vh"
    )


def ref_joint_counts(r):
    """All pairs of segments: perpendicular ends strictly inside, per side."""
    counts = []
    for s in r.segments:
        a = b = 0
        for t in r.segments:
            if t.orientation != s.orientation and s.lo < t.line < s.hi:
                a += t.hi == s.line
                b += t.lo == s.line
        counts.append((a, b))
    return counts


def ref_strong_pairs(r):
    """Strong-poset relations with one loop per segment orientation."""
    pairs = ref_adjacency_pairs(r)
    for s in r.segments:
        if s.orientation == "v":
            for lb in s.side_a:
                for ra in s.side_b:
                    if r.rect(lb).y2 < r.rect(ra).y1:
                        pairs.add((ra, lb))
        else:
            for ab in s.side_a:
                for bl in s.side_b:
                    if r.rect(bl).x1 > r.rect(ab).x2:
                        pairs.add((ab, bl))
    return pairs


@functools.lru_cache(maxsize=32)
def _ref_pred_masks(n, pairs):
    pred = [0] * n
    for i, m in enumerate(ref_closure_masks(n, [(i - 1, j - 1) for i, j in pairs])):
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            pred[j] |= 1 << i
    return pred


def ref_pred_masks(p):
    """Predecessor masks: the fixpoint closure of the pairs, transposed bit
    by bit, computed once per relation (0.5 s at n=1024)."""
    return _ref_pred_masks(p.n, p.pairs)


def ref_leftmost(p):
    pred, placed, out = ref_pred_masks(p), 0, []
    for _ in range(p.n):
        j = next(j for j in range(p.n) if not placed >> j & 1 and not pred[j] & ~placed)
        out.append(j + 1)
        placed |= 1 << j
    return Permutation(tuple(out))


def ref_rightmost(p):
    pred, placed, out = ref_pred_masks(p), 0, []
    for _ in range(p.n):
        j = next(
            j
            for j in range(p.n - 1, -1, -1)
            if not placed >> j & 1 and not pred[j] & ~placed
        )
        out.append(j + 1)
        placed |= 1 << j
    return Permutation(tuple(out))


def ref_linear_extensions(p):
    """Recursive lexicographic enumeration of the extensions."""
    pred = ref_pred_masks(p)

    def rec(placed, out):
        if len(out) == p.n:
            yield Permutation(tuple(out))
        for j in range(p.n):
            if not placed >> j & 1 and not pred[j] & ~placed:
                yield from rec(placed | 1 << j, out + [j + 1])

    return list(rec(0, []))


def ref_count_linear_extensions(p):
    """Extensions counted by memoized recursion over downsets."""
    pred = ref_pred_masks(p)

    @functools.lru_cache(maxsize=None)
    def rec(placed):
        if placed == (1 << p.n) - 1:
            return 1
        return sum(
            rec(placed | 1 << j)
            for j in range(p.n)
            if not placed >> j & 1 and not pred[j] & ~placed
        )

    return rec(0)


def ref_flip_kind(r: Rectangulation, r2: Rectangulation, j: int, k: int) -> str:
    """A wall slide keeps the weak class; a simple flip swaps two rectangles
    whose union is a rectangle before and after (its bounding box has their
    area); any other flip pivots."""
    if weak_key(r) == weak_key(r2):
        return "wall_slide"
    area = lambda x1, y1, x2, y2: (x2 - x1) * (y2 - y1)

    def union_is_rect(d):
        u, w = d.boxes[j - 1], d.boxes[k - 1]
        hull = (min(u[0], w[0]), min(u[1], w[1]), max(u[2], w[2]), max(u[3], w[3]))
        return area(*hull) == area(*u) + area(*w)

    return "simple" if union_is_rect(r) and union_is_rect(r2) else "pivot"


def ref_flips(r: Rectangulation) -> list[tuple[str, Rectangulation]]:
    """All flip moves from ``r``'s strong class: pairs (kind, neighbour).

    Neighbours are exactly the classes reachable by swapping two adjacent
    entries in some permutation of the strong fiber; kinds distinguish wall
    slides (weak class unchanged), simple flips (the two swapped rectangles
    form a rectangle together before and after), and pivoting flips.
    """
    base = strong_key(r)
    found: dict[tuple[int, ...], tuple[str, Rectangulation]] = {}
    for pi in linear_extensions(strong_poset(r)):
        for i in range(r.n - 1):
            sigma = _swap_positions(pi, i)
            r2 = gamma_s(sigma)
            key = strong_key(r2)
            if key == base or tuple(key) in found:
                continue
            canon = gamma_s(key)
            j, k = pi[i], pi[i + 1]
            found[tuple(key)] = (ref_flip_kind(r, canon, j, k), canon)
    return [found[key] for key in sorted(found)]


def ref_quotient_cover_graph(n: int, max_n: int | None = None) -> FlipGraph:
    """Brute-force flip graph over all strong classes of size ``n``.

    For every permutation and every adjacent transposition whose images
    differ, an edge joins the two canonical keys.  Guarded by ``max_n``
    (default: the RECTLAB_MAX_N environment variable, else 6).
    """
    bound = max_n if max_n is not None else _default_max_n()
    if n > bound:
        raise ValueError(
            "size %d exceeds the configured bound %d (raise RECTLAB_MAX_N)"
            % (n, bound)
        )
    key_of: dict[Permutation, Permutation] = {}
    for pi in all_permutations(n):
        key_of[pi] = strong_key(gamma_s(pi))
    vertices = sorted(set(key_of.values()))
    edges = set()
    for pi, k1 in key_of.items():
        for i in range(n - 1):
            k2 = key_of[_swap_positions(pi, i)]
            if k1 != k2:
                edges.add((min(k1, k2), max(k1, k2)))
    return FlipGraph(n, tuple(vertices), tuple(sorted(edges)))


def ref_gamma_w(pi):
    """Weak insertion that snaps each side not aligned with a neighbour to
    the grid line ``j - 1`` (top) or ``j`` (right), validated as outside
    input."""
    n = pi.n
    geo = {0: (0, 0, 0, n), n + 1: (0, n, n, n)}  # the box's left and bottom walls
    for j, (a, b, _, _, top, right) in zip(pi, ref_staircase(pi)[0]):
        (_, ay1, ax2, _), (_, by1, bx2, _) = geo[a], geo[b]
        geo[j] = (ax2, ay1 if top else j - 1, bx2 if right else j, by1)
    return Rectangulation(Rect(j, *geo[j]) for j in range(1, n + 1))


def ref_diagonal(r):
    return r if is_diagonal(r) else ref_gamma_w(ref_leftmost(adjacency_poset(r)))


def ref_from_rects(boxes):
    """Compaction by ``list.index`` and relabeling by the comparison sort."""
    xs = sorted({v for b in boxes for v in (b[0], b[2])})
    ys = sorted({v for b in boxes for v in (b[1], b[3])})
    compact = sorted(
        (xs.index(b[0]), ys.index(b[1]), xs.index(b[2]), ys.index(b[3])) for b in boxes
    )
    r = unchecked_labels(Rect(i, *b) for i, b in enumerate(compact, 1))
    return Rectangulation(
        Rect(rank, *r.rect(lbl).box) for rank, lbl in enumerate(ref_labeling(r), 1)
    )


def unchecked_labels(rects):
    """The drawing of ``rects`` under their own labels, NW-SE or not: the
    tiling is validated, the labeling is not."""
    rects = sorted(rects, key=lambda q: q.label)
    return Rectangulation._built([q.box for q in rects], _tile_walls(rects))


def ref_tile_walls(rects):
    """The cell-grid validation: validate a tiling; return its walls in
    :meth:`Rectangulation._built`'s format, ``(orientation, side_a,
    side_b)``, vertical lines first.

    Raises a specific :class:`RectangulationError` subclass for overlapping
    boxes, a hole, a union that is not a box, four boxes meeting at a point,
    or a line whose two sides do not form the same segments.
    """
    # Validate coverage on the compacted image: ordering of coordinates is
    # all that matters, and it keeps the cell grid at most (2n)^2.
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
        raise OverlapError(
            "rectangle interiors overlap near (%d, %d)" % (xs[x], ys[y])
        )
    missing = {(x, y) for y in range(ch) for x in range(cw) if cover[y][x] == 0}
    if missing:
        boundary = any(
            x == 0 or y == 0 or x == cw - 1 or y == ch - 1 for x, y in missing
        )
        x, y = sorted(missing)[0]
        if boundary:
            raise NonRectangularUnionError(
                "union of rectangles is not a box (uncovered near (%d, %d))"
                % (xs[x], ys[y])
            )
        raise GapError("hole inside the tiling near (%d, %d)" % (xs[x], ys[y]))
    corner_count: dict[tuple[int, int], int] = {}
    for r in rects:
        for p in ((r.x1, r.y1), (r.x2, r.y1), (r.x1, r.y2), (r.x2, r.y2)):
            corner_count[p] = corner_count.get(p, 0) + 1
    for (x, y), c in corner_count.items():
        if xs[0] < x < xs[-1] and ys[0] < y < ys[-1] and c != 2:
            if c == 4:
                raise NonGenericError(
                    "four rectangles meet at %r (non-generic crossing)" % ((x, y),)
                )
            raise RectangulationError(
                "malformed joint at %r (%d rectangle corners)" % ((x, y), c)
            )
    walls = []
    for orientation, axis, size, key in (
        ("v", "x", xs[-1], lambda r: (r.x2, r.x1, r.y1, r.y2)),
        ("h", "y", ys[-1], lambda r: (r.y2, r.y1, r.x1, r.x2)),
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
            side_a, side_b = map(_ref_runs, sides[line])
            if [run[:2] for run in side_a] != [run[:2] for run in side_b]:
                raise RectangulationError(
                    "wall mismatch on %s line %s=%d"
                    % ("vertical" if orientation == "v" else "horizontal", axis, line)
                )
            walls += [(orientation, a[2], b[2]) for a, b in zip(side_a, side_b)]
    if len(walls) != len(rects) - 1:
        raise RectangulationError(
            "expected %d segments, found %d" % (len(rects) - 1, len(walls))
        )
    return walls


def _ref_runs(side: list[tuple[int, int, int]]) -> list[list]:
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


def ref_find_windmills(r):
    """Windmills by four nested loops over the segments, each hook tested by
    coordinates: the end's line is the perpendicular segment's line, and the
    end lies strictly inside its span."""
    horizontals = [s for s in r.segments if s.orientation == "h"]
    verticals = [s for s in r.segments if s.orientation == "v"]

    def inside(coord, seg):
        return seg.lo < coord < seg.hi

    out = []
    for h1 in horizontals:
        for v1 in verticals:
            # cw: h1's right end inside v1 / ccw: h1's left end inside v1
            cw_hook = v1.line == h1.hi and inside(h1.line, v1)
            ccw_hook = v1.line == h1.lo and inside(h1.line, v1)
            if not (cw_hook or ccw_hook):
                continue
            for h2 in horizontals:
                if h2.line != v1.hi or not inside(v1.line, h2):
                    continue  # v1's bottom end must be inside h2
                for v2 in verticals:
                    if cw_hook:
                        if v2.line != h2.lo or not inside(h2.line, v2):
                            continue  # h2's left end inside v2
                    else:
                        if v2.line != h2.hi or not inside(h2.line, v2):
                            continue  # h2's right end inside v2
                    if h1.line != v2.lo or not inside(v2.line, h1):
                        continue  # v2's top end must be inside h1
                    out.append(
                        Windmill(
                            "cw" if cw_hook else "ccw",
                            top=h1,
                            right=v1 if cw_hook else v2,
                            bottom=h2,
                            left=v2 if cw_hook else v1,
                        )
                    )
    return out


def ref_guillotine_tree(r):
    """Cut decomposition tracking each part's box, one loop per orientation."""

    def solve(labels, box):
        if len(labels) == 1:
            return ("leaf", labels[0])
        x1, y1, x2, y2 = box
        group = [r.rect(i) for i in labels]
        for x in sorted({q.x2 for q in group if q.x2 < x2}):
            if all(not (q.x1 < x < q.x2) for q in group):
                a = solve(tuple(q.label for q in group if q.x2 <= x), (x1, y1, x, y2))
                b = a and solve(tuple(q.label for q in group if q.x1 >= x), (x, y1, x2, y2))
                return b and ("v", x, a, b)
        for y in sorted({q.y2 for q in group if q.y2 < y2}):
            if all(not (q.y1 < y < q.y2) for q in group):
                a = solve(tuple(q.label for q in group if q.y2 <= y), (x1, y1, x2, y))
                b = a and solve(tuple(q.label for q in group if q.y1 >= y), (x1, y, x2, y2))
                return b and ("h", y, a, b)
        return None

    return solve(tuple(range(1, r.n + 1)), (0, 0, r.width, r.height))


_LEVEL_STEP = {"black": 1, "red": 0, "green": 0, "white": -1}


def _ref_leftmost_ok(c, x, c2, x2, weak):
    inward = c in ("black", "red"), c2 in ("black", "green")
    cond = (inward[0] or inward[1]) if weak else (inward[0] and inward[1])
    return x2 >= x if cond else x2 >= x - 1


def _ref_rightmost_ok(c, y, c2, y2, weak):
    inward = c in ("black", "green"), c2 in ("black", "red")
    cond = (inward[0] or inward[1]) if weak else (inward[0] and inward[1])
    return y2 >= y if cond else y2 >= y - 1


def ref_excursion_count(n, *, leftmost=False, rightmost=False, weak=False):
    """Dense DP over every (x, y, color) cell, testing each step pointwise."""
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
                            if leftmost and not _ref_leftmost_ok(c, x, c2, x2, weak):
                                continue
                            if rightmost and not _ref_rightmost_ok(c, y, c2, y2, weak):
                                continue
                            nxt[c2][x2][y2] += v
        layer = nxt
    return layer["white"][0][0]


@functools.lru_cache(maxsize=None)
def ref_counts_U(N):
    """Strong leftright excursions with n = 1..N points by the four-color
    first-point-removal recurrence over (i, j) layers: the count for n is
    A(0, 0) after layer n - 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    # B and W are symmetric, G is the transpose of R, so only B, R, W are
    # stored.  A = B + R + R^T + W.
    B = {}
    R = {(0, 0): 0}
    W = {(0, 0): 1}

    def A(i, j):
        if i < 0 or j < 0:
            return 0
        return (
            B.get((i, j), 0) + R.get((i, j), 0) + R.get((j, i), 0) + W.get((i, j), 0)
        )

    def get(d, i, j):
        if i < 0 or j < 0:
            return 0
        return d.get((i, j), 0)

    counts = [A(0, 0)]
    for t in range(1, N):
        B2, R2, W2 = {}, {}, {}
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
        counts.append(A(0, 0))
    return counts


@functools.lru_cache(maxsize=None)
def ref_counts_O(N):
    """Weak leftright excursions with n = 1..N points by first-point
    removal from the weak leftright step set (steps written
    target-relative as (dx, dy)), read as in ``ref_counts_U``:

        black:  (0,1), (1,0)  -> any color
        red:    (0,0)         -> any;  (1,-1) -> green/white
        green:  (0,0)         -> any;  (-1,1) -> red/white
        white:  (-1,0) -> red/white;   (0,-1) -> green/white
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    B = {}
    R = {(0, 0): 0}
    W = {(0, 0): 1}

    def A(i, j):
        if i < 0 or j < 0:
            return 0
        return (
            B.get((i, j), 0) + R.get((i, j), 0) + R.get((j, i), 0) + W.get((i, j), 0)
        )

    def get(d, i, j):
        if i < 0 or j < 0:
            return 0
        return d.get((i, j), 0)

    counts = [A(0, 0)]
    for t in range(1, N):
        B2, R2, W2 = {}, {}, {}
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
        counts.append(A(0, 0))
    return counts


def ref_guillotine_layer(sv, n):
    """Vertical-cut layer ``n`` from the layers ``sv[1..n-1]``: one update
    per pair of left and right profiles.

    A vertical composite splits at its leftmost full-height cut: the left
    factor is horizontal-or-size-1, the right factor arbitrary, and the
    endpoints meeting the cut from the two sides interleave freely
    (binomial weight).  The cut itself adds one endpoint to the top and
    bottom sides.
    """
    out = {}
    for n1 in range(1, n):
        n2 = n - n1
        # left factors, read off the vertical table by transposition:
        # group by (left, top, bottom), keep the cut-side counts r1
        groups = {}
        for (a, b, c, d), v in sv[n1].items():
            # s_h(n1, l=b, t=a, r=d, b=c) == s_v(n1, a, b, c, d)
            groups.setdefault((b, a, c), {}).setdefault(d, 0)
            groups[(b, a, c)][d] += v
        # right factors: any orientation (size 1 counts once, not as both a
        # degenerate vertical and a degenerate horizontal)
        right = {}
        if n2 == 1:
            right[(0, 0, 0, 0)] = 1
        else:
            for (a, b, c, d), v in sv[n2].items():
                right[(a, b, c, d)] = right.get((a, b, c, d), 0) + v  # vertical
                key = (b, a, d, c)  # horizontal, by transposition
                right[key] = right.get(key, 0) + v
        for (l, t1, b1), weights in groups.items():
            # interleaving weight, pre-summed over the left cut counts
            z = [
                sum(v * math.comb(r1 + lp, r1) for r1, v in weights.items())
                for lp in range(n2)
            ]
            for (lp, t2, r, b2), v2 in right.items():
                key = (l, t1 + 1 + t2, r, b1 + 1 + b2)
                out[key] = out.get(key, 0) + z[lp] * v2
    return out


def _mul(a, b):
    """The product of two coefficient lists of one length, truncated to it."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def ref_schroder_series(N):
    """Coefficients of x^0..x^N by Picard iteration of V = (x + H) * G,
    H = V, G = x + 2H; each pass fixes at least one further coefficient."""
    x = [0, 1, *[0] * (N - 1)]
    H = G = [0] * (N + 1)
    for _ in range(N + 2):
        H = _mul([a + h for a, h in zip(x, H)], G)
        G2 = [a + 2 * h for a, h in zip(x, H)]
        if G2 == G:
            return G
        G = G2
    raise AssertionError("no fixed point in %d passes" % (N + 2))


def ref_weighted_guillotine_series(y, N):
    """Coefficients of x^0..x^N by Picard iteration of
    V = x*G + V*(G0 + y*G1), G = x + 2V, with G0 = x*G + x and
    G1 = (1 - x)*G - x = G - G0."""
    y = Fraction(y)
    x = [0, 1, *[0] * (N - 1)]
    V = G = [0] * (N + 1)
    for _ in range(2 * N + 4):
        xG = _mul(x, G)
        G0 = [a + b for a, b in zip(xG, x)]
        V = [a + b for a, b in zip(xG, _mul(V, [c + y * (g - c) for c, g in zip(G0, G)]))]
        G2 = [a + 2 * v for a, v in zip(x, V)]
        if G2 == G:
            return G
        G = G2
    raise AssertionError("no fixed point in %d passes" % (2 * N + 4))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_order(p: Poset) -> None:
    """``less`` against the fixpoint closure of the pairs, and ``covers``
    against the cubic comprehension over it."""
    reach = ref_closure_masks(p.n, [(i - 1, j - 1) for i, j in p.pairs])
    assert [[p.less(i, j) for j in range(1, p.n + 1)] for i in range(1, p.n + 1)] == [
        [bool(m >> j & 1) for j in range(p.n)] for m in reach
    ]
    assert p.covers == ref_covers(p.n, p.pairs)


def check_decoders(w) -> None:
    ref = ref_decode_strong(w)
    assert to_json(decode_strong(w)) == to_json(ref)
    weak = HistoryQuadrantWalk(w.points, "weak")
    assert to_json(decode(weak)) == to_json(diagonal_representative(ref))


def check_lean_matches_validated(pi: Permutation) -> None:
    """Every lean producer against the validating constructor and against
    the per-line segment scan, which shares no code with either."""
    rs, rw = gamma_s(pi), gamma_w(pi)
    boxes = [q.box for q in rw.rects]
    random.Random(pi.one_line()).shuffle(boxes)
    for r in (rs, rw, reflect_swne(rs), reflect_swne(rw), from_rects(boxes)):
        v = Rectangulation(r.rects)
        assert (r.rects, r.width, r.height) == (v.rects, v.width, v.height)
        assert r.segments == v.segments == ref_segments(r)
        assert to_json(r) == to_json(v)


def check_against_references(pi: Permutation) -> None:
    check_lean_matches_validated(pi)
    rs = gamma_s(pi)
    assert to_json(rs) == to_json(ref_gamma_s(pi))
    w = encode_strong(pi)
    check_decoders(w)

    rw = gamma_w(pi)
    assert to_json(rw) == to_json(ref_gamma_w(pi))
    for r in (rs, rw):
        assert set(_wall_pairs(r.boxes, r.walls)) == ref_adjacency_pairs(r)
        for p, pairs in (
            (adjacency_poset(r), ref_adjacency_pairs(r)),
            (weak_poset(r), ref_adjacency_pairs(ref_diagonal(r))),
        ):
            assert p.pairs == pairs
            check_order(p)
        # the strong pairs are a generating subset of the reference pairs
        p = strong_poset(r)
        assert p == Poset(r.n, frozenset(ref_strong_pairs(r)))
        assert p.pairs <= ref_strong_pairs(r)
        check_order(p)


def check_orders_against_references(pi: Permutation, seed: int) -> None:
    rng = random.Random(seed)
    boxes = [q.box for q in gamma_s(pi).rects]
    rng.shuffle(boxes)
    shuffled = from_rects(boxes)
    assert to_json(shuffled) == to_json(ref_from_rects(boxes))
    for r in (gamma_s(pi), gamma_w(pi), shuffled):
        assert nwse_labeling(r) == ref_labeling(r) == tuple(range(1, r.n + 1))
        assert swne_labeling(r) == ref_labeling(r, flip_above=True)
        assert segment_joint_counts(r) == ref_joint_counts(r)
        assert multiplicity(r) == math.prod(
            math.comb(a + b, a) for a, b in ref_joint_counts(r)
        )
        assert guillotine_tree(r) == ref_guillotine_tree(r)
        d = diagonal_representative(r)
        assert to_json(d) == to_json(ref_diagonal(r))
        strong = strong_poset(r)
        assert strong == Poset(r.n, frozenset(ref_strong_pairs(r)))
        assert strong.pairs <= ref_strong_pairs(r)
        assert strong.covers == ref_covers(r.n, ref_strong_pairs(r))
        weak = Poset(d.n, frozenset(ref_adjacency_pairs(d)))
        assert weak_poset(r).covers == weak.covers
        assert strong_key(r) == ref_leftmost(strong_poset(r))
        assert weak_key(r) == ref_leftmost(weak)
        for p in (strong_poset(r), weak, adjacency_poset(r)):
            assert leftmost_extension(p) == ref_leftmost(p)
            assert rightmost_extension(p) == ref_rightmost(p)
            if r.n <= 6:
                exts = list(linear_extensions(p))
                assert exts == ref_linear_extensions(p)
                assert exts[0] == ref_leftmost(p) and exts[-1] == ref_rightmost(p)
            if r.n <= 12:
                assert count_linear_extensions(p) == ref_count_linear_extensions(p)
    # Provisional labels in any order: the labelings must still match, and
    # the validating constructor accepts exactly the NW-SE labels.
    labels = list(range(1, pi.n + 1))
    rng.shuffle(labels)
    r = unchecked_labels(Rect(lbl, *q.box) for lbl, q in zip(labels, gamma_s(pi).rects))
    want = ref_labeling(r)
    assert nwse_labeling(r) == want
    assert swne_labeling(r) == ref_labeling(r, flip_above=True)
    if want == tuple(range(1, r.n + 1)):
        assert Rectangulation(r.rects) == r
    else:
        with pytest.raises(RectangulationError) as exc:
            Rectangulation(r.rects)
        assert str(exc.value) == (
            "labels are not the NW-SE labeling (expected order %r)" % (want,)
        )


def check_windmills_against_references(pi: Permutation) -> None:
    """The hook walk against the four-loop search (the same list, in the
    same order) on both images, guillotine status against the cut tree, and
    the windmill flag of ``classify`` against the mesh matcher."""
    for r in (gamma_s(pi), gamma_w(pi)):
        windmills = find_windmills(r)
        assert windmills == ref_find_windmills(r)
        tree = guillotine_tree(r)
        assert tree == ref_guillotine_tree(r)
        assert is_guillotine(r) == (not windmills) == (tree is not None)
    assert ("windmill_mesh_avoiding" in classify(pi)) == avoids_all(
        pi, FORBIDDEN["windmill_mesh_avoiding"]
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_against_references(n):
    for pi in all_permutations(n):
        check_against_references(pi)


def test_orders_of_every_image_of_s7(sweeps):
    """The three posets of every image of S_7, strong and weak (S_1..S_6
    go through ``check_against_references``)."""
    for r in (*sweeps.strong_classes(7).values(), *sweeps.weak_classes(7).values()):
        for p in (adjacency_poset(r), strong_poset(r), weak_poset(r)):
            check_order(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_exhaustive_lean_matches_validated(n):
    for pi in all_permutations(n):
        check_lean_matches_validated(pi)


@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_orders_against_references(n):
    for seed, pi in enumerate(all_permutations(n)):
        check_orders_against_references(pi, seed)


@functools.lru_cache(maxsize=1)
def images_to_s7():
    """Every distinct image of S_1..S_7 under both maps, then their
    ``reflect_swne`` images."""
    found = {
        draw(pi) for n in range(1, 8) for pi in all_permutations(n) for draw in (gamma_s, gamma_w)
    }
    images = sorted(found, key=lambda r: r.boxes)
    return images + [reflect_swne(r) for r in images]


def random_drawings(n, seed):
    """Both images of a random permutation, their reflections, and the
    strong image's boxes shuffled through ``from_rects``."""
    rng = random.Random(seed)
    pi = Permutation(rng.sample(range(1, n + 1), n))
    boxes = list(gamma_s(pi).boxes)
    rng.shuffle(boxes)
    drawings = [gamma_s(pi), gamma_w(pi)]
    return drawings + [reflect_swne(r) for r in drawings] + [from_rects(boxes)]


def test_wall_covers_are_the_consecutive_pairs():
    """The fact the labelings rest on: each wall holds exactly one pair of
    consecutive labels of either order, the last of its earlier side and
    the first of its later side, read against the product reference."""
    for r in images_to_s7():
        for swne in (False, True):
            order = ref_linear_order(r.n, r.walls, swne)
            covers = list(_wall_covers(r.walls, swne))
            assert len(covers) == r.n - 1
            assert set(covers) == set(zip(order, order[1:])), (r.boxes, swne)


def test_linear_order_matches_the_product_reference():
    """The Kahn pass over one cover per wall reads the same labelings as
    the parent pass over every pair across each wall's two sides."""
    drawings = images_to_s7() + [
        r for n in (64, 256, 1024) for r in random_drawings(n, n)
    ]
    for r in drawings:
        for swne in (False, True):
            assert rect._linear_order(r.n, r.walls, swne) == ref_linear_order(
                r.n, r.walls, swne
            )


@pytest.mark.parametrize("swne", [False, True])
def test_linear_order_refuses_tampering_like_the_reference(swne):
    """D1 with one wall dropped is refused as incomparable by both passes,
    and with a reversed copy of one wall added, as cyclic."""
    walls = build(D1_RECTS).walls
    for tampered, what in (
        *((walls[:k] + walls[k + 1 :], "not comparable") for k in range(len(walls))),
        *((walls + ((o, b, a),), "on a cycle") for o, a, b in walls),
    ):
        for order in (rect._linear_order, ref_linear_order):
            with pytest.raises(RectangulationError, match=what):
                order(16, tampered, swne)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 50])
def test_brick_against_references(k):
    """A long segment with staggered joints on both sides, and its mirror
    image with a long horizontal segment: labelings, keys and all three
    posets against the references."""
    for r in (brick(k), reflect_swne(brick(k))):
        assert nwse_labeling(r) == ref_labeling(r) == tuple(range(1, r.n + 1))
        assert swne_labeling(r) == ref_labeling(r, flip_above=True)
        strong = Poset(r.n, frozenset(ref_strong_pairs(r)))
        weak = Poset(r.n, frozenset(ref_adjacency_pairs(ref_diagonal(r))))
        adjacency = Poset(r.n, frozenset(ref_adjacency_pairs(r)))
        assert strong_key(r) == ref_leftmost(strong)
        assert weak_key(r) == ref_leftmost(weak)
        for make, ref in ((strong_poset, strong), (weak_poset, weak), (adjacency_poset, adjacency)):
            p = make(r)
            assert p == ref and p.pairs <= ref.pairs
            check_order(p)
            assert leftmost_extension(p) == ref_leftmost(ref)
            assert rightmost_extension(p) == ref_rightmost(ref)


@pytest.mark.parametrize("n", range(1, 8))
def test_exhaustive_windmills_against_references(n):
    for pi in all_permutations(n):
        check_windmills_against_references(pi)


@pytest.mark.parametrize("n", range(1, 8))
def test_permutation_inverts_encoding(n):
    for pi in all_permutations(n):
        assert _permutation(encode_strong(pi)) == pi


def ref_closed_excursions(n, variant):
    """All closed excursions, by recursion once per point."""
    pts = []

    def rec(h, remaining):
        if remaining == 1:
            if h == 0:
                pts.append(WalkPoint(0, 0, "white"))
                yield HistoryQuadrantWalk(tuple(pts), variant)
                pts.pop()
            return
        for c in COLORS:
            h2 = h + _LEVEL_STEP[c]
            if h2 < 0 or h2 > remaining - 2:
                continue
            for x in range(h + 1):
                pts.append(WalkPoint(x, h - x, c))
                yield from rec(h2, remaining - 1)
                pts.pop()

    return list(rec(0, n))


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_excursions_match_the_recursion(n):
    for variant in ("strong", "weak"):
        assert list(closed_excursions(n, variant)) == ref_closed_excursions(n, variant)


def test_closed_excursions_need_no_recursion():
    w = next(closed_excursions(1500))
    assert len(w.points) == 1500
    assert w.points[-1] == WalkPoint(0, 0, "white")


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_excursions_decode_like_the_geometric_replay(n):
    for w in closed_excursions(n):
        assert encode_strong(_permutation(w)).points == w.points
        check_decoders(w)


def count_constructions(monkeypatch) -> list[str]:
    """Record ``"validating"`` or ``"lean"`` for each drawing constructed."""
    built = []
    init, lean = Rectangulation.__init__, Rectangulation._built.__func__

    def counted_init(self, *args, **kwargs):
        built.append("validating")
        init(self, *args, **kwargs)

    def counted_lean(cls, *args):
        built.append("lean")
        return lean(cls, *args)

    monkeypatch.setattr(Rectangulation, "__init__", counted_init)
    monkeypatch.setattr(Rectangulation, "_built", classmethod(counted_lean))
    return built


def test_decoders_and_reflection_build_one_drawing(monkeypatch):
    for pi in all_permutations(4):
        strong, weak = encode_strong(pi), encode_weak(pi)
        r = gamma_s(pi)
        with monkeypatch.context() as m:
            built = count_constructions(m)
            for name, build in (
                ("decode_strong", lambda: decode_strong(strong)),
                ("weak decode", lambda: decode(weak)),
                ("reflect_swne", lambda: reflect_swne(r)),
            ):
                built.clear()
                build()
                assert len(built) == 1, (name, pi)


def test_built_drawings_are_lean_and_outside_input_validates(monkeypatch):
    """Outside input validates its tiling exactly once; drawings the
    library built do not validate it at all."""
    calls = []
    tile_walls = rect._tile_walls
    monkeypatch.setattr(rect, "_tile_walls", lambda rects: calls.append(1) or tile_walls(rects))
    for pi in all_permutations(4):
        strong, weak = encode_strong(pi), encode_weak(pi)
        r = gamma_s(pi)
        text, boxes = to_json(r), [q.box for q in r.rects]
        for name, build, validations in (
            ("gamma_s", lambda: gamma_s(pi), 0),
            ("gamma_w", lambda: gamma_w(pi), 0),
            ("decode_strong", lambda: decode_strong(strong), 0),
            ("weak decode", lambda: decode(weak), 0),
            ("reflect_swne", lambda: reflect_swne(r), 0),
            ("from_json", lambda: from_json(text), 1),
            ("from_rects", lambda: from_rects(boxes), 1),
            ("Rectangulation", lambda: Rectangulation(r.rects), 1),
        ):
            calls.clear()
            build()
            assert len(calls) == validations, (name, pi, len(calls))


def test_lean_paths_build_no_rect_or_segment(monkeypatch):
    """A drawing stores its boxes and walls, and every reader below uses
    them: ``Rect`` and ``Segment`` objects are built only by the
    ``rects``/``segments`` views, once each, on first read (which
    :func:`check_lean_matches_validated` compares with the validated
    route's)."""
    built = []

    def counted(cls):
        init = cls.__init__

        def counted_init(self, *args):
            built.append(cls.__name__)
            init(self, *args)

        return counted_init

    monkeypatch.setattr(Rect, "__init__", counted(Rect))
    monkeypatch.setattr(Segment, "__init__", counted(Segment))
    readers = (
        strong_key, weak_key, to_json, render, is_diagonal, is_guillotine,
        guillotine_tree, has_z_wall, nwse_labeling, swne_labeling, multiplicity,
    )
    for pi in all_permutations(5):
        rs, rw = gamma_s(pi), gamma_w(pi)
        for r in (rs, rw, reflect_swne(rs), diagonal_representative(rs), decode(encode_strong(pi))):
            for read in readers:
                read(r)
        assert built == [], (pi, built)
        for _ in range(2):  # built on the first read, kept after it
            assert (len(rs.rects), len(rs.segments)) == (5, 4)
        assert built == ["Rect"] * 5 + ["Segment"] * 4, pi
        built.clear()


@given(st.integers(1, 64).flatmap(perms))
@settings(max_examples=60, deadline=None)
def test_random_against_references(pi):
    check_against_references(pi)


@given(st.integers(1, 64).flatmap(perms))
@settings(max_examples=60, deadline=None)
def test_random_windmills_against_references(pi):
    check_windmills_against_references(pi)


@given(st.integers(1, 64).flatmap(perms), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_random_orders_against_references(pi, seed):
    check_orders_against_references(pi, seed)


@given(st.integers(1, 40).flatmap(perms))
@settings(max_examples=60, deadline=None)
def test_classify_matches_the_matcher_on_class_members(pi):
    """Every flag against the matcher over its pattern list.  A random
    ``pi`` contains every pattern early, so the flags are checked on the
    distinguished members of its fibers, where the classes live: both keys,
    both rightmost extensions and the Baxter representative."""
    rs, rw = gamma_s(pi), gamma_w(pi)
    for sigma in (
        strong_key(rs),
        weak_key(rw),
        rightmost_extension(strong_poset(rs)),
        rightmost_extension(weak_poset(rw)),
        baxter_representative(rw),
    ):
        assert classify(sigma) == matcher_flags(sigma), sigma


def check_staircase(pi) -> None:
    """Every step's return tuple and the final walls against the
    set-based definition."""
    stair = _Staircase(len(pi))
    got = [stair.insert(j) for j in pi]
    steps, walls = ref_staircase(pi)
    assert got == steps
    assert stair.walls == walls


@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_staircase_against_definition(n):
    for pi in all_permutations(n):
        check_staircase(pi)


@given(st.integers(1, 300).flatmap(perms))
@settings(max_examples=60, deadline=None)
def test_random_staircase_against_definition(pi):
    check_staircase(pi)


@pytest.mark.parametrize("kind", ["identity", "reverse", "two_runs", "one_wall"])
def test_staircase_on_long_runs(kind):
    """Long runs of inserted labels and long sides, where a scan over the
    inserted labels or an insertion at the front of a side costs O(n):
    ``one_wall`` (1, n, n - 1, .., 2) puts n - 1 labels right of one wall."""
    n = 2000
    pi = {
        "identity": range(1, n + 1),
        "reverse": range(n, 0, -1),
        "two_runs": [*range(n // 2, 0, -1), *range(n, n // 2, -1)],
        "one_wall": [1, *range(n, 1, -1)],
    }[kind]
    check_staircase(pi)


def _random_permutation(n, seed):
    values = list(range(1, n + 1))
    random.Random(seed).shuffle(values)
    return Permutation(values)


@pytest.mark.parametrize("n", [256, 1024])
def test_keys_at_scale_match_the_closed_posets(n):
    """Keys close nothing; the greedy rescan over the closed posets of the
    all-pairs reference relations (the strong one, and the adjacency of the
    reference diagonal drawing) must still read the same permutations."""
    pi = _random_permutation(n, n)
    for r in (gamma_s(pi), gamma_w(pi)):
        strong = Poset(n, frozenset(ref_strong_pairs(r)))
        assert strong_key(r) == ref_leftmost(strong) == ref_leftmost(strong_poset(r))
        weak = Poset(n, frozenset(ref_adjacency_pairs(ref_diagonal(r))))
        assert weak_key(r) == ref_leftmost(weak)


def test_weak_key_at_ten_thousand():
    """One heap pass over the adjacency pairs: the closure, the reduction
    and the greedy rescan took 22 s at this size on a 2-core machine.  The
    key draws the same diagonal drawing and is its own key."""
    r = gamma_w(_random_permutation(10**4, 13))
    start = time.perf_counter()
    key = weak_key(r)
    assert time.perf_counter() - start < 1.0
    d = gamma_w(key)
    assert (d.rects, d.segments) == (r.rects, r.segments)
    assert weak_key(d) == key


MUTATIONS = ("none", "swap", "shift", "drop", "duplicate")


def mutated_rows(pi, weak, mutation, rng):
    """``(label, x1, y1, x2, y2)`` rows of an image of ``pi`` under one
    mutation: two labels swapped, one coordinate moved by one, one
    rectangle dropped or one duplicated."""
    rows = [[q.label, *q.box] for q in (gamma_w if weak else gamma_s)(pi).rects]
    if mutation == "swap" and len(rows) > 1:
        a, b = rng.sample(range(len(rows)), 2)
        rows[a][0], rows[b][0] = rows[b][0], rows[a][0]
    elif mutation == "shift":
        rows[rng.randrange(len(rows))][rng.randrange(1, 5)] += rng.choice((-1, 1))
    elif mutation == "drop":
        del rows[rng.randrange(len(rows))]
    elif mutation == "duplicate":
        rows.append(list(rng.choice(rows)))
    return rows


def rows_json(rows):
    fields = ("label", "x1", "y1", "x2", "y2")
    return json.dumps({"n": len(rows), "rects": [dict(zip(fields, row)) for row in rows]})


def accepts(rows):
    """Whether a document of ``rows`` is a drawing: labels ``1..n``, boxes
    from 0 that tile, and ``ref_labeling`` (over ``ref_reach``) ``1..n``."""
    try:
        rects = [Rect(*row) for row in rows]
    except RectangulationError:
        return False
    n = len(rects)
    if not rects or sorted(q.label for q in rects) != list(range(1, n + 1)):
        return False
    if min(q.x1 for q in rects) or min(q.y1 for q in rects):
        return False
    try:
        r = unchecked_labels(rects)
    except RectangulationError:
        return False
    return ref_labeling(r) == tuple(range(1, n + 1))


@given(
    st.integers(1, 12).flatmap(perms),
    st.booleans(),
    st.sampled_from(MUTATIONS),
    st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_from_json_accepts_exactly_the_drawings(pi, weak, mutation, seed):
    rows = mutated_rows(pi, weak, mutation, random.Random(seed))
    try:
        r = from_json(rows_json(rows))
    except RectangulationError:  # any other exception fails the test
        assert not accepts(rows)
    else:
        assert accepts(rows)
        assert sorted([q.label, *q.box] for q in r.rects) == sorted(rows)


BOX_MUTATIONS = ("move", "drop", "duplicate", "add")


def mutated_boxes(pi, weak, mutations, rng):
    """The boxes of an image of ``pi`` under ``mutations`` (a side moved by
    one, a box dropped, a box duplicated, a random box in the frame added),
    shifted so that the least coordinates are 0 as both constructors
    require; ``None`` when a box degenerates."""
    boxes = [list(b) for b in (gamma_w if weak else gamma_s)(pi).boxes]
    for mutation in mutations:
        if mutation == "move":
            boxes[rng.randrange(len(boxes))][rng.randrange(4)] += rng.choice((-1, 1))
        elif mutation == "drop" and len(boxes) > 1:
            del boxes[rng.randrange(len(boxes))]
        elif mutation == "duplicate":
            boxes.append(list(rng.choice(boxes)))
        elif mutation == "add":
            width = max(1, max(b[2] for b in boxes))
            height = max(1, max(b[3] for b in boxes))
            x1, x2 = sorted(rng.sample(range(width + 1), 2))
            y1, y2 = sorted(rng.sample(range(height + 1), 2))
            boxes.append([x1, y1, x2, y2])
    if any(b[0] >= b[2] or b[1] >= b[3] for b in boxes):
        return None
    dx, dy = min(b[0] for b in boxes), min(b[1] for b in boxes)
    return [(b[0] - dx, b[1] - dy, b[2] - dx, b[3] - dy) for b in boxes]


def tiling_outcome(tile_walls, boxes):
    """The walls ``tile_walls`` reads off ``boxes``, or its error's class
    and message."""
    try:
        return tile_walls([Rect(i, *b) for i, b in enumerate(boxes, 1)])
    except RectangulationError as exc:
        return type(exc), str(exc)


@given(
    st.integers(1, 9).flatmap(perms),
    st.booleans(),
    st.lists(st.sampled_from(BOX_MUTATIONS), max_size=3),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_tile_walls_match_the_cell_grid(pi, weak, mutations, seed):
    """The wall runs, one area sum and the wall count accept exactly what
    the cell grid and the corner count accepted, with the same walls, and
    refuse the rest with the same error class and message."""
    boxes = mutated_boxes(pi, weak, mutations, random.Random(seed))
    if boxes is not None:
        assert tiling_outcome(_tile_walls, boxes) == tiling_outcome(ref_tile_walls, boxes)


@pytest.mark.parametrize("k", range(2, 6))
def test_grids_are_refused_like_the_cell_grid(k):
    grid = [(x, y, x + 1, y + 1) for x in range(k) for y in range(k)]
    crossed = [(0, 0, k, 1)] + [(x, y + 1, x + 1, y + 2) for x, y, _, _ in grid]
    for boxes, error in (
        (grid, NonGenericError),
        (crossed, NonGenericError),
        (grid + grid[:1], OverlapError),
        (grid[1:], NonRectangularUnionError),
        (grid[:k + 1] + grid[k + 2:], GapError if k > 2 else NonRectangularUnionError),
    ):
        got = tiling_outcome(_tile_walls, boxes)
        assert got == tiling_outcome(ref_tile_walls, boxes) and got[0] is error


def test_key_cli_on_mutated_documents(tmp_path, capsys):
    rng = random.Random(1962)
    path = tmp_path / "doc.json"
    for k in range(30):
        n = rng.randint(1, 12)
        pi = Permutation(rng.sample(range(1, n + 1), n))
        rows = mutated_rows(pi, k % 2, MUTATIONS[k % 5], rng)
        path.write_text(rows_json(rows))
        code = run(["key", "--strong", str(path)])
        err = capsys.readouterr().err
        assert code == (0 if accepts(rows) else 1), (rows, err)
        assert "Traceback" not in err


def relations(n: int):
    """Up to 3n edges on labels 0..n-1: arbitrary ones, mostly cyclic, or
    an acyclic relation of at least one drawn edge, each from a lower to a
    higher position of a random order, which feeds the accepting branch."""
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    acyclic = st.tuples(
        st.permutations(range(n)), st.lists(edges, min_size=1, max_size=3 * n)
    ).map(lambda t: [(t[0][min(e)], t[0][max(e)]) for e in t[1] if e[0] != e[1]])
    return st.one_of(st.lists(edges, max_size=3 * n), acyclic)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), relations(n))))
@settings(max_examples=300, deadline=None)
def test_poset_matches_fixpoint_or_refuses(case):
    """A cyclic relation is refused as cyclic, naming two labels on a cycle.
    An acyclic one reads as its
    fixpoint closure when that closure is the intersection of its leftmost
    and rightmost extensions (both from the reference greedy), and is
    refused by name when it is not."""
    n, edges = case
    ref = ref_closure_masks(n, edges)
    p = Poset(n, frozenset((i + 1, j + 1) for i, j in edges))
    reads = (lambda: p.less(1, 1), lambda: p.covers, lambda: p == p)
    if any(ref[i] >> i & 1 for i in range(n)):
        for read in reads:
            with pytest.raises(ValueError, match="cyclic") as exc:
                read()
            # the two labels it names reach each other
            i, j = (int(v) - 1 for v in re.findall(r"\d+", str(exc.value)))
            assert ref[i] >> j & 1 and ref[j] >> i & 1, str(exc.value)
        return
    b, t = ({v: k for k, v in enumerate(ext)} for ext in (ref_leftmost(p), ref_rightmost(p)))
    both = [
        sum(1 << (j - 1) for j in range(1, n + 1) if b[i] < b[j] and t[i] < t[j])
        for i in range(1, n + 1)
    ]
    if both == ref:
        check_order(p)
    else:
        for read in reads:
            with pytest.raises(RealizerError, match="is not a pair"):
                read()


# One DP pass per size bound and flag set, shared by the cases below: each
# compares one entry of the pass with the per-size reference.
_excursion_pass = functools.lru_cache(maxsize=None)(_excursion_counts)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("leftmost", [False, True])
@pytest.mark.parametrize("rightmost", [False, True])
@pytest.mark.parametrize("weak", [False, True])
def test_excursion_count_matches_dense_dp(n, leftmost, rightmost, weak):
    flags = dict(leftmost=leftmost, rightmost=rightmost, weak=weak)
    assert _excursion_pass(12, **flags)[n - 1] == ref_excursion_count(n, **flags)


@pytest.mark.parametrize("n", range(1, 41))
def test_leftright_counts_match_recurrences(n):
    assert _excursion_pass(40, **_U)[n - 1] == ref_counts_U(40)[n - 1]
    assert _excursion_pass(40, **_O)[n - 1] == ref_counts_O(40)[n - 1]


@pytest.mark.parametrize("n", [0, -1, -5])
def test_counts_reject_sizes_below_one(n):
    for count in (
        _excursion_counts,
        count_strong_rect,
        count_weak_rect,
        count_U,
        count_O,
    ):
        with pytest.raises(ValueError, match="n must be >= 1"):
            count(n)


GUILLOTINE_ORACLE_N = 16


@pytest.fixture(scope="module")
def ref_guillotine_layers():
    """Reference layers 1..16, each built only from the ones below it."""
    sv = {1: {(0, 0, 0, 0): 1}}
    for n in range(2, GUILLOTINE_ORACLE_N + 1):
        sv[n] = ref_guillotine_layer(sv, n)
    return sv


@pytest.mark.parametrize("n", range(2, GUILLOTINE_ORACLE_N + 1))
def test_guillotine_layer_matches_direct_recurrence(ref_guillotine_layers, n, monkeypatch):
    # layer n is built from the reference layers below it, in the layout of
    # a one-layer extension (N = n) and in that of one extension over the
    # whole oracle range, and its accumulators are read as the symmetry
    # check receives them, so it is compared before that check could
    # reject it
    real = counting._Packing.transpose
    for N in (n, GUILLOTINE_ORACLE_N):
        built = {}

        def spy(packing, m, acc):
            built[m] = counting._PackedLayer(acc, packing.width, packing.nbytes).unpack()
            assert built[m] == ref_guillotine_layers[m]
            return real(packing, m, acc)

        monkeypatch.setattr(counting._Packing, "transpose", spy)
        table = CountTable()
        table._sv = {m: ref_guillotine_layers[m] for m in range(1, n)}
        table.extend_to(N)
        assert n in built
        assert 0 not in built[n].values()
        assert table.layer(n) == ref_guillotine_layers[n]


def test_guillotine_table_matches_direct_recurrence(ref_guillotine_layers):
    # one extension over the whole oracle range: each layer but the first
    # is packed from the accumulators that computed it, which an extension
    # by one layer over reference layers never reaches
    table = CountTable()
    table.extend_to(GUILLOTINE_ORACLE_N)
    for n in range(1, GUILLOTINE_ORACLE_N + 1):
        assert table.layer(n) == ref_guillotine_layers[n]


def test_schroder_series_matches_picard_iteration():
    ref = ref_schroder_series(60)
    for N in range(1, 61):
        assert list(schroder_series(N).coeffs) == ref[: N + 1]
    for N in (1, 2, 7):
        assert list(schroder_series(N).coeffs) == ref_schroder_series(N)


@pytest.mark.parametrize("y", [0, 1, 2, 3, -1, Fraction(1, 3), -2, Fraction(4, 2), 0.5, True])
def test_weighted_series_matches_picard_iteration(y):
    ref = ref_weighted_guillotine_series(y, 30)
    for N in range(1, 31):
        assert list(weighted_guillotine_series(y, N).coeffs) == ref[: N + 1]
    # an integral y is solved in integers, but every coefficient comes back
    # as a Fraction, whose equality with an int would not show the type
    assert {type(c) for c in weighted_guillotine_series(y, 30).coeffs} == {Fraction}
    for N in (1, 2, 7):
        assert list(weighted_guillotine_series(y, N).coeffs) == ref_weighted_guillotine_series(y, N)


def flip_moves(moves):
    """Kinds, boxes and walls of flip moves, in their order."""
    return [(kind, r2.boxes, r2.walls) for kind, r2 in moves]


@pytest.mark.parametrize("n", range(1, 7))
def test_flips_match_the_fiber_walk(sweeps, n):
    for r in sweeps.strong_classes(n).values():
        assert flip_moves(flips(r)) == flip_moves(ref_flips(r))


@given(st.integers(1, 12).flatmap(perms))
@settings(max_examples=30, deadline=None)
def test_random_flips_match_the_fiber_walk(pi):
    r = gamma_s(pi)
    assert flip_moves(flips(r)) == flip_moves(ref_flips(r))


def test_flips_enumerate_no_fiber(sweeps):
    """Flips read the two extremal extensions only, so they never list a
    fiber."""
    classes = [r for n in range(1, 6) for r in sweeps.strong_classes(n).values()]
    want = [flip_moves(ref_flips(r)) for r in classes]

    def refuse(p):
        raise AssertionError("flips listed a fiber")

    with mock.patch.object(biject, "linear_extensions", refuse):
        assert [flip_moves(flips(r)) for r in classes] == want


@pytest.mark.parametrize("n", range(1, 8))
def test_quotient_graph_matches_every_swap(n):
    assert quotient_cover_graph(n, max_n=n) == ref_quotient_cover_graph(n, max_n=n)
