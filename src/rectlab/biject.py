"""Insertion bijections between permutations and rectangulations.

This module implements the forward insertion algorithms (weak and strong),
the three posets attached to a rectangulation, linear-extension machinery,
fibers, canonical representatives, and the flip graph on strong classes.
Strong and weak classes are classes of lattice congruences of the weak
order, so a :class:`Poset` reads its order off its two extremal extensions,
and so do flips and the quotient's edges: no closure is built and no fiber
is listed.  The pairs that generate the posets come from one merge along
each wall (:func:`_wall_pairs`), O(n) of them.

Conventions
-----------
- Permutations are insertion orders: reading ``pi`` left to right gives the
  order in which rectangles (identified by their NW-SE labels) are inserted.
- The *staircase* of a partial insertion is the monotone boundary separating
  the already-inserted region (lower-left) from the free region; its peaks
  are the top-right corners of boundary rectangles.  Two virtual sentinel
  rectangles bound it: label ``0`` for the left wall of the box and ``n+1``
  for the bottom wall.
- Inserting rectangle ``j`` between consecutive peaks ``a < j < b`` places
  its bottom-left corner at the valley between them.  Its top edge aligns
  with the top of ``a`` exactly when all labels strictly between ``a`` and
  ``j`` are already inserted (consuming peak ``a``); symmetrically its right
  edge aligns with the right edge of ``b`` when all labels between ``j`` and
  ``b`` are inserted (consuming peak ``b``).
- The weak algorithm keeps only the insertion's walls and draws the diagonal
  representative on the n x n grid: every segment of a diagonal drawing
  meets the diagonal, so its line is the last label of its side a.  The
  strong algorithm places non-aligned edges strictly inside the neighbouring
  rectangle's side (midpoint coordinates, normalized to compact integers at
  the end).  Every midpoint is a dyadic rational of depth at most n, so the
  coordinates are kept as exact integers scaled by ``2**n``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .perm import Permutation, _numeral, all_permutations
from .rect import (
    Rectangulation,
    RectangulationError,
    _compact,
    _diagonal_boxes,
    _Staircase,
    _topological_order,
    is_diagonal,
    strong_key,
    swne_labeling,
    weak_key,
)


def gamma_w(pi: Permutation) -> Rectangulation:
    """Weak forward insertion: the diagonal representative on the n x n grid,
    its boxes read off the insertion's walls.

    >>> gamma_w(Permutation((1, 2, 3))).boxes
    ((0, 0, 1, 3), (1, 0, 2, 3), (2, 0, 3, 3))
    """
    st = _Staircase(pi.n)
    for j in pi:
        st.insert(j)
    walls = st.walls
    result = Rectangulation._built(_diagonal_boxes(pi.n, walls), walls)
    if not is_diagonal(result):
        raise RectangulationError("weak insertion did not yield a diagonal drawing")
    return result


def _midpoint(u: int, v: int) -> int:
    """Exact midpoint of two coordinates on the ``2**n`` grid."""
    if (u + v) & 1:
        raise RectangulationError("midpoint of %d and %d is off the 2**n grid" % (u, v))
    return (u + v) >> 1


def gamma_s(pi: Permutation) -> Rectangulation:
    """Strong forward insertion: non-aligned edges attach strictly inside the
    neighbouring side; exact dyadic coordinates, compacted to integers."""
    n = pi.n
    st = _Staircase(n)
    # Full geometry per label, sentinels included: the left and bottom walls
    # of the unit box, scaled by 2**n.
    one = 1 << n
    geo = {0: (-one, 0, 0, one), n + 1: (0, one, one, 2 * one)}
    for j in pi:
        a, b, _, _, top, right = st.insert(j)
        (_, ay1, ax2, ay2), (bx1, by1, bx2, _) = geo[a], geo[b]
        # the valley (ax2, by1) is the bottom-left corner; a side that does
        # not align attaches strictly inside the neighbour's side
        y1 = ay1 if top else _midpoint(ay1, min(ay2, by1))
        x2 = bx2 if right else _midpoint(max(bx1, ax2), bx2)
        geo[j] = (ax2, y1, x2, by1)
    return Rectangulation._built(_compact([geo[j] for j in range(1, n + 1)]), st.walls)


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        b = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        yield b


def _covers(later: list[int] | tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The covers of the order whose bit ``j - 1`` of ``later[i - 1]`` says
    i < j: i < j is a cover unless some k with i < k already has k < j
    (bitmask transitive reduction, Aho-Garey-Ullman 1972)."""
    covers = []
    for i, mask in enumerate(later):
        beyond = 0
        for k in _bits(mask):
            beyond |= later[k]
        covers.extend((i + 1, j + 1) for j in _bits(mask & ~beyond))
    return frozenset(covers)


class RealizerError(ValueError):
    """Pairs that generate less than their extremal extensions' intersection."""


@dataclass(frozen=True, eq=False)
class Poset:
    """The partial order on labels 1..n that ``pairs`` generate, read off its
    leftmost and rightmost extensions: i < j iff i precedes j in both.  Every
    poset the library builds is such an intersection; for any other, such as
    ``Poset(3, {(1, 3)})`` or an order of dimension 3 or more, ``less``,
    ``covers`` and ``==`` raise :class:`RealizerError`.  ``n`` and the labels
    in ``pairs`` are checked at construction to be ints in 1..n."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:  # rejects bool
            raise ValueError("n must be an integer >= 1, got %r" % (self.n,))
        for pair in self.pairs:
            if type(pair) is tuple and len(pair) == 2:
                i, j = pair
                if type(i) is int and type(j) is int and 0 < i <= self.n and 0 < j <= self.n:
                    continue
            raise ValueError("pair %r is not two labels in 1..%d" % (pair, self.n))

    @functools.cached_property
    def _later(self) -> tuple[int, ...]:
        """Masks with bit ``j - 1`` of ``later[i - 1]`` iff j follows i in
        both extremal extensions (one reversed pass over each).  The pairs
        generate this order iff each mask is the union, over the label's
        pairs (i, j), of j and ``later[j - 1]``: the fixpoint that their
        transitive closure satisfies, unique on an acyclic relation."""
        later = [-1] * self.n
        for reverse in (False, True):
            after = 0
            for v in reversed(_least_order(self.n, self.pairs, reverse)):
                later[v - 1] &= after
                after |= 1 << (v - 1)
        reach = [0] * self.n
        for i, j in self.pairs:
            reach[i - 1] |= 1 << (j - 1) | later[j - 1]
        if reach != later:
            # then some cover of the order is not a pair: name the least
            missing = _covers(later) - self.pairs
            raise RealizerError(
                "the pairs generate less than the intersection of their extremal "
                "extensions: its cover %r is not a pair" % (min(missing),)
            )
        return tuple(later)

    @functools.cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        """The irredundant pairs: i < j with no k between them."""
        return _covers(self._later)

    def less(self, i: int, j: int) -> bool:
        """Strictly below: ``i < j`` in the partial order."""
        return bool(self._later[i - 1] >> (j - 1) & 1)

    @functools.cached_property
    def _pred_masks(self) -> tuple[int, ...]:
        """Predecessors among the pairs: an extension places ``j`` after them."""
        _least_order(self.n, self.pairs)  # rejects a cyclic relation
        pred = [0] * self.n
        for i, j in self.pairs:
            pred[j - 1] |= 1 << (i - 1)
        return tuple(pred)

    def __eq__(self, other: object) -> bool:
        """The same order: the same ``n`` and the same "later in both" masks."""
        if not isinstance(other, Poset):
            return NotImplemented
        return (self.n, self._later) == (other.n, other._later)

    def __hash__(self) -> int:
        return hash((self.n, self._later))


def _wall_pairs(boxes, walls, strong: bool = False) -> Iterator[tuple[int, int]]:
    """The touching pairs across the walls, (a, b) when a is left of or below
    b, and with ``strong`` one same-segment pair per joint: a right box
    follows the left box ending just above it, an above box precedes the
    below box starting just past it, and the boxes beyond these follow along
    the side, each touching the next.  One merge walks a wall's two sides
    together: the boxes under the pointers touch, and the one ending first
    moves on (both end together only at the wall's end: no crossings)."""
    for orientation, side_a, side_b in walls:
        k = orientation == "v"  # box index of the span start
        i = j = 0
        while True:
            p, q = side_a[i], side_b[j]
            yield (p, q) if k else (q, p)  # p left of q / q below p
            end_a, end_b = boxes[p - 1][k + 2], boxes[q - 1][k + 2]
            if end_a == end_b:
                break
            if end_a < end_b:
                i += 1
                if strong and not k and j + 1 < len(side_b):
                    yield p, side_b[j + 1]
            else:
                j += 1
                if strong and k and i:
                    yield side_b[j], side_a[i - 1]


def adjacency_poset(r: Rectangulation) -> Poset:
    """The order generated by the blocking relation (left-of / below contact)."""
    return Poset(r.n, frozenset(_wall_pairs(r.boxes, r.walls)))


def diagonal_representative(r: Rectangulation) -> Rectangulation:
    """The diagonal drawing of the weak class of ``r`` on the n x n grid: the
    class shares ``r``'s walls, and they place every box."""
    if is_diagonal(r):
        return r
    return Rectangulation._built(_diagonal_boxes(r.n, r.walls), r.walls)


def weak_poset(r: Rectangulation) -> Poset:
    """Adjacency poset of the diagonal drawing that ``r``'s walls place."""
    return Poset(r.n, frozenset(_wall_pairs(_diagonal_boxes(r.n, r.walls), r.walls)))


def strong_poset(r: Rectangulation) -> Poset:
    """The order the touching and same-segment pairs generate."""
    return Poset(r.n, frozenset(_wall_pairs(r.boxes, r.walls, strong=True)))


# ---------------------------------------------------------------------------
# Linear extensions
# ---------------------------------------------------------------------------


def linear_extensions(p: Poset) -> Iterator[Permutation]:
    """All linear extensions, in lexicographic order of one-line notation
    (depth first; ``out`` is the stack of placed labels)."""
    pred = p._pred_masks
    n = p.n
    out: list[int] = []
    placed = j = 0  # j: the next 0-based label to try at this depth
    while True:
        while j < n and (placed >> j & 1 or pred[j] & ~placed):
            j += 1
        if j < n:
            out.append(j + 1)
            placed |= 1 << j
            j = 0
            if len(out) < n:
                continue
            yield Permutation(tuple(out))
        if not out:
            return
        j = out.pop()  # 1-based: the scan resumes one label further
        placed ^= 1 << (j - 1)


def count_linear_extensions(p: Poset) -> int:
    """Number of linear extensions: ways per downset, one layer per size."""
    pred = p._pred_masks
    full = (1 << p.n) - 1
    layer = {0: 1}
    for _ in range(p.n):
        nxt: dict[int, int] = {}
        for placed, ways in layer.items():
            for j in _bits(full & ~placed):
                if not pred[j] & ~placed:
                    down = placed | 1 << j
                    nxt[down] = nxt.get(down, 0) + ways
        layer = nxt
    return layer[full]


def _least_order(n: int, pairs: Iterable[tuple[int, int]], reverse: bool = False) -> Permutation:
    """The least topological order of the relation ``pairs`` on labels 1..n
    (the greatest with ``reverse``), :func:`rectlab.rect._topological_order`.

    A topological order of any relation is a linear extension of the poset
    it generates, and the smallest-ready-first choice is that poset's
    leftmost extension, so no closure or cover reduction is needed.  Raises
    ``ValueError`` naming two labels on a cycle.
    """
    return Permutation(_topological_order(n, pairs, reverse))


def leftmost_extension(p: Poset) -> Permutation:
    """Smallest-ready-first extension (:func:`_least_order`): for the
    library's posets, the bottom of their weak-order interval of extensions."""
    return _least_order(p.n, p.pairs)


def rightmost_extension(p: Poset) -> Permutation:
    """Largest-ready-first extension: for the library's posets, the top."""
    return _least_order(p.n, p.pairs, reverse=True)


# ---------------------------------------------------------------------------
# Fibers and representatives
# ---------------------------------------------------------------------------


def fiber_w(r: Rectangulation) -> list[Permutation]:
    """All permutations mapping to ``r``'s weak class (lexicographic order)."""
    return list(linear_extensions(weak_poset(r)))


def fiber_s(r: Rectangulation) -> list[Permutation]:
    """All permutations mapping to ``r``'s strong class (lexicographic order)."""
    return list(linear_extensions(strong_poset(r)))


def baxter_representative(r: Rectangulation) -> Permutation:
    """The unique Baxter permutation in the weak fiber: the labels in SW-NE
    order, read off the walls the weak class shares."""
    return Permutation(swne_labeling(r))


def reflect_swne(r: Rectangulation) -> Rectangulation:
    """Reflect across the SW-NE diagonal (an involution on strong classes).
    Left-of becomes below and above becomes right-of: labels reverse, and
    each wall turns, swaps its sides and reverses their order."""
    w, h, n = r.width, r.height, r.n
    reflected = [(h - y2, w - x2, h - y1, w - x1) for x1, y1, x2, y2 in reversed(r.boxes)]
    flip = lambda side: [n + 1 - q for q in reversed(side)]
    turn = {"v": "h", "h": "v"}
    walls = [(turn[o], flip(side_b), flip(side_a)) for o, side_a, side_b in r.walls]
    return Rectangulation._built(_compact(reflected), walls)


# ---------------------------------------------------------------------------
# Flip graph on strong classes
# ---------------------------------------------------------------------------


def _swap_positions(pi: Permutation, i: int) -> Permutation:
    return Permutation(pi[:i] + (pi[i + 1], pi[i]) + pi[i + 2 :])


def _union_is_rect(r: Rectangulation, j: int, k: int) -> bool:
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = r.boxes[j - 1], r.boxes[k - 1]
    return (ax1, ax2) == (bx1, bx2) and (ay2 == by1 or by2 == ay1) or (
        (ay1, ay2) == (by1, by2) and (ax2 == bx1 or bx2 == ax1)
    )


def flips(r: Rectangulation) -> list[tuple[str, Rectangulation]]:
    """All flip moves from ``r``'s strong class: pairs (kind, neighbour).

    Strong classes are the classes of a lattice congruence of the weak order
    (Reading, "Generic rectangulations", 2012), so a class is the interval
    between its extremal extensions, and its neighbours in the quotient are
    the classes of the bottom's descents and of the top's ascents swapped.
    Kinds distinguish wall slides (weak class unchanged), simple flips (the
    two swapped rectangles form a rectangle together before and after), and
    pivoting flips.
    """
    p = strong_poset(r)
    weak = weak_key(r)
    found: dict[Permutation, tuple[str, Rectangulation]] = {}
    for pi, up in ((leftmost_extension(p), False), (rightmost_extension(p), True)):
        for i in range(r.n - 1):
            j, k = pi[i], pi[i + 1]
            if (j < k) == up:  # a descent of the bottom, an ascent of the top
                key = strong_key(gamma_s(_swap_positions(pi, i)))
                canon = gamma_s(key)
                if weak_key(canon) == weak:
                    kind = "wall_slide"
                elif _union_is_rect(r, j, k) and _union_is_rect(canon, j, k):
                    kind = "simple"
                else:
                    kind = "pivot"
                found[key] = (kind, canon)
    return [found[key] for key in sorted(found)]


@dataclass(frozen=True)
class FlipGraph:
    """Quotient cover graph: vertices are canonical strong-class keys."""

    n: int
    vertices: tuple[Permutation, ...]
    edges: tuple[tuple[Permutation, Permutation], ...]

    @functools.cached_property
    def _adjacent(self) -> dict[Permutation, list[Permutation]]:
        adjacent: dict[Permutation, list[Permutation]] = {}
        for a, b in self.edges:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        return adjacent

    def neighbors(self, v: Permutation) -> list[Permutation]:
        """The keys joined to ``v`` by an edge, sorted."""
        return sorted(self._adjacent.get(v, ()))

    def to_dot(self) -> str:
        lines = ["graph quotient {"]
        for v in self.vertices:
            lines.append('  "%s";' % v.one_line())
        for a, b in self.edges:
            lines.append('  "%s" -- "%s";' % (a.one_line(), b.one_line()))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _env_bound(name: str, default: int) -> int:
    """The size bound in environment variable ``name``: an ASCII decimal
    numeral, so signs, underscores, spaces and non-ASCII digits, which
    ``int()`` accepts, raise ``ValueError`` naming the variable."""
    raw = os.environ.get(name, str(default))
    try:
        return _numeral(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (name, raw)) from None


def _default_max_n() -> int:
    return _env_bound("RECTLAB_MAX_N", 6)


def quotient_cover_graph(n: int, max_n: int | None = None) -> FlipGraph:
    """Cover graph of the strong classes' quotient of the weak order on S_n,
    on the class keys.

    A key is its class's bottom, so the classes below it are those of its
    descents swapped (see :func:`flips`), and their keys are smaller.
    Guarded by ``max_n`` (default: the RECTLAB_MAX_N environment variable,
    else 6).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = max_n if max_n is not None else _default_max_n()
    if n > bound:
        raise ValueError(
            "size %d exceeds the configured bound %d (raise RECTLAB_MAX_N)"
            % (n, bound)
        )
    key_of = {pi: strong_key(gamma_s(pi)) for pi in all_permutations(n)}
    vertices = sorted(set(key_of.values()))
    edges = {
        (key_of[_swap_positions(k, i)], k)
        for k in vertices
        for i in range(n - 1)
        if k[i] > k[i + 1]
    }
    return FlipGraph(n, tuple(vertices), tuple(sorted(edges)))
