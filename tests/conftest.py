"""Shared fixtures and test helpers: the running example and sweep caches.

The 16-element permutation below is used throughout as a worked example; its
weak image is a 16-rectangle diagonal rectangulation (called D1 here) and its
strong image a 16-rectangle compact rectangulation (called R1).  Both are
hand-encoded coordinate by coordinate so they stay independent of the
construction code they are used to test.
"""

from __future__ import annotations

import pytest

from rectlab.biject import gamma_s, gamma_w
from rectlab.perm import Permutation, all_permutations
from rectlab.rect import (
    Rect,
    Rectangulation,
    from_rects,
    is_guillotine,
    multiplicity,
    segment_joint_counts,
    strong_key,
    weak_key,
)

RUNNING_PERM = Permutation((7, 5, 14, 8, 1, 6, 15, 11, 4, 10, 16, 2, 9, 13, 3, 12))

# D1: the diagonal (weak) image of RUNNING_PERM on the 16 x 16 grid.
# Tuples are (label, x1, y1, x2, y2) with y increasing downward.
D1_RECTS = (
    (1, 0, 0, 1, 4),  # tall strip in the NW corner
    (2, 1, 0, 2, 3),  # thin strip right of r1
    (3, 2, 0, 11, 3),  # wide top slab
    (4, 1, 3, 8, 4),  # shelf under r2/r3
    (5, 0, 4, 5, 6),  # block under r1/r4
    (6, 5, 4, 8, 6),  # block right of r5
    (7, 0, 6, 7, 16),  # big SW block
    (8, 7, 6, 8, 13),  # thin column right of r7
    (9, 8, 3, 11, 9),  # block under r3, right of r4
    (10, 8, 9, 11, 10),  # shelf under r9
    (11, 8, 10, 11, 13),  # block under r10
    (12, 11, 0, 16, 12),  # tall NE block
    (13, 11, 12, 16, 13),  # shelf under r12
    (14, 7, 13, 14, 16),  # bottom slab
    (15, 14, 13, 15, 16),  # bottom strip right of r14
    (16, 15, 13, 16, 16),  # SE corner strip
)

# R1: the strong (compact) image of RUNNING_PERM on a 9 x 8 grid.
R1_RECTS = (
    (1, 0, 0, 1, 4),  # tall strip in the NW corner
    (2, 1, 0, 3, 1),  # top shelf right of r1
    (3, 3, 0, 7, 1),  # top shelf right of r2
    (4, 1, 1, 5, 4),  # big block under r2
    (5, 0, 4, 2, 6),  # block under r1
    (6, 2, 4, 5, 6),  # block right of r5
    (7, 0, 6, 4, 8),  # SW corner block
    (8, 4, 6, 5, 7),  # small box right of r7
    (9, 5, 1, 7, 3),  # box under r3
    (10, 5, 3, 7, 5),  # box under r9
    (11, 5, 5, 7, 7),  # box under r10
    (12, 7, 0, 9, 2),  # NE corner block
    (13, 7, 2, 9, 7),  # tall block under r12
    (14, 4, 7, 6, 8),  # bottom shelf
    (15, 6, 7, 8, 8),  # bottom shelf right of r14
    (16, 8, 7, 9, 8),  # SE corner box
)

# A 5-rectangle pinwheel (one windmill, the smallest non-guillotine example).
PINWHEEL5_RECTS = (
    (1, 0, 0, 2, 1),  # top arm
    (2, 0, 1, 1, 3),  # left arm
    (3, 1, 1, 2, 2),  # center
    (4, 2, 0, 3, 2),  # right arm
    (5, 1, 2, 3, 3),  # bottom arm
)

# Three nested pinwheel rings around a central square: 13 rectangles.
PINWHEEL13_RECTS = (
    (1, 0, 0, 6, 1),  # outer top
    (2, 0, 1, 1, 7),  # outer left
    (3, 1, 1, 5, 2),  # middle top
    (4, 1, 2, 2, 6),  # middle left
    (5, 2, 2, 4, 3),  # inner top
    (6, 2, 3, 3, 5),  # inner left
    (7, 3, 3, 4, 4),  # center
    (8, 4, 2, 5, 4),  # inner right
    (9, 3, 4, 5, 5),  # inner bottom
    (10, 5, 1, 6, 5),  # middle right
    (11, 2, 5, 6, 6),  # middle bottom
    (12, 6, 0, 7, 6),  # outer right
    (13, 1, 6, 7, 7),  # outer bottom
)


def reverse_permutation(n: int) -> Permutation:
    return Permutation(range(n, 0, -1))


def inversion_set(pi: Permutation) -> frozenset[tuple[int, int]]:
    """Pairs of values ``(a, b)`` with ``a < b`` but ``a`` after ``b`` in ``pi``.
    One permutation is below another in the weak order iff its inversion
    set is a subset of the other's.

    >>> sorted(inversion_set(Permutation([3, 1, 2])))
    [(1, 3), (2, 3)]
    """
    pos = {v: i for i, v in enumerate(pi)}
    n = len(pi)
    return frozenset(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if pos[a] > pos[b]
    )


def strong_count_via_multiplicity(n: int, guillotine_only: bool = False) -> int:
    """Strong classes of size ``n`` counted without constructing them: the
    sum of ``multiplicity`` over the weak classes (the distinct ``gamma_w``
    images of S_n), over the guillotine ones with ``guillotine_only``."""
    classes = {gamma_w(pi) for pi in all_permutations(n)}
    return sum(multiplicity(r) for r in classes if not guillotine_only or is_guillotine(r))


def count_two_sided_segments(r: Rectangulation) -> int:
    """Segments with at least one perpendicular arrival on each side."""
    return sum(1 for a, b in segment_joint_counts(r) if a > 0 and b > 0)


def brick(k: int) -> Rectangulation:
    """One vertical segment with ``k + 1`` boxes left of it and ``k`` right
    of it, their joints staggered (n = 2k + 1): every other segment runs
    from the frame to it.  A product of its two sides has k(k + 1) pairs,
    and the strong order adds a same-segment relation across each joint."""
    left = [0, *range(2, 2 * k + 1, 2), 2 * k + 1]
    right = [0, *range(3, 2 * k, 2), 2 * k + 1]
    return from_rects(
        [(0, y1, 1, y2) for y1, y2 in zip(left, left[1:])]
        + [(1, y1, 2, y2) for y1, y2 in zip(right, right[1:])]
    )


@pytest.fixture(scope="session")
def running_perm() -> Permutation:
    return RUNNING_PERM


def build(labeled_rects) -> Rectangulation:
    """Build from (label, x1, y1, x2, y2) rows at the stated coordinates.

    Uses the validating constructor directly (not ``from_rects``) so that
    deliberately non-compact drawings such as the diagonal D1 keep their
    grid coordinates; the constructor still checks the labels are NW-SE.
    """
    return Rectangulation(Rect(*row) for row in labeled_rects)


@pytest.fixture(scope="session")
def d1() -> Rectangulation:
    return build(D1_RECTS)


@pytest.fixture(scope="session")
def r1() -> Rectangulation:
    return build(R1_RECTS)


@pytest.fixture(scope="session")
def pinwheel5() -> Rectangulation:
    return build(PINWHEEL5_RECTS)


@pytest.fixture(scope="session")
def pinwheel13() -> Rectangulation:
    return build(PINWHEEL13_RECTS)


class SweepCache:
    """Lazily computed exhaustive sweeps shared across test modules."""

    def __init__(self) -> None:
        self._weak: dict[int, dict[Permutation, Rectangulation]] = {}
        self._strong: dict[int, dict[Permutation, Rectangulation]] = {}

    def weak_classes(self, n: int) -> dict[Permutation, Rectangulation]:
        """Map weak_key -> one representative, over all of S_n."""
        if n not in self._weak:
            out: dict[Permutation, Rectangulation] = {}
            for pi in all_permutations(n):
                r = gamma_w(pi)
                out.setdefault(weak_key(r), r)
            self._weak[n] = out
        return self._weak[n]

    def strong_classes(self, n: int) -> dict[Permutation, Rectangulation]:
        """Map strong_key -> one representative, over all of S_n."""
        if n not in self._strong:
            out: dict[Permutation, Rectangulation] = {}
            for pi in all_permutations(n):
                r = gamma_s(pi)
                out.setdefault(strong_key(r), r)
            self._strong[n] = out
        return self._strong[n]


@pytest.fixture(scope="session")
def sweeps() -> SweepCache:
    return SweepCache()
