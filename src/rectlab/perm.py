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
- Class flags are pattern avoidance.  The windmill flag is decided without
  the matcher: by the source paper's theorem it holds exactly when the
  staircase insertion's walls, from :mod:`rectlab.rect` (the one package
  module imported here), hold no windmill.
"""

from __future__ import annotations

import itertools
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
        if not all(isinstance(v, int) for v in values):
            raise TypeError("entries must be integers, not %s" % type(values[0]).__name__)
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


# The classical and vincular patterns used by the class predicates below.
PATTERN_2413 = classical_pattern((2, 4, 1, 3))
PATTERN_3142 = classical_pattern((3, 1, 4, 2))
VINC_2_41_3 = vincular_pattern((2, 4, 1, 3), (2,))
VINC_3_14_2 = vincular_pattern((3, 1, 4, 2), (2,))
VINC_3_41_2 = vincular_pattern((3, 4, 1, 2), (2,))
VINC_2_14_3 = vincular_pattern((2, 1, 4, 3), (2,))

# The four vincular patterns (middle pair adjacent) whose avoidance defines
# two-clumped permutations, and their complements (co-two-clumped).
TWO_CLUMPED_FORBIDDEN = (
    vincular_pattern((2, 4, 5, 1, 3), (3,)),
    vincular_pattern((4, 2, 5, 1, 3), (3,)),
    vincular_pattern((3, 5, 1, 2, 4), (2,)),
    vincular_pattern((3, 5, 1, 4, 2), (2,)),
)
CO_TWO_CLUMPED_FORBIDDEN = (
    vincular_pattern((2, 4, 1, 5, 3), (3,)),
    vincular_pattern((4, 2, 1, 5, 3), (3,)),
    vincular_pattern((3, 1, 5, 2, 4), (2,)),
    vincular_pattern((3, 1, 5, 4, 2), (2,)),
)

# The two mesh patterns whose joint avoidance characterizes permutations
# mapping to guillotine rectangulations; containment of each corresponds to
# one windmill chirality ("cw": the top horizontal wall of the windmill ends
# inside its right vertical wall; "ccw" is the mirror image).
WINDMILL_MESH_CW = MeshPattern(
    Permutation((2, 5, 3, 1, 4)),
    frozenset({(0, 3), (0, 4), (1, 3), (4, 2), (5, 1), (5, 2)}),
)
WINDMILL_MESH_CCW = MeshPattern(
    Permutation((4, 1, 3, 5, 2)),
    frozenset({(0, 1), (0, 2), (1, 2), (4, 3), (5, 3), (5, 4)}),
)


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


def avoids_all(pi: Permutation, patterns: Iterable[MeshPattern]) -> bool:
    return not any(contains_pattern(pi, m) for m in patterns)


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


def classify(pi: Permutation) -> frozenset[str]:
    """The set of class flags that hold for ``pi``.

    Each flag is avoidance of a fixed pattern list: ``separable`` avoids the
    two classical crossing patterns; ``baxter``/``twisted_baxter``/
    ``co_twisted_baxter``/``semi_baxter`` avoid vincular pairs (or the single
    vincular pattern for ``semi_baxter``); ``two_clumped``/``co_two_clumped``
    avoid their four vincular patterns; ``windmill_mesh_avoiding`` avoids both
    windmill mesh patterns.  The first seven run the mesh matcher; the
    windmill flag is read off the staircase insertion's walls instead (see
    :func:`_windmill_free`), where the matcher would cost far more.
    """
    flags = set()
    if avoids_all(pi, (VINC_2_41_3, VINC_3_14_2)):
        flags.add("baxter")
    if avoids_all(pi, (VINC_2_41_3, VINC_3_41_2)):
        flags.add("twisted_baxter")
    if avoids_all(pi, (VINC_2_14_3, VINC_3_14_2)):
        flags.add("co_twisted_baxter")
    if avoids_all(pi, (PATTERN_2413, PATTERN_3142)):
        flags.add("separable")
    if avoids_all(pi, TWO_CLUMPED_FORBIDDEN):
        flags.add("two_clumped")
    if avoids_all(pi, CO_TWO_CLUMPED_FORBIDDEN):
        flags.add("co_two_clumped")
    if not contains_pattern(pi, VINC_2_41_3):
        flags.add("semi_baxter")
    if _windmill_free(pi):
        flags.add("windmill_mesh_avoiding")
    return frozenset(flags)


def _windmill_free(pi: Permutation) -> bool:
    """Whether ``pi`` avoids both windmill mesh patterns.

    By the source paper's theorem these are exactly the permutations whose
    images are guillotine, that is windmill-free.  So the flag inserts
    ``pi`` into a staircase and walks its walls (the segments of both
    ``gamma_w(pi)`` and ``gamma_s(pi)``) for a windmill in O(n), building
    no drawing.  The mesh matcher is the reference in the tests.
    """
    st = _Staircase(pi.n)
    for j in pi:
        st.insert(j)
    return next(_windmills(pi.n, st.walls), None) is None


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
