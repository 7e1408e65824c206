"""The mesh matcher and the pattern lists that define the permutation
classes: the reference for ``rectlab.perm.classify``, which reads its flags
off the staircase insertion instead of matching these patterns.

Conventions
-----------
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from rectlab.perm import CLASS_FLAGS, Permutation


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
# The class pattern lists
# ---------------------------------------------------------------------------

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

# Each class flag of classify is avoidance of every pattern in its list.
FORBIDDEN = {
    "baxter": (VINC_2_41_3, VINC_3_14_2),
    "twisted_baxter": (VINC_2_41_3, VINC_3_41_2),
    "co_twisted_baxter": (VINC_2_14_3, VINC_3_14_2),
    "separable": (PATTERN_2413, PATTERN_3142),
    "two_clumped": TWO_CLUMPED_FORBIDDEN,
    "co_two_clumped": CO_TWO_CLUMPED_FORBIDDEN,
    "semi_baxter": (VINC_2_41_3,),
    "windmill_mesh_avoiding": (WINDMILL_MESH_CW, WINDMILL_MESH_CCW),
}
assert set(FORBIDDEN) == set(CLASS_FLAGS)


def avoids_all(pi: Permutation, patterns: Iterable[MeshPattern]) -> bool:
    return not any(contains_pattern(pi, m) for m in patterns)


def matcher_flags(pi: Permutation) -> frozenset[str]:
    """The class flags of ``pi`` by the mesh matcher over ``FORBIDDEN``."""
    return frozenset(f for f, patterns in FORBIDDEN.items() if avoids_all(pi, patterns))
