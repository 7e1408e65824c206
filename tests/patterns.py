"""The pattern lists that define the permutation classes, and the matcher
reference for ``rectlab.perm.classify``, which reads its flags off the
staircase insertion instead of matching these patterns."""

from __future__ import annotations

from typing import Iterable

from rectlab.perm import (
    CLASS_FLAGS,
    MeshPattern,
    Permutation,
    classical_pattern,
    contains_pattern,
    vincular_pattern,
)

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
