"""Bijections between permutations and rectangulations, with exact enumeration.

The package is organized by subject:

- :mod:`rectlab.perm` — permutations and the class predicates, read off
  one staircase insertion.
- :mod:`rectlab.rect` — rectangulation geometry: segments, labelings,
  windmills, guillotine structure, multiplicity, canonical keys, rendering.
- :mod:`rectlab.biject` — the forward/backward insertion algorithms, the three
  posets, linear extensions, fibers, canonical representatives, flips.
- :mod:`rectlab.walks` — history quadrant walks: encoding, leftmost/rightmost
  predicates, and DP counters.
- :mod:`rectlab.counting` — closed-form and recursive enumeration, the
  weighted guillotine series as truncated coefficient lists, growth
  constants.
- :mod:`rectlab.cli` — the ``rectlab`` command-line tool.

The most commonly used names are re-exported at the package top level.
"""

from __future__ import annotations

from .biject import (
    FlipGraph,
    Poset,
    RealizerError,
    adjacency_poset,
    baxter_representative,
    count_linear_extensions,
    diagonal_representative,
    fiber_s,
    fiber_w,
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
from .counting import (
    CountTable,
    GrowthConstants,
    Series,
    baxter_number,
    growth_constants,
    schroder_counts,
    schroder_series,
    strong_guillotine_count,
    strong_guillotine_table,
    weighted_guillotine_series,
)
from .perm import (
    CLASS_FLAGS,
    Permutation,
    all_permutations,
    classify,
    complement,
    identity_permutation,
    parse_permutation,
)
from .rect import (
    Rect,
    Rectangulation,
    RectangulationError,
    Segment,
    Windmill,
    find_windmills,
    from_json,
    from_rects,
    guillotine_tree,
    has_z_wall,
    is_diagonal,
    is_guillotine,
    is_one_sided,
    multiplicity,
    nwse_labeling,
    render,
    strong_key,
    swne_labeling,
    to_json,
    weak_key,
)
from .walks import (
    HistoryQuadrantWalk,
    WalkPoint,
    closed_excursions,
    count_O,
    count_U,
    count_strong_rect,
    count_weak_rect,
    decode,
    decode_strong,
    encode_strong,
    encode_weak,
    is_leftmost,
    is_leftright,
    is_rightmost,
    nit_count,
    walk_from_text,
    walk_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_FLAGS",
    "CountTable",
    "FlipGraph",
    "GrowthConstants",
    "HistoryQuadrantWalk",
    "Permutation",
    "Poset",
    "RealizerError",
    "Rect",
    "Rectangulation",
    "RectangulationError",
    "Segment",
    "Series",
    "WalkPoint",
    "Windmill",
    "adjacency_poset",
    "all_permutations",
    "baxter_number",
    "baxter_representative",
    "classify",
    "closed_excursions",
    "complement",
    "count_O",
    "count_U",
    "count_linear_extensions",
    "count_strong_rect",
    "count_weak_rect",
    "decode",
    "decode_strong",
    "diagonal_representative",
    "encode_strong",
    "encode_weak",
    "fiber_s",
    "fiber_w",
    "find_windmills",
    "flips",
    "from_json",
    "from_rects",
    "gamma_s",
    "gamma_w",
    "growth_constants",
    "guillotine_tree",
    "has_z_wall",
    "identity_permutation",
    "is_diagonal",
    "is_guillotine",
    "is_leftmost",
    "is_leftright",
    "is_one_sided",
    "is_rightmost",
    "leftmost_extension",
    "linear_extensions",
    "multiplicity",
    "nit_count",
    "nwse_labeling",
    "parse_permutation",
    "quotient_cover_graph",
    "reflect_swne",
    "render",
    "rightmost_extension",
    "schroder_counts",
    "schroder_series",
    "strong_guillotine_count",
    "strong_guillotine_table",
    "strong_key",
    "strong_poset",
    "swne_labeling",
    "to_json",
    "walk_from_text",
    "walk_to_text",
    "weak_key",
    "weak_poset",
    "weighted_guillotine_series",
]
