"""Rectangulation geometry: segments, labels, windmills, keys, rendering."""

from __future__ import annotations

import json
import random
import re
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    D1_RECTS,
    PINWHEEL5_RECTS,
    build,
    count_two_sided_segments,
    reverse_permutation,
)
from sequences import STRONG_RECT
from rectlab import rect
from rectlab.biject import fiber_w, gamma_s, gamma_w
from rectlab.perm import (
    Permutation,
    all_permutations,
    identity_permutation,
)
from rectlab.rect import (
    GapError,
    NonGenericError,
    NonRectangularUnionError,
    OverlapError,
    Rect,
    Rectangulation,
    RectangulationError,
    _linear_order,
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
    segment_joint_counts,
    strong_key,
    swne_labeling,
    to_json,
    weak_key,
)

perms = lambda n: st.permutations(range(1, n + 1)).map(Permutation)


def strips(n: int, vertical: bool = True) -> Rectangulation:
    if vertical:
        return from_rects([(i, 0, i + 1, 1) for i in range(n)])
    return from_rects([(0, i, 1, i + 1) for i in range(n)])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_two_side_by_side_squares(self):
        r = from_rects([(0, 0, 1, 1), (1, 0, 2, 1)])
        assert r.n == 2
        assert len(r.segments) == 1
        (seg,) = r.segments
        assert seg.orientation == "v"
        assert r.rect(1).box == (0, 0, 1, 1)  # left rectangle is labeled 1
        assert r.rect(2).box == (1, 0, 2, 1)

    def test_pinwheel13_accepted(self, pinwheel13):
        assert pinwheel13.n == 13
        assert len(pinwheel13.segments) == 12

    def test_relabeling_ignores_input_order(self):
        a = from_rects([(1, 0, 2, 1), (0, 0, 1, 1)])
        b = from_rects([(0, 0, 1, 1), (1, 0, 2, 1)])
        assert a == b

    def test_compaction_of_sparse_coordinates(self):
        r = from_rects([(0, 0, 5, 90), (5, 0, 70, 90)])
        assert r.rect(1).box == (0, 0, 1, 1)
        assert r.rect(2).box == (1, 0, 2, 1)

    def test_fraction_coordinates(self):
        h = Fraction(1, 2)
        r = from_rects([(0, 0, h, 1), (h, 0, 1, 1)])
        assert r.rect(2).box == (1, 0, 2, 1)

    def test_rejects_non_numeric_coordinates(self):
        with pytest.raises(RectangulationError):
            from_rects([(0, 0, 1.5, 1), (1.5, 0, 3, 1)])
        with pytest.raises(RectangulationError):
            from_rects([(0, 0, "1", 1)])

    def test_overlap_error(self):
        with pytest.raises(OverlapError):
            from_rects([(0, 0, 2, 1), (1, 0, 3, 1)])

    def test_gap_error(self):
        # a pinwheel ring with its center square missing: interior hole
        with pytest.raises(GapError):
            from_rects([(0, 0, 2, 1), (0, 1, 1, 3), (2, 0, 3, 2), (1, 2, 3, 3)])

    def test_non_rectangular_union_error(self):
        with pytest.raises(NonRectangularUnionError):
            from_rects([(0, 0, 1, 1), (1, 1, 2, 2)])

    def test_four_way_crossing_is_non_generic(self):
        with pytest.raises(NonGenericError):
            from_rects([(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2), (1, 1, 2, 2)])

    @pytest.mark.parametrize(
        "boxes",
        [
            [(0, 0, 1, 1), (0, 0, 1, 1)],
            [(0, 0, 1, 1), (1, 0, 2, 1), (0, 0, 1, 1), (1, 0, 2, 1)],
        ],
    )
    def test_doubled_cover_is_an_overlap(self, boxes):
        # both sides of every line form the same runs: only the area sees it
        with pytest.raises(OverlapError, match=r"near \(0, 0\)"):
            from_rects(boxes)

    def test_unmatched_runs_are_an_overlap(self):
        # the areas sum to the frame's: only the runs on x=1 see it
        with pytest.raises(OverlapError, match=r"near \(0, 1\)"):
            from_rects([(0, 0, 2, 1), (0, 1, 1, 2), (0, 1, 1, 2)])

    def test_valid_input_reaches_no_error_naming_pass(self, monkeypatch):
        # the runs, one area sum and the wall count accept a drawing; the
        # cell grid and the corner count only name what they refuse
        def refuse(*args):
            raise AssertionError("a valid drawing reached an error-naming pass")

        monkeypatch.setattr(rect, "_coverage_error", refuse)
        monkeypatch.setattr(rect, "Counter", refuse)
        pi = Permutation(random.Random(5).sample(range(1, 1025), 1024))
        for r in (gamma_s(pi), gamma_w(pi)):
            assert from_json(to_json(r)) == r
            assert Rectangulation(r.rects) == r
            assert from_rects(r.boxes).n == 1024

    def test_valid_labels_are_accepted_without_an_order_pass(self, monkeypatch):
        # a generic tiling with n - 1 walls is NW-SE-labeled iff every wall
        # cover is (i, i + 1), so accepting it computes no order
        def refuse(*args, **kwargs):
            raise AssertionError("accepting a drawing ran an order pass")

        monkeypatch.setattr(rect, "_linear_order", refuse)
        monkeypatch.setattr(rect, "_topological_order", refuse, raising=False)
        pi = Permutation(random.Random(5).sample(range(1, 1025), 1024))
        for r in (gamma_s(pi), gamma_w(pi)):
            assert from_json(to_json(r)) == r
            assert Rectangulation(r.rects) == r

    def test_mislabeled_drawing_is_named_by_one_order_pass(self, monkeypatch):
        # only a refused labeling computes the NW-SE order, to name it;
        # from_rects and each labeling run one pass too
        passes = []
        order = rect._topological_order

        def counted(n, *args, **kwargs):
            passes.append(n)
            return order(n, *args, **kwargs)

        monkeypatch.setattr(rect, "_topological_order", counted)
        r = gamma_s(Permutation(random.Random(5).sample(range(1, 1025), 1024)))
        doc = json.loads(to_json(r))
        for q in doc["rects"]:
            q["label"] = {1: 1024, 1024: 1}.get(q["label"], q["label"])
        with pytest.raises(RectangulationError) as exc:
            from_json(json.dumps(doc))
        want = (1024,) + tuple(range(2, 1024)) + (1,)
        assert str(exc.value) == (
            "labels are not the NW-SE labeling (expected order %r)" % (want,)
        )
        assert passes == [1024]
        from_rects(r.boxes)
        nwse_labeling(r)
        swne_labeling(r)
        assert passes == [1024] * 4

    def test_empty_input(self):
        with pytest.raises(RectangulationError):
            from_rects([])

    def test_degenerate_rect(self):
        with pytest.raises(RectangulationError):
            Rect(1, 0, 0, 0, 1)

    @pytest.mark.parametrize("fields", [(True, 0, 0, 1, 1), (1, False, 0, 1, 1)])
    def test_rect_rejects_bool_fields(self, fields):
        with pytest.raises(RectangulationError, match="integers"):
            Rect(*fields)

    def test_constructor_rejects_wrong_labels(self):
        # Labels must be the NW-SE order: the right rectangle may not be 1.
        with pytest.raises(RectangulationError):
            Rectangulation([Rect(2, 0, 0, 1, 1), Rect(1, 1, 0, 2, 1)])

    def test_constructor_keeps_non_compact_diagonal(self, d1):
        # D1 lives on the 16 x 16 diagonal grid, which is not compact; the
        # validating constructor must preserve it as drawn.
        assert d1.width == d1.height == 16
        assert is_diagonal(d1)

    def test_genericity_of_all_small_images(self):
        # every gamma image is constructible & generic by construction; the
        # constructor revalidates when we rebuild from raw boxes
        for pi in all_permutations(4):
            for r in (gamma_w(pi), gamma_s(pi)):
                again = Rectangulation(r.rects)
                assert again == r


# ---------------------------------------------------------------------------
# Running fixtures
# ---------------------------------------------------------------------------


class TestRunningFixtures:
    def test_d1_is_weak_image_of_running_perm(self, d1, running_perm):
        assert gamma_w(running_perm) == d1

    def test_r1_is_strong_image_of_running_perm(self, r1, running_perm):
        assert gamma_s(running_perm) == r1

    def test_d1_facts(self, d1):
        assert d1.n == 16
        assert len(d1.segments) == 15
        assert is_diagonal(d1)
        assert not is_one_sided(d1)
        assert has_z_wall(d1)
        assert not is_guillotine(d1)
        assert multiplicity(d1) == 1152
        assert count_two_sided_segments(d1) == 6
        assert sorted(w.chirality for w in find_windmills(d1)) == ["ccw", "cw"]

    def test_r1_facts(self, r1):
        assert r1.n == 16
        assert len(r1.segments) == 15
        assert not is_diagonal(r1)

    def test_r1_keys(self, r1):
        assert strong_key(r1).one_line() == "7 5 1 14 8 6 15 11 4 2 10 9 16 13 3 12"

    def test_d1_keys(self, d1):
        assert weak_key(d1).one_line() == "7 5 1 14 8 6 4 2 11 10 9 3 15 16 13 12"


# ---------------------------------------------------------------------------
# Labelings
# ---------------------------------------------------------------------------


class TestLabelings:
    def test_vertical_strips(self):
        r = strips(4)
        assert nwse_labeling(r) == (1, 2, 3, 4)
        assert swne_labeling(r) == (1, 2, 3, 4)

    def test_horizontal_strips(self):
        r = strips(4, vertical=False)
        assert nwse_labeling(r) == (1, 2, 3, 4)
        assert swne_labeling(r) == (4, 3, 2, 1)

    def test_r1_two_labelings(self, r1):
        assert nwse_labeling(r1) == tuple(range(1, 17))
        assert swne_labeling(r1) == (7, 14, 15, 16, 8, 5, 6, 1, 4, 11, 10, 9, 2, 3, 13, 12)

    def test_swne_agrees_between_equivalent_drawings(self, d1, r1):
        # SW-NE reading depends only on the weak class.
        assert swne_labeling(d1) == swne_labeling(r1)

    def test_nwse_matches_geometric_order_small(self, sweeps):
        # Independent check: every pair of labels is comparable by exactly
        # one of left-of / above, where both relations are the transitive
        # closure of sharing a wall segment (one label on each side), and
        # smaller label means left-of or above.
        for n in range(2, 6):
            for r in sweeps.strong_classes(n).values():
                m = r.n
                leftof = [[False] * (m + 1) for _ in range(m + 1)]
                above = [[False] * (m + 1) for _ in range(m + 1)]
                for seg in r.segments:
                    rel = leftof if seg.orientation == "v" else above
                    for i in seg.side_a:
                        for j in seg.side_b:
                            rel[i][j] = True
                for rel in (leftof, above):
                    changed = True
                    while changed:
                        changed = False
                        for i in range(1, m + 1):
                            for j in range(1, m + 1):
                                if not rel[i][j] and any(
                                    rel[i][k] and rel[k][j]
                                    for k in range(1, m + 1)
                                ):
                                    rel[i][j] = True
                                    changed = True
                for i in range(1, m + 1):
                    for j in range(i + 1, m + 1):
                        comparisons = [
                            leftof[i][j],
                            leftof[j][i],
                            above[i][j],
                            above[j][i],
                        ]
                        assert sum(comparisons) == 1, (r, i, j)
                        assert leftof[i][j] or above[i][j]  # i < j points NW

    @pytest.mark.parametrize("labeling", [nwse_labeling, swne_labeling])
    def test_dropped_wall_names_an_incomparable_pair(self, labeling):
        # Built drawings are never corrupt; tamper with one past validation.
        # Consecutive labels share a wall, so no wall can go missing.
        r = build(D1_RECTS)
        walls = r.walls
        for k in range(len(walls)):
            r.walls = walls[:k] + walls[k + 1 :]
            i, j = named_pair(labeling, r, "are not comparable")
            after = labels_after(r.walls, r.n, labeling is swne_labeling)
            assert j not in after[i] and i not in after[j]

    @pytest.mark.parametrize("labeling", [nwse_labeling, swne_labeling])
    def test_wall_both_ways_names_a_cycle(self, labeling):
        # The two sides of a wall are related only across it, so reversing
        # a wall alone closes no cycle: add the reversed copy instead.
        r = build(D1_RECTS)
        walls = r.walls
        for orientation, side_a, side_b in walls:
            r.walls = walls + ((orientation, side_b, side_a),)
            i, j = named_pair(labeling, r, "lie on a cycle of the order")
            after = labels_after(r.walls, r.n, labeling is swne_labeling)
            assert j in after[i] and i in after[j]

    def test_linear_order_reads_walls(self):
        walls = [("v", (2,), (3,)), ("h", (3,), (1,))]
        assert _linear_order(3, walls) == (2, 3, 1)
        # SW-NE: 1 (below 3) and 2 (left of 3) both come first
        with pytest.raises(RectangulationError, match="1 and 2 are not comparable"):
            _linear_order(3, walls, swne=True)
        with pytest.raises(RectangulationError, match="on a cycle"):
            _linear_order(3, walls + [("v", (1,), (2,))])

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.sampled_from("vh"),
                        st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True),
                        st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True),
                    ),
                    max_size=2 * n,
                ),
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_linear_order_matches_reachability(self, case, swne):
        n, walls = case
        # sides are disjoint and, as on every wall of a drawing, non-empty
        walls = [(o, a, [q for q in b if q not in a]) for o, a, b in walls]
        walls = [wall for wall in walls if wall[2]]
        after = labels_after(walls, n, swne)
        total = all(q not in after[q] for q in after) and all(
            (j in after[i]) != (i in after[j]) for i in after for j in after if i < j
        )
        try:
            order = _linear_order(n, walls, swne)
        except RectangulationError as exc:
            assert not total
            i, j = map(int, re.findall(r"\d+", str(exc))[:2])
            cyclic = "on a cycle" in str(exc)
            assert (j in after[i], i in after[j]) == (cyclic, cyclic)
        else:
            # each label precedes exactly the labels after it
            assert total
            assert all(after[q] == set(order[k + 1 :]) for k, q in enumerate(order))


def labels_after(walls, n, swne=False):
    """Label -> the labels that a chain of wall covers leads to.  A wall's
    cover joins the last label of its earlier side to the first of its
    later side: side a before side b, read along the wall; SW-NE reads
    vertical sides bottom-up and puts the horizontal side b first."""
    labels = range(1, n + 1)
    succ = {q: set() for q in labels}
    for orientation, a, b in walls:
        if swne:
            a, b = (a[::-1], b[::-1]) if orientation == "v" else (b, a)
        succ[a[-1]].add(b[0])
    after = {}
    for start in labels:
        seen, stack = set(), [start]
        while stack:
            for j in succ[stack.pop()] - seen:
                seen.add(j)
                stack.append(j)
        after[start] = seen
    return after


def named_pair(labeling, r, what):
    """The two labels that ``labeling(r)``'s error names as ``what``."""
    with pytest.raises(RectangulationError, match=r"rectangles \d+ and \d+ " + what) as exc:
        labeling(r)
    return tuple(map(int, re.findall(r"\d+", str(exc.value))[:2]))


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


class TestSegments:
    def test_count_is_n_minus_1(self, sweeps):
        for n in range(1, 7):
            for key, r in sweeps.strong_classes(n).items():
                assert len(r.segments) == n - 1, key

    def test_sides_ordered_along_segment(self, d1):
        for seg in d1.segments:
            for side in (seg.side_a, seg.side_b):
                coords = []
                for label in side:
                    q = d1.rect(label)
                    coords.append(q.y1 if seg.orientation == "v" else q.x1)
                assert coords == sorted(coords)

    def test_joint_counts_match_side_lengths(self, sweeps):
        # a side with k rectangles meets k-1 T-joints pointing into it
        for r in sweeps.strong_classes(5).values():
            for (ja, jb), seg in zip(segment_joint_counts(r), r.segments):
                assert ja == len(seg.side_a) - 1
                assert jb == len(seg.side_b) - 1

    def test_every_segment_spans_both_sides(self, d1):
        for seg in d1.segments:
            assert seg.side_a and seg.side_b
            assert seg.lo < seg.hi

    def test_wall_sides_must_span_one_interval(self, d1):
        # The assembly both routes share refuses a wall with one side cut
        # short, naming both sides.
        cut = 0
        for k, (o, side_a, side_b) in enumerate(d1.walls):
            for wall in ((o, side_a[:-1], side_b), (o, side_a, side_b[:-1])):
                if wall[1] and wall[2]:
                    walls = d1.walls[:k] + (wall,) + d1.walls[k + 1 :]
                    with pytest.raises(RectangulationError, match="span different intervals"):
                        Rectangulation._built(d1.boxes, walls)
                    cut += 1
        assert cut > 0


# ---------------------------------------------------------------------------
# Windmills and guillotine structure
# ---------------------------------------------------------------------------


class TestWindmills:
    def test_pinwheel5(self, pinwheel5):
        wm = find_windmills(pinwheel5)
        assert len(wm) == 1
        assert wm[0].chirality == "cw"
        assert not is_guillotine(pinwheel5)
        assert guillotine_tree(pinwheel5) is None

    def test_mirrored_pinwheel_has_opposite_chirality(self):
        w = max(x2 for _, _, _, x2, _ in PINWHEEL5_RECTS)
        mirrored = from_rects(
            [(w - x2, y1, w - x1, y2) for _, x1, y1, x2, y2 in PINWHEEL5_RECTS]
        )
        wm = find_windmills(mirrored)
        assert len(wm) == 1
        assert wm[0].chirality == "ccw"

    def test_pinwheel13_has_three_nested_cw_windmills(self, pinwheel13):
        assert [w.chirality for w in find_windmills(pinwheel13)] == ["cw"] * 3

    def test_strips_have_none(self):
        assert find_windmills(strips(5)) == []
        assert is_guillotine(strips(5))

    def test_windmill_free_iff_guillotine(self, sweeps):
        for n in range(1, 7):
            for r in sweeps.strong_classes(n).values():
                assert (find_windmills(r) == []) == is_guillotine(r)

    def test_size5_windmill_free_count(self, sweeps):
        classes = sweeps.strong_classes(5)
        assert len(classes) == STRONG_RECT[4]
        free = sum(1 for r in classes.values() if not find_windmills(r))
        assert free == 114

    def test_all_size4_guillotine(self, sweeps):
        assert all(is_guillotine(r) for r in sweeps.strong_classes(4).values())

    def test_guillotine_tree_shape(self):
        assert guillotine_tree(strips(2)) == ("v", 1, ("leaf", 1), ("leaf", 2))
        tree = guillotine_tree(strips(3, vertical=False))
        kind, coord, first, second = tree
        assert kind == "h" and coord == 1
        assert first == ("leaf", 1)

    def test_guillotine_tree_leaves_are_labels(self, sweeps):
        def leaves(node):
            if node[0] == "leaf":
                return [node[1]]
            return leaves(node[2]) + leaves(node[3])

        for r in sweeps.strong_classes(5).values():
            tree = guillotine_tree(r)
            if tree is not None:
                assert sorted(leaves(tree)) == list(range(1, 6))


def random_separable(n: int, rng: random.Random) -> Permutation:
    """Merge random neighbouring blocks by direct or skew sums until one is left."""
    blocks = [[1] for _ in range(n)]
    while len(blocks) > 1:
        i = rng.randrange(len(blocks) - 1)
        a, b = blocks[i], blocks.pop(i + 1)
        if rng.random() < 0.5:
            blocks[i] = a + [v + len(a) for v in b]
        else:
            blocks[i] = [v + len(b) for v in a] + b
    return Permutation(blocks[0])


class TestGuillotineAtScale:
    def test_ten_thousand_rectangles_without_recursion(self):
        """Both the hook walk and the cut tree run in well under a second at
        n=10^4, on a chain of cuts (the identity's strips), a random
        guillotine drawing and a random non-guillotine one, and neither
        touches the recursion limit (1000 by default, far below n)."""
        n, rng = 10**4, random.Random(11)
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        limit = sys.getrecursionlimit()
        for pi, guillotine in (
            (identity_permutation(n), True),
            (random_separable(n, rng), True),
            (Permutation(shuffled), False),
        ):
            r = gamma_w(pi)
            for fn in (is_guillotine, guillotine_tree):
                start = time.perf_counter()
                got = fn(r)
                assert time.perf_counter() - start < 1.0, fn.__name__
                assert (got if fn is is_guillotine else got is not None) == guillotine
        assert sys.getrecursionlimit() == limit

    def test_windmills_at_two_thousand(self):
        """One linear walk: the four-loop search took 0.27 s here."""
        pi = list(range(1, 2001))
        random.Random(12).shuffle(pi)
        r = gamma_w(Permutation(pi))
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            windmills = find_windmills(r)
            best = min(best, time.perf_counter() - start)
        assert windmills and best < 0.025


# ---------------------------------------------------------------------------
# Multiplicity, one-sidedness, Z-walls
# ---------------------------------------------------------------------------


class TestSegmentStatistics:
    def test_strips_multiplicity_one(self):
        assert multiplicity(strips(6)) == 1

    def test_multiplicity_sum_s4(self, sweeps):
        assert sum(multiplicity(r) for r in sweeps.weak_classes(4).values()) == 24

    def test_guillotine_multiplicity_sum_s5(self, sweeps):
        total = sum(
            multiplicity(r)
            for r in sweeps.weak_classes(5).values()
            if is_guillotine(r)
        )
        assert total == 114

    def test_multiplicity_counts_strong_refinements(self, sweeps):
        for n in range(1, 6):
            for r in sweeps.weak_classes(n).values():
                refinements = {strong_key(gamma_s(pi)) for pi in fiber_w(r)}
                assert multiplicity(r) == len(refinements)

    def test_one_sided_strips(self):
        assert is_one_sided(strips(4))
        assert is_one_sided(strips(4, vertical=False))

    def test_one_sided_counts(self, sweeps):
        want = {1: 1, 2: 2, 3: 6, 4: 20, 5: 72, 6: 274}
        for n, c in want.items():
            got = sum(1 for r in sweeps.weak_classes(n).values() if is_one_sided(r))
            assert got == c

    def test_one_sided_iff_no_two_sided_segments(self, sweeps):
        for r in sweeps.weak_classes(5).values():
            assert is_one_sided(r) == (count_two_sided_segments(r) == 0)

    def test_strips_have_no_z_wall(self):
        assert not has_z_wall(strips(5))
        assert not has_z_wall(strips(5, vertical=False))

    def test_multiplicity_from_binomials(self, d1):
        # independent recomputation from the joint counts
        from math import comb

        product = 1
        for seg in d1.segments:
            a, b = len(seg.side_a) - 1, len(seg.side_b) - 1
            product *= comb(a + b, a)
        assert product == multiplicity(d1) == 1152


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


class TestKeys:
    def test_strips(self):
        assert weak_key(strips(4)) == identity_permutation(4)
        assert strong_key(strips(4)) == identity_permutation(4)
        assert weak_key(strips(4, vertical=False)) == reverse_permutation(4)

    def test_round_trip_strong(self, sweeps):
        for n in range(1, 7):
            for key, r in sweeps.strong_classes(n).items():
                assert strong_key(gamma_s(key)) == key

    def test_keys_constant_on_fibers_s6(self):
        for pi in all_permutations(6):
            rw, rs = gamma_w(pi), gamma_s(pi)
            assert weak_key(rw) == weak_key(gamma_w(weak_key(rw)))
            assert strong_key(rs) == strong_key(gamma_s(strong_key(rs)))

    def test_weak_key_of_strong_drawing_matches_diagonal(self, d1, r1):
        assert weak_key(r1) == weak_key(d1)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


class TestJson:
    def test_round_trip(self, d1, r1, pinwheel13):
        for r in (d1, r1, pinwheel13):
            assert from_json(to_json(r)) == r

    def test_deterministic_bytes(self, r1):
        assert to_json(r1) == to_json(r1)

    def test_schema(self, pinwheel5):
        doc = json.loads(to_json(pinwheel5))
        assert doc["n"] == 5
        assert [q["label"] for q in doc["rects"]] == [1, 2, 3, 4, 5]
        assert set(doc["rects"][0]) == {"label", "x1", "y1", "x2", "y2"}

    @pytest.mark.parametrize("pi", ["2 4 1 3", "3 1 4 2 5", "5 1 4 2 6 3"])
    def test_swapped_first_and_last_labels_are_rejected(self, pi):
        r = gamma_s(Permutation(tuple(int(v) for v in pi.split())))
        n = r.n
        doc = json.loads(to_json(r))
        for q in doc["rects"]:
            q["label"] = {1: n, n: 1}.get(q["label"], q["label"])
        want = (n,) + tuple(range(2, n)) + (1,)
        with pytest.raises(RectangulationError) as exc:
            from_json(json.dumps(doc))
        assert str(exc.value) == (
            "labels are not the NW-SE labeling (expected order %r)" % (want,)
        )

    def test_reader_revalidates(self, pinwheel5):
        doc = json.loads(to_json(pinwheel5))
        doc["rects"][0]["x2"] += 1  # now overlaps its right neighbor
        with pytest.raises(RectangulationError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"n": 2}',
            '{"n": 1, "rects": [{"label": 1, "x1": 0, "y1": 0, "x2": 1}]}',
            '{"n": 2, "rects": [{"label": 1, "x1": 0, "y1": 0, "x2": 1, "y2": 1}]}',
            '{"n": 1, "rects": [{"label": 1, "x1": 0, "y1": 0, "x2": 1.0, "y2": 1}]}',
            '{"n": 1, "rects": [{"label": 1, "x1": 0, "y1": 0, "x2": "1", "y2": 1}]}',
            '{"n": 1, "rects": [{"label": true, "x1": 0, "y1": 0, "x2": 1, "y2": 1}]}',
            '{"n": 1.0, "rects": [{"label": 1, "x1": 0, "y1": 0, "x2": 1, "y2": 1}]}',
            '{"rects": 5}',
            '{"rects": {"label": 1}}',
            '{"rects": [[1, 0, 0, 1, 1]]}',
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(RectangulationError):
            from_json(text)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class TestRender:
    def test_single_box_ascii(self):
        art = render(from_rects([(0, 0, 1, 1)]), "ascii")
        assert "1" in art and "+" in art

    def test_strips_ascii(self):
        art = render(strips(3), "ascii")
        for label in "123":
            assert label in art

    def test_svg_well_formed(self, d1):
        svg = render(d1, "svg")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        texts = [e for e in root.iter() if e.tag.endswith("text")]
        assert len(rects) == 16
        assert sorted(t.text for t in texts) == sorted(str(i) for i in range(1, 17))

    def test_deterministic(self, r1):
        assert render(r1, "svg") == render(r1, "svg")
        assert render(r1, "ascii") == render(r1, "ascii")

    def test_unsupported_format(self, r1):
        with pytest.raises(ValueError):
            render(r1, "png")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestProperties:
    @given(perms(6))
    @settings(max_examples=120, deadline=None)
    def test_weak_images_are_diagonal_and_json_stable(self, pi):
        r = gamma_w(pi)
        assert is_diagonal(r)
        assert from_json(to_json(r)) == r

    @given(perms(6))
    @settings(max_examples=120, deadline=None)
    def test_strong_images_rebuild_from_raw_boxes(self, pi):
        r = gamma_s(pi)
        rebuilt = from_rects([q.box for q in r.rects])
        assert rebuilt == r

    @given(perms(5))
    @settings(max_examples=80, deadline=None)
    def test_multiplicity_at_least_one(self, pi):
        assert multiplicity(gamma_w(pi)) >= 1
