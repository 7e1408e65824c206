"""Forward/backward algorithms, posets, fibers, representatives, flips."""

from __future__ import annotations

import functools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RUNNING_PERM, brick, inversion_set, reverse_permutation
from sequences import BAXTER, STRONG_RECT
from rectlab import biject
from rectlab.biject import (
    FlipGraph,
    Poset,
    RealizerError,
    _Staircase,
    _wall_pairs,
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
from rectlab.perm import (
    Permutation,
    all_permutations,
    classify,
    complement,
    identity_permutation,
    parse_permutation,
)
from rectlab.rect import (
    Rectangulation,
    RectangulationError,
    _compact,
    from_json,
    is_diagonal,
    strong_key,
    to_json,
    weak_key,
)

perms = lambda n: st.permutations(range(1, n + 1)).map(Permutation)


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------


class TestForwardMaps:
    def test_identity_gives_vertical_strips(self):
        for gamma in (gamma_w, gamma_s):
            r = gamma(identity_permutation(4))
            for q in r.rects:
                assert q.y1 == 0 and q.y2 == r.height
            assert [q.x1 for q in r.rects] == sorted(q.x1 for q in r.rects)

    def test_reverse_gives_horizontal_strips(self):
        for gamma in (gamma_w, gamma_s):
            r = gamma(reverse_permutation(4))
            for q in r.rects:
                assert q.x1 == 0 and q.x2 == r.width

    def test_weak_image_counts(self, sweeps):
        for n, want in zip(range(1, 6), BAXTER[:5]):
            assert len(sweeps.weak_classes(n)) == want

    def test_strong_image_counts(self, sweeps):
        for n, want in zip(range(1, 6), STRONG_RECT[:5]):
            assert len(sweeps.strong_classes(n)) == want

    def test_weak_images_are_diagonal(self):
        for pi in all_permutations(5):
            assert is_diagonal(gamma_w(pi))

    def test_strong_refines_weak_s6(self):
        for pi in all_permutations(6):
            assert weak_key(gamma_s(pi)) == weak_key(gamma_w(pi))

    def test_diagonal_representative(self, d1, r1):
        assert diagonal_representative(r1) == d1
        assert diagonal_representative(d1) == d1


class TestInvariantChecks:
    """Internal invariants raise real errors (they survive ``python -O``)."""

    def test_corrupted_staircase(self):
        stair = _Staircase(5)
        stair.labels = [0, 2, 3, 6]  # peaks 2 and 3 leave no valley between
        with pytest.raises(RectangulationError, match="staircase invariant"):
            stair.insert(2)

    def test_inserted_set_disagreeing_with_peaks(self):
        # Flip one label of the inserted set that ``run`` holds, between
        # inserted (a one-label run) and not inserted, before each insertion
        # of each pi in S_n: the staircase either still replays or names the
        # broken invariant, never a bare IndexError.
        named = 0
        for n in range(1, 6):
            for pi in all_permutations(n):
                for step in range(n):
                    for k in range(1, n + 1):
                        stair = _Staircase(n)
                        try:
                            for i, j in enumerate(pi):
                                if i == step:
                                    stair.run[k] = -1 if stair.run[k] >= 0 else k
                                stair.insert(j)
                        except RectangulationError as exc:
                            assert "staircase invariant" in str(exc)
                            named += 1
        assert named > 0

    def test_non_diagonal_weak_drawing(self, monkeypatch):
        # A compacted drawing of the right class is valid but not diagonal.
        built = Rectangulation._built
        lean = staticmethod(lambda boxes, walls: built(_compact(boxes), walls))
        monkeypatch.setattr(Rectangulation, "_built", lean)
        with pytest.raises(RectangulationError, match="diagonal"):
            gamma_w(identity_permutation(3))

    def test_midpoint_off_the_dyadic_grid(self):
        assert biject._midpoint(2, 6) == 4
        with pytest.raises(RectangulationError, match="2\\*\\*n grid"):
            biject._midpoint(1, 2)

    def test_max_n_environment_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("RECTLAB_MAX_N", "7")
        assert biject._default_max_n() == 7
        monkeypatch.setenv("RECTLAB_MAX_N", "abc")
        with pytest.raises(ValueError, match="RECTLAB_MAX_N"):
            biject._default_max_n()


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------


class TestPosets:
    def test_strips_are_chains(self):
        r = gamma_w(identity_permutation(4))
        chain = frozenset({(1, 2), (2, 3), (3, 4)})
        assert weak_poset(r).covers == chain
        assert adjacency_poset(r).covers == chain
        assert strong_poset(gamma_s(identity_permutation(4))).covers == chain

    def test_fixture_cover_counts(self, d1, r1):
        # frozen regression values for the 16-rectangle running example
        assert len(weak_poset(d1).covers) == 21
        assert len(adjacency_poset(d1).covers) == 21
        assert len(adjacency_poset(r1).covers) == 22
        assert len(strong_poset(r1).covers) == 20

    def test_brick_relations_are_linear(self):
        # one segment with 2001 and 2000 staggered boxes on its sides: the
        # product of the sides has 4,002,000 pairs, 1,999,000 of them
        # same-segment relations; one merge along the wall keeps under 3n
        r = brick(2000)
        assert r.n == 4001 and from_json(to_json(r)) == r
        for make in (adjacency_poset, strong_poset, weak_poset):
            assert len(make(r).pairs) < 3 * r.n, make
        p = strong_poset(r)
        assert strong_key(r) == leftmost_extension(p)
        assert weak_key(r) == leftmost_extension(weak_poset(r))
        # each right box follows exactly one left box it does not touch
        assert len(p.pairs - adjacency_poset(r).pairs) == 2000 - 1

    def test_weak_poset_is_class_invariant(self, d1, r1):
        assert weak_poset(r1).covers == weak_poset(d1).covers
        assert weak_poset(d1).covers == adjacency_poset(d1).covers

    def test_covers_are_irredundant(self, sweeps):
        for r in sweeps.strong_classes(5).values():
            for p in (weak_poset(r), adjacency_poset(r), strong_poset(r)):
                for (i, j) in p.covers:
                    assert p.less(i, j)
                    # no intermediate element between the ends of a cover
                    assert not any(
                        p.less(i, k) and p.less(k, j) for k in range(1, p.n + 1)
                    )

    def test_cyclic_relation_rejected(self):
        with pytest.raises(ValueError, match="cyclic: 2 and 1 lie on a cycle"):
            Poset(3, frozenset({(1, 2), (2, 1)})).covers
        with pytest.raises(ValueError, match="cyclic: 1 and 1 lie on a cycle"):  # a self-loop
            leftmost_extension(Poset(2, frozenset({(1, 1)})))
        # the walk back from the least label left ends on the cycle, not on
        # the labels that only hang below it
        p = Poset(6, frozenset({(1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (4, 2)}))
        with pytest.raises(ValueError, match="cyclic: [456] and [456] lie on a cycle"):
            rightmost_extension(p)

    @pytest.mark.parametrize(
        "n, pairs, bad",
        [
            (2, {(1, 3)}, r"\(1, 3\)"),
            (3, {(3, 0)}, r"\(3, 0\)"),
            (2, {(1, 2.0)}, r"\(1, 2\.0\)"),
            (2, {(True, 2)}, r"\(True, 2\)"),
            (3, {(1, 2, 3)}, r"\(1, 2, 3\)"),
        ],
    )
    def test_pairs_outside_the_labels_rejected(self, n, pairs, bad):
        with pytest.raises(ValueError, match="pair %s is not two labels in 1..%d" % (bad, n)):
            Poset(n, frozenset(pairs))

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, "3"])
    def test_sizes_other_than_positive_ints_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            Poset(n, frozenset())

    @pytest.mark.parametrize(
        "n, pairs, cover, top",
        [
            # 2-dimensional, but its realizer is not its extremal extensions
            (3, {(1, 3)}, (2, 3), (2, 1, 3)),
            # the standard example S_3 (a_i = i, b_j = j + 3): dimension 3
            (
                6,
                {(i, j + 3) for i in (1, 2, 3) for j in (1, 2, 3) if i != j},
                (4, 5),
                (3, 2, 4, 1, 6, 5),
            ),
        ],
    )
    def test_orders_beyond_the_realizer_refused(self, n, pairs, cover, top):
        p = Poset(n, frozenset(pairs))
        message = r"its cover \(%d, %d\) is not a pair" % cover
        for read in (lambda: p.less(1, 2), lambda: p.covers, lambda: p == p):
            with pytest.raises(RealizerError, match=message):
                read()
        # extensions read the pairs alone, so they still work
        exts = list(linear_extensions(p))
        want = [
            q for q in all_permutations(n)
            if all(q.index(i) < q.index(j) for i, j in pairs)
        ]
        assert exts == want and count_linear_extensions(p) == len(want)
        assert leftmost_extension(p) == want[0]
        assert rightmost_extension(p) == Permutation(top)  # largest ready first

    def test_strong_poset_two_dimensional(self, sweeps):
        # the order the pairs generate (what a path of pairs reaches) is
        # exactly the intersection of its extreme extensions
        for n in range(1, 7):
            for r in sweeps.strong_classes(n).values():
                p = strong_poset(r)
                lo = leftmost_extension(p)
                hi = rightmost_extension(p)
                pos_lo = {v: i for i, v in enumerate(lo)}
                pos_hi = {v: i for i, v in enumerate(hi)}
                for i in range(1, n + 1):
                    reached, stack = set(), [i]
                    while stack:
                        k = stack.pop()
                        new = {b for a, b in p.pairs if a == k} - reached
                        reached |= new
                        stack.extend(new)
                    for j in range(1, n + 1):
                        both = pos_lo[i] < pos_lo[j] and pos_hi[i] < pos_hi[j]
                        assert (j in reached) == both == p.less(i, j)

    def test_poset_order_relations_nested(self, sweeps):
        # weak order relation is contained in the strong one (the strong
        # fiber is a subset of the weak fiber)
        for r in sweeps.strong_classes(5).values():
            pw, ps = weak_poset(r), strong_poset(r)
            for i in range(1, 6):
                for j in range(1, 6):
                    if i != j and pw.less(i, j):
                        assert ps.less(i, j)


# ---------------------------------------------------------------------------
# Linear extensions
# ---------------------------------------------------------------------------


class TestLinearExtensions:
    def test_antichain(self):
        p = Poset(3, frozenset())
        exts = list(linear_extensions(p))
        assert len(exts) == 6
        assert set(exts) == set(all_permutations(3))
        assert exts == sorted(exts)  # lexicographic enumeration
        assert count_linear_extensions(p) == 6

    def test_chain(self):
        p = Poset(4, frozenset({(1, 2), (2, 3), (3, 4)}))
        assert list(linear_extensions(p)) == [identity_permutation(4)]
        assert count_linear_extensions(p) == 1

    def test_long_chain_needs_no_recursion(self):
        n = 1200
        p = Poset(n, frozenset((i, i + 1) for i in range(1, n)))
        assert list(linear_extensions(p)) == [identity_permutation(n)]
        assert count_linear_extensions(p) == 1

    def test_cyclic_cover_set_is_rejected(self):
        p = Poset(2, frozenset({(1, 2), (2, 1)}))
        for extensions in (
            leftmost_extension,
            rightmost_extension,
            lambda q: list(linear_extensions(q)),
            count_linear_extensions,
        ):
            with pytest.raises(ValueError, match="cyclic"):
                extensions(p)

    def test_keys_close_nothing(self):
        # keys, posets, fibers, counts and extremal extensions are read off
        # the generating pairs, so only .covers, .less and == read the order
        # off the extremal extensions, once per poset
        calls = []
        real = Poset.__dict__["_later"].func

        def spy(p):
            calls.append(p.n)
            return real(p)

        spied = functools.cached_property(spy)
        spied.__set_name__(Poset, "_later")
        r = gamma_s(RUNNING_PERM)
        with mock.patch.object(Poset, "_later", spied):
            strong_key(r)
            weak_key(r)
            posets = [make(r) for make in (adjacency_poset, strong_poset, weak_poset)]
            fiber_s(r)
            fiber_w(r)
            for p in posets:
                count_linear_extensions(p)
                leftmost_extension(p)
                rightmost_extension(p)
            assert calls == []
            for p in posets:
                p.covers
                p.less(1, 2)
                p.covers
                assert p == p
            assert calls == [16, 16, 16]
        # a poset given by its covers is the same order as one given by
        # the pairs that generate it
        p = strong_poset(r)
        q = Poset(p.n, p.covers)
        assert p.pairs != q.pairs and p._later == q._later
        assert p == q and hash(p) == hash(q)

    def test_less_builds_no_covers(self):
        # the realizer check compares each label's mask with one OR per
        # pair, so asking only ``less`` runs no transitive reduction
        r = gamma_s(RUNNING_PERM)
        b, t = (
            {v: k for k, v in enumerate(ext(strong_poset(r)))}
            for ext in (leftmost_extension, rightmost_extension)
        )
        labels = range(1, r.n + 1)
        want = {(i, j) for i in labels for j in labels if b[i] < b[j] and t[i] < t[j]}

        def refuse(mask):
            raise AssertionError("less ran the cover reduction")

        p = strong_poset(r)
        with mock.patch.object(biject, "_bits", refuse):
            assert {(i, j) for i in labels for j in labels if p.less(i, j)} == want
        assert "covers" not in vars(p)
        assert p.covers <= p.pairs

    def test_equality_builds_no_covers(self):
        # the same order iff the same n and the same "later in both" masks,
        # so == and hash run no cover reduction; distinct classes differ
        def refuse(mask):
            raise AssertionError("== ran the cover reduction")

        for make, draw, classes in (
            (strong_poset, gamma_s, STRONG_RECT[4]),
            (weak_poset, gamma_w, BAXTER[4]),
        ):
            posets = [make(draw(pi)) for pi in all_permutations(5)]
            with mock.patch.object(biject, "_bits", refuse):
                again = [Poset(p.n, p.pairs) for p in posets]
                assert again == posets and list(map(hash, again)) == list(map(hash, posets))
                assert len(set(posets)) == classes
            assert all("covers" not in vars(p) for p in posets + again)
            assert all(Poset(p.n, p.covers) == p for p in posets)

    def test_extremal_extensions_of_antichain(self):
        p = Poset(3, frozenset())
        assert leftmost_extension(p) == Permutation((1, 2, 3))
        assert rightmost_extension(p) == Permutation((3, 2, 1))

    def test_strong_fibers_partition_s5(self, sweeps):
        total = sum(
            count_linear_extensions(strong_poset(r))
            for r in sweeps.strong_classes(5).values()
        )
        assert total == 120

    def test_extremes_bound_the_extension_set(self, sweeps):
        for r in sweeps.strong_classes(4).values():
            p = strong_poset(r)
            exts = list(linear_extensions(p))
            lo, hi = leftmost_extension(p), rightmost_extension(p)
            assert lo == exts[0]  # lexicographic minimum
            for e in exts:
                assert inversion_set(lo) <= inversion_set(e) <= inversion_set(hi)


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------

# Geometric backward algorithms: enumerate a fiber by deleting rectangles
# from the drawing, independently of the poset route the library takes.


def _fiber_weak_geometric(r: Rectangulation) -> set[Permutation]:
    """Enumerate the weak fiber by reverse deletion on the diagonal drawing:
    a rectangle is removable when no remaining rectangle blocks it (nothing
    it is left of or below remains)."""
    d = diagonal_representative(r)
    pairs = set(_wall_pairs(d.boxes, d.walls))
    succ = {j: {b for a, b in pairs if a == j} for j in range(1, d.n + 1)}
    out: set[Permutation] = set()
    order: list[int] = []

    def rec(remaining: frozenset[int]) -> None:
        if not remaining:
            out.add(Permutation(tuple(reversed(order))))
            return
        for j in sorted(remaining):
            if succ[j] & remaining:
                continue
            order.append(j)
            rec(remaining - {j})
            order.pop()

    rec(frozenset(range(1, d.n + 1)))
    return out


def _strong_available(
    r: Rectangulation, remaining: frozenset[int]
) -> list[int]:
    """Labels deletable next in the strong backward algorithm.

    The remaining rectangles form a staircase region; a rectangle is
    available when its top and right sides lie on the staircase boundary,
    its top-left corner continues a horizontal wall (or sits on the previous
    peak), and its bottom-right corner continues a vertical wall (or the
    next peak sits on the supporting rectangle's top side).
    """
    W, H = r.width, r.height
    INF = H  # empty column: boundary at the bottom of the box
    top = [INF] * W
    for j in remaining:
        q = r.rect(j)
        for x in range(q.x1, q.x2):
            top[x] = min(top[x], q.y1)
    avail = []
    for j in sorted(remaining):
        q = r.rect(j)
        if any(top[x] != q.y1 for x in range(q.x1, q.x2)):
            continue  # top side not exposed
        if q.x2 < W and top[q.x2] < q.y2:
            continue  # right side not exposed
        # top-left corner
        if q.x1 > 0:
            left = next(
                (
                    r.rect(k)
                    for k in remaining
                    if r.rect(k).x2 == q.x1
                    and r.rect(k).y1 <= q.y1 < r.rect(k).y2
                ),
                None,
            )
            if left is None:
                continue
            if left.y1 != q.y1 and top[q.x1 - 1] != left.y1:
                continue
        # bottom-right corner
        if q.y2 < H:
            below = next(
                (
                    r.rect(k)
                    for k in remaining
                    if r.rect(k).y1 == q.y2 and r.rect(k).x1 < q.x2 <= r.rect(k).x2
                ),
                None,
            )
            if below is None:
                continue
            if below.x2 != q.x2:
                x_next = next(
                    (x for x in range(q.x2, W) if top[x] != q.y2), W
                )
                if x_next > below.x2:
                    continue
        avail.append(j)
    return avail


def _fiber_strong_geometric(r: Rectangulation) -> set[Permutation]:
    """Enumerate the strong fiber by reverse deletion with the geometric
    availability rules (independent of the poset route)."""
    out: set[Permutation] = set()
    order: list[int] = []

    def rec(remaining: frozenset[int]) -> None:
        if not remaining:
            out.add(Permutation(tuple(reversed(order))))
            return
        for j in _strong_available(r, remaining):
            order.append(j)
            rec(remaining - {j})
            order.pop()

    rec(frozenset(range(1, r.n + 1)))
    return out


class TestFibers:
    def test_strips_fiber_is_identity(self):
        r = gamma_w(identity_permutation(5))
        assert list(fiber_w(r)) == [identity_permutation(5)]
        assert list(fiber_s(gamma_s(identity_permutation(5)))) == [
            identity_permutation(5)
        ]

    def test_fibers_partition_sn(self, sweeps):
        for n in range(1, 6):
            for getter, classes in (
                (fiber_w, sweeps.weak_classes(n)),
                (fiber_s, sweeps.strong_classes(n)),
            ):
                seen: set[Permutation] = set()
                for r in classes.values():
                    members = set(getter(r))
                    assert not (members & seen)
                    seen |= members
                assert len(seen) == sum(1 for _ in all_permutations(n))

    def test_strong_fiber_within_weak_fiber(self, sweeps):
        for r in sweeps.strong_classes(5).values():
            assert set(fiber_s(r)) <= set(fiber_w(r))

    def test_singleton_strong_fibers_up_to_4(self, sweeps):
        for n in range(1, 5):
            for r in sweeps.strong_classes(n).values():
                assert len(fiber_s(r)) == 1

    def test_fibers_are_weak_order_intervals(self):
        # strong and weak classes are classes of lattice congruences of the
        # weak order, so each fiber, read off the forward map, is the
        # interval between its extremal extensions
        for n in range(1, 7):
            inversions = {pi: inversion_set(pi) for pi in all_permutations(n)}
            for forward, key, poset in (
                (gamma_s, strong_key, strong_poset),
                (gamma_w, weak_key, weak_poset),
            ):
                fibers: dict[Permutation, tuple[Rectangulation, set]] = {}
                for pi in inversions:
                    r = forward(pi)
                    fibers.setdefault(key(r), (r, set()))[1].add(pi)
                for r, members in fibers.values():
                    p = poset(r)
                    b, t = leftmost_extension(p), rightmost_extension(p)
                    lo, hi = inversions[b], inversions[t]
                    assert lo <= hi
                    assert members == {
                        pi for pi, inv in inversions.items() if lo <= inv <= hi
                    }

    def test_geometric_backward_algorithms_agree(self, sweeps):
        for n in range(1, 6):
            for r in sweeps.weak_classes(n).values():
                assert set(_fiber_weak_geometric(r)) == set(fiber_w(r))
            for r in sweeps.strong_classes(n).values():
                assert set(_fiber_strong_geometric(r)) == set(fiber_s(r))

    def test_backward_recovers_every_permutation_s6(self):
        # WF/WB duality: pi is producible by the backward algorithm from its
        # own image (geometric route), for both variants.
        for pi in all_permutations(6):
            assert pi in set(fiber_w(gamma_w(pi)))
            assert pi in set(fiber_s(gamma_s(pi)))


# ---------------------------------------------------------------------------
# Canonical representatives
# ---------------------------------------------------------------------------


class TestRepresentatives:
    def test_strips(self):
        assert baxter_representative(gamma_w(identity_permutation(4))) == (
            identity_permutation(4)
        )
        assert baxter_representative(gamma_w(reverse_permutation(4))) == (
            reverse_permutation(4)
        )

    def test_d1_baxter_representative(self, d1):
        assert baxter_representative(d1).one_line() == (
            "7 14 15 16 8 5 6 1 4 11 10 9 2 3 13 12"
        )

    def test_d1_twisted_and_co_twisted(self, d1):
        p = weak_poset(d1)
        assert leftmost_extension(p) == weak_key(d1)
        assert rightmost_extension(p).one_line() == (
            "7 14 15 16 8 11 13 10 5 6 1 4 9 2 3 12"
        )

    def test_r1_strong_extremes(self, r1):
        p = strong_poset(r1)
        assert leftmost_extension(p) == strong_key(r1)
        assert rightmost_extension(p).one_line() == (
            "7 14 5 8 15 1 6 11 16 4 10 2 9 13 3 12"
        )

    def test_baxter_representatives_are_the_baxter_permutations(self, sweeps):
        reps = {baxter_representative(r) for r in sweeps.weak_classes(5).values()}
        baxter = {p for p in all_permutations(5) if "baxter" in classify(p)}
        assert reps == baxter

    def test_representative_is_unique_baxter_member_s5(self, sweeps):
        for r in sweeps.weak_classes(5).values():
            members = [q for q in fiber_w(r) if "baxter" in classify(q)]
            assert members == [baxter_representative(r)]

    def test_keys_are_twisted_and_clumped_s5(self, sweeps):
        for r in sweeps.weak_classes(5).values():
            assert "twisted_baxter" in classify(weak_key(r))
        for r in sweeps.strong_classes(5).values():
            assert "two_clumped" in classify(strong_key(r))


# ---------------------------------------------------------------------------
# Reflection
# ---------------------------------------------------------------------------


class TestReflection:
    def test_strips_reflect_to_strips(self):
        v = gamma_s(identity_permutation(3))
        h = gamma_s(reverse_permutation(3))
        assert reflect_swne(v) == h
        assert reflect_swne(h) == v

    def test_involution_s5(self, sweeps):
        for r in sweeps.strong_classes(5).values():
            assert strong_key(reflect_swne(reflect_swne(r))) == strong_key(r)

    def test_reflection_conjugates_complement_s5(self):
        for pi in all_permutations(5):
            assert strong_key(gamma_s(complement(pi))) == strong_key(
                reflect_swne(gamma_s(pi))
            )

    def test_reflection_key_is_complement_of_rightmost_s5(self, sweeps):
        for r in sweeps.strong_classes(5).values():
            assert strong_key(reflect_swne(r)) == complement(
                rightmost_extension(strong_poset(r))
            )


# ---------------------------------------------------------------------------
# Flips and the quotient cover graph
# ---------------------------------------------------------------------------


class TestFlips:
    def test_n2_graph(self):
        g = quotient_cover_graph(2)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1

    def test_n3_graph_matches_brute_force(self):
        g = quotient_cover_graph(3)
        assert len(g.vertices) == 6
        key_of = {pi: strong_key(gamma_s(pi)) for pi in all_permutations(3)}
        want = set()
        for pi, k1 in key_of.items():
            for i in range(2):
                swapped = Permutation(
                    pi[:i] + (pi[i + 1], pi[i]) + pi[i + 2 :]
                )
                k2 = key_of[swapped]
                if k1 != k2:
                    want.add((min(k1, k2), max(k1, k2)))
        assert set(g.edges) == want

    def test_n4_graph_shape(self):
        g = quotient_cover_graph(4)
        assert len(g.vertices) == 24
        assert len(g.edges) == 36

    def test_flip_kind_census_n4(self, sweeps):
        census: Counter[str] = Counter()
        for r in sweeps.strong_classes(4).values():
            for kind, _ in flips(r):
                census[kind] += 1
        assert census == {"simple": 36, "pivot": 32, "wall_slide": 4}

    def test_flips_match_graph_neighborhoods_n4(self, sweeps):
        g = quotient_cover_graph(4)
        for v in g.vertices:
            got = {strong_key(r2) for _, r2 in flips(gamma_s(v))}
            assert got == set(g.neighbors(v))

    def test_wall_slides_preserve_weak_class(self, sweeps):
        for n in range(2, 6):
            for r in sweeps.strong_classes(n).values():
                for kind, r2 in flips(r):
                    assert (weak_key(r2) == weak_key(r)) == (kind == "wall_slide")

    @pytest.mark.parametrize("n", [0, -1])
    def test_sizes_below_one(self, n):
        # rejected before the bound, which a size below one always meets
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            quotient_cover_graph(n, max_n=-5)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            quotient_cover_graph(9)
        g = quotient_cover_graph(3, max_n=3)
        assert g.n == 3

    def test_to_dot_format(self):
        g = quotient_cover_graph(2)
        dot = g.to_dot()
        assert dot.startswith("graph quotient {")
        assert '"1 2"' in dot and '"2 1"' in dot
        assert '"1 2" -- "2 1";' in dot
        assert dot.rstrip().endswith("}")

    def test_neighbors_sorted(self):
        g = quotient_cover_graph(4)
        for v in g.vertices:
            ns = g.neighbors(v)
            assert ns == sorted(ns)

    def test_neighbors_match_the_edge_scan_n6(self):
        g = quotient_cover_graph(6)
        for v in g.vertices:
            scan = [b for a, b in g.edges if a == v] + [a for a, b in g.edges if b == v]
            assert g.neighbors(v) == sorted(scan)
        assert g.neighbors(Permutation((1,))) == []

    def test_flips_read_the_weak_key_once(self):
        # one weak key for the class, and one per neighbour's drawing
        values = list(range(1, 25))
        random.Random(24).shuffle(values)
        r = gamma_s(Permutation(values))
        calls = []
        real = biject.weak_key

        def spy(drawing):
            calls.append(drawing)
            return real(drawing)

        with mock.patch.object(biject, "weak_key", spy):
            moves = flips(r)
        assert calls[0] is r and r not in calls[1:]
        assert len(calls) == len(moves) + 1


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestProperties:
    @given(perms(6))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_membership(self, pi):
        assert pi in set(fiber_s(gamma_s(pi)))

    @given(perms(6))
    @settings(max_examples=150, deadline=None)
    def test_keys_are_fiber_minima(self, pi):
        r = gamma_s(pi)
        key = strong_key(r)
        assert inversion_set(key) <= inversion_set(pi)

    @given(perms(5))
    @settings(max_examples=100, deadline=None)
    def test_reflection_is_involution(self, pi):
        r = gamma_s(pi)
        assert strong_key(reflect_swne(reflect_swne(r))) == strong_key(r)
