"""History quadrant walks: encoding, predicates, and DP counters."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sequences import BAXTER, O_COUNTS, STRONG_RECT, U_COUNTS
from rectlab.biject import fiber_s, gamma_s, gamma_w, strong_poset, weak_poset
from rectlab.biject import leftmost_extension, rightmost_extension
from rectlab.perm import (
    Permutation,
    all_permutations,
    classify,
    identity_permutation,
    parse_permutation,
)
from rectlab.rect import is_one_sided, strong_key, weak_key
from rectlab.walks import (
    _O,
    _STRONG,
    _U,
    _WEAK,
    HistoryQuadrantWalk,
    WalkPoint,
    _excursion_counts,
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

perms = lambda n: st.permutations(range(1, n + 1)).map(Permutation)

D1_WALK_TEXT = """\
0 0 black
0 1 black
2 0 black
2 1 green
0 3 green
1 2 white
2 0 green
1 1 black
0 3 red
1 2 red
3 0 white
0 2 green
1 1 white
1 0 red
0 1 white
0 0 white
"""


def walk(*pts, variant="strong"):
    return HistoryQuadrantWalk(
        tuple(WalkPoint(x, y, c) for x, y, c in pts), variant
    )


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


class TestWalkPoint:
    def test_level(self):
        assert WalkPoint(2, 3, "black").level == 5

    @pytest.mark.parametrize(
        "bad",
        [
            (-1, 0, "black"),
            (0, -2, "red"),
            (0, 0, "blue"),
            (0.5, 0, "red"),
            (False, 0, "white"),
            (0, True, "red"),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises((ValueError, TypeError)):
            WalkPoint(*bad)


class TestHistoryQuadrantWalk:
    def test_level_rule_enforced(self):
        # black steps up a level, so a same-level successor is rejected
        with pytest.raises(ValueError):
            walk((0, 0, "black"), (0, 0, "white"))

    def test_must_start_at_level_zero(self):
        with pytest.raises(ValueError):
            walk((1, 0, "white"))

    def test_must_be_nonempty(self):
        with pytest.raises(ValueError):
            HistoryQuadrantWalk((), "strong")

    def test_variant_checked(self):
        with pytest.raises(ValueError):
            walk((0, 0, "white"), variant="medium")

    def test_is_closed(self):
        assert walk((0, 0, "white")).is_closed
        assert walk((0, 0, "green"), (0, 0, "white")).is_closed
        assert not walk((0, 0, "green"), (0, 0, "red")).is_closed  # ends non-white
        assert not walk((0, 0, "black"), (1, 0, "white"), (0, 0, "red")).is_closed
        assert walk((0, 0, "black"), (1, 0, "white"), (0, 0, "white")).is_closed


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


class TestTextFormat:
    def test_round_trip(self, running_perm):
        w = encode_strong(running_perm)
        assert walk_from_text(walk_to_text(w), "strong") == w

    def test_d1_walk_regression(self, running_perm):
        assert walk_to_text(encode_strong(running_perm)) == D1_WALK_TEXT

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "0 0",
            "0 0 blue",
            "-1 0 white",
            "0 0 white extra",
            "a b white",
            "0 0 black\n0 0 white",  # level violation
        ],
    )
    def test_malformed_text(self, text):
        with pytest.raises(ValueError):
            walk_from_text(text, "strong")

    def test_error_mentions_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            walk_from_text("0 0 black\nbogus line\n", "strong")

    @pytest.mark.parametrize(
        "line", ["0_0 0 white", "+0 0 white", "0 \u0660 white", "\uff10 0 white"]
    )
    def test_numbers_are_ascii_numerals(self, line):
        # int() reads each coordinate here as 0
        with pytest.raises(ValueError, match="line 2: expected a decimal numeral"):
            walk_from_text("0 0 green\n" + line, "strong")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


class TestEncode:
    def test_identity3(self):
        assert walk_to_text(encode_strong(identity_permutation(3))) == (
            "0 0 green\n0 0 green\n0 0 white\n"
        )

    def test_2413(self):
        assert walk_to_text(encode_strong(parse_permutation("2 4 1 3"))) == (
            "0 0 black\n1 0 red\n0 1 white\n0 0 white\n"
        )

    def test_weak_and_strong_share_points(self):
        for pi in all_permutations(4):
            s, w = encode_strong(pi), encode_weak(pi)
            assert s.points == w.points
            assert s.variant == "strong" and w.variant == "weak"

    def test_every_encoding_is_closed_excursion(self):
        for pi in all_permutations(5):
            w = encode_strong(pi)
            assert w.n == 5
            assert w.is_closed
            assert w.points[0].level == 0

    def test_x_bounded_by_level(self):
        for pi in all_permutations(5):
            for p in encode_strong(pi).points:
                assert p.x <= p.level

    def test_encoding_injective_s5(self):
        seen = {encode_strong(pi).points for pi in all_permutations(5)}
        assert len(seen) == 120


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class TestDecode:
    def test_single_white_point(self):
        r = decode_strong(walk((0, 0, "white")))
        assert r.n == 1

    def test_round_trip_strong_s5(self):
        for pi in all_permutations(5):
            assert decode_strong(encode_strong(pi)) == gamma_s(pi)

    def test_round_trip_weak_s5(self):
        for pi in all_permutations(5):
            assert decode(encode_weak(pi)) == gamma_w(pi)

    def test_decode_d1_walk(self, running_perm, d1, r1):
        w = walk_from_text(D1_WALK_TEXT, "strong")
        assert decode_strong(w) == r1
        assert decode(walk_from_text(D1_WALK_TEXT, "weak")) == d1

    def test_rejects_non_closed(self):
        with pytest.raises(ValueError):
            decode_strong(walk((0, 0, "black"), (1, 0, "white")))
        with pytest.raises(ValueError):
            decode_strong(walk((0, 0, "green")))

    def test_all_closed_excursions_decode(self):
        for n in range(1, 5):
            for w in closed_excursions(n, "strong"):
                r = decode_strong(w)
                assert r.n == n
            for w in closed_excursions(n, "weak"):
                r = decode(w)
                assert r.n == n

    def test_closed_excursions_biject_with_permutations(self):
        for n in range(1, 6):
            walks = list(closed_excursions(n, "strong"))
            assert len(walks) == len(set(walks))
            encodings = {encode_strong(pi) for pi in all_permutations(n)}
            assert set(walks) == encodings


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class TestPredicates:
    def test_leftmost_iff_key_encoding_s6(self):
        for pi in all_permutations(6):
            lhs = is_leftmost(encode_strong(pi))
            rhs = pi == leftmost_extension(strong_poset(gamma_s(pi)))
            assert lhs == rhs, pi

    def test_rightmost_iff_rightmost_extension_s5(self):
        for pi in all_permutations(5):
            lhs = is_rightmost(encode_strong(pi))
            rhs = pi == rightmost_extension(strong_poset(gamma_s(pi)))
            assert lhs == rhs, pi

    def test_weak_leftmost_iff_weak_key_s5(self):
        for pi in all_permutations(5):
            lhs = is_leftmost(encode_weak(pi))
            rhs = pi == weak_key(gamma_w(pi))
            assert lhs == rhs, pi

    def test_leftright_iff_singleton_fiber_s5(self):
        for pi in all_permutations(5):
            w = encode_strong(pi)
            assert is_leftright(w) == (is_leftmost(w) and is_rightmost(w))
            singleton = list(fiber_s(gamma_s(pi))) == [pi]
            assert is_leftright(w) == singleton, pi

    def test_variant_respected(self):
        # the weak predicate accepts strictly more walks at n = 4
        strong_count = sum(
            1 for w in closed_excursions(4, "strong") if is_leftmost(w)
        )
        weak_count = sum(1 for w in closed_excursions(4, "weak") if is_leftmost(w))
        assert strong_count == 24
        assert weak_count == 22


class TestColorDisambiguation:
    """The color convention is pinned by set equality: the leftmost closed
    excursions are exactly the encodings of the per-class minimal
    permutations.  Swapping the roles of green and red admits the same
    *number* of walks but marks different ones."""

    WITNESS = ((0, 0, "black"), (1, 0, "red"), (0, 1, "green"), (0, 1, "white"), (0, 0, "white"))

    @staticmethod
    def swapped_leftmost(w: HistoryQuadrantWalk) -> bool:
        ok = True
        for p, q in zip(w.points, w.points[1:]):
            if p.color in ("black", "green") and q.color in ("black", "red"):
                ok = ok and q.x >= p.x
            else:
                ok = ok and q.x >= p.x - 1
        return ok

    def test_leftmost_set_is_exactly_key_encodings_n5(self, sweeps):
        marked = {w for w in closed_excursions(5, "strong") if is_leftmost(w)}
        keys = {encode_strong(k) for k in sweeps.strong_classes(5)}
        assert len(marked) == STRONG_RECT[4]
        assert marked == keys

    def test_swapped_convention_marks_non_keys(self, sweeps):
        marked = {
            w for w in closed_excursions(5, "strong") if self.swapped_leftmost(w)
        }
        keys = {encode_strong(k) for k in sweeps.strong_classes(5)}
        assert marked != keys  # same count, different walks

    def test_witness_walk(self):
        w = walk(*self.WITNESS)
        assert not is_leftmost(w)
        assert self.swapped_leftmost(w)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


class TestCounts:
    """Each family's counts are one DP pass, compared whole, and each
    ``count_*`` is the last entry of its pass."""

    def test_count_strong_rect(self):
        assert _excursion_counts(10, **_STRONG) == STRONG_RECT
        assert count_strong_rect(10) == STRONG_RECT[-1]

    def test_count_weak_rect(self):
        assert _excursion_counts(10, **_WEAK) == BAXTER
        assert count_weak_rect(10) == BAXTER[-1]

    def test_weak_engine_matches_closed_forms_at_large_n(self):
        # every n up to the CLI's default bound of 150, from one pass
        from rectlab.counting import baxter_number

        want = [baxter_number(n) for n in range(1, 151)]
        assert _excursion_counts(150, **_WEAK) == want
        assert [nit_count(n) for n in range(1, 151)] == want

    def test_count_u(self):
        assert _excursion_counts(10, **_U) == U_COUNTS
        assert count_U(10) == U_COUNTS[-1]

    def test_count_o(self):
        assert _excursion_counts(10, **_O) == O_COUNTS
        assert count_O(10) == O_COUNTS[-1]

    def test_counts_match_brute_force_excursions(self):
        strong_rect, weak_rect, u, o = (
            _excursion_counts(6, **rules) for rules in (_STRONG, _WEAK, _U, _O)
        )
        for n in range(1, 7):
            strong = list(closed_excursions(n, "strong"))
            assert sum(1 for w in strong if is_leftmost(w)) == strong_rect[n - 1]
            assert sum(1 for w in strong if is_leftright(w)) == u[n - 1]
            weak = list(closed_excursions(n, "weak"))
            assert sum(1 for w in weak if is_leftmost(w)) == weak_rect[n - 1]
            assert sum(1 for w in weak if is_leftright(w)) == o[n - 1]

    def test_u_counts_doubly_clumped_permutations(self):
        got = [
            sum(
                1
                for pi in all_permutations(n)
                if {"two_clumped", "co_two_clumped"} <= classify(pi)
            )
            for n in range(1, 8)
        ]
        assert got == _excursion_counts(7, **_U)

    def test_o_counts_one_sided_weak_classes(self, sweeps):
        got = [
            sum(1 for r in sweeps.weak_classes(n).values() if is_one_sided(r))
            for n in range(1, 7)
        ]
        assert got == _excursion_counts(6, **_O)

    def test_o_counts_avoiders_of_all_four_vincular(self):
        got = [
            sum(
                1
                for pi in all_permutations(n)
                if {"twisted_baxter", "co_twisted_baxter", "baxter"}
                <= classify(pi)
            )
            for n in range(1, 7)
        ]
        assert got == _excursion_counts(6, **_O)


class TestNit:
    def test_small_values(self):
        assert nit_count(1) == 1
        assert nit_count(4) == 22
        assert nit_count(5) == 92

    def test_matches_baxter_through_12(self):
        from rectlab.counting import baxter_number

        for n in range(1, 13):
            assert nit_count(n) == baxter_number(n)

    def test_brute_force_disjoint_triples(self):
        def paths(start, end):
            (x0, y0), (x1, y1) = start, end
            if x1 < x0 or y1 < y0:
                return []
            out = []

            def go(x, y, acc):
                if (x, y) == (x1, y1):
                    out.append(tuple(acc))
                    return
                if x < x1:
                    go(x + 1, y, acc + [(x + 1, y)])
                if y < y1:
                    go(x, y + 1, acc + [(x, y + 1)])

            go(x0, y0, [(x0, y0)])
            return out

        starts = ((-1, 1), (0, 0), (1, -1))
        for n in range(1, 6):
            total = 0
            for k in range(1, n + 1):
                ends = ((n - k - 1, k), (n - k, k - 1), (n - k + 1, k - 2))
                for trio in product(*(paths(s, e) for s, e in zip(starts, ends))):
                    pts = [set(p) for p in trio]
                    if (
                        not pts[0] & pts[1]
                        and not pts[0] & pts[2]
                        and not pts[1] & pts[2]
                    ):
                        total += 1
            assert total == nit_count(n)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestProperties:
    @given(perms(6))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random(self, pi):
        assert decode_strong(encode_strong(pi)) == gamma_s(pi)
        assert decode(encode_weak(pi)) == gamma_w(pi)

    @given(perms(7))
    @settings(max_examples=100, deadline=None)
    def test_level_profile(self, pi):
        w = encode_strong(pi)
        levels = [p.level for p in w.points]
        assert levels[0] == 0
        assert w.points[-1].level == 0 and w.points[-1].color == "white"
        for p, q in zip(w.points, w.points[1:]):
            delta = {"black": 1, "red": 0, "green": 0, "white": -1}[p.color]
            assert q.level == p.level + delta

    @given(perms(6))
    @settings(max_examples=100, deadline=None)
    def test_text_round_trip_random(self, pi):
        w = encode_weak(pi)
        assert walk_from_text(walk_to_text(w), "weak") == w
