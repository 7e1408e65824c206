"""Permutations, the mesh matcher of the tests, class predicates, weak order."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inversion_set, reverse_permutation
from patterns import (
    CO_TWO_CLUMPED_FORBIDDEN,
    PATTERN_2413,
    PATTERN_3142,
    TWO_CLUMPED_FORBIDDEN,
    VINC_2_14_3,
    VINC_2_41_3,
    VINC_3_14_2,
    VINC_3_41_2,
    WINDMILL_MESH_CCW,
    WINDMILL_MESH_CW,
    MeshPattern,
    avoids_all,
    classical_pattern,
    contains_pattern,
    matcher_flags,
    occurrences,
    vincular_pattern,
)
from rectlab import perm, rect
from rectlab.biject import baxter_representative, gamma_w
from rectlab.rect import Rectangulation, is_diagonal, swne_labeling
from rectlab.perm import (
    CLASS_FLAGS,
    Permutation,
    all_permutations,
    classify,
    complement,
    identity_permutation,
    parse_permutation,
)

perms = lambda n: st.permutations(range(1, n + 1)).map(Permutation)


def random_separable(n: int, rng: random.Random) -> Permutation:
    """A separable permutation: random direct and skew sums of adjacent
    blocks, starting from ``n`` singletons."""
    blocks = [[1] for _ in range(n)]
    while len(blocks) > 1:
        i = rng.randrange(len(blocks) - 1)
        left, right = blocks[i], blocks[i + 1]
        if rng.random() < 0.5:  # direct sum
            blocks[i : i + 2] = [left + [v + len(left) for v in right]]
        else:  # skew sum
            blocks[i : i + 2] = [[v + len(right) for v in left] + right]
    return Permutation(blocks[0])


# An avoidance-equivalent enlargement of WINDMILL_MESH_CW with rectangular
# shaded blocks, kept as a cross-check fixture.
WINDMILL_MESH_CW_BLOCK = MeshPattern(
    Permutation((2, 5, 3, 1, 4)),
    frozenset(
        {(i, j) for i in (0, 1) for j in (2, 3, 4)}
        | {(i, j) for i in (4, 5) for j in (1, 2, 3)}
    ),
)


# ---------------------------------------------------------------------------
# Permutation basics
# ---------------------------------------------------------------------------


class TestPermutation:
    def test_value_object(self):
        assert Permutation((2, 1, 3)) == Permutation([2, 1, 3])
        assert Permutation((2, 1, 3)) != Permutation((2, 3, 1))
        assert hash(Permutation((1, 2))) == hash(Permutation([1, 2]))

    def test_parse_and_one_line(self):
        pi = parse_permutation("2 4 1 3")
        assert pi == Permutation((2, 4, 1, 3))
        assert pi.one_line() == "2 4 1 3"
        assert parse_permutation("  7\t5  14 8 1 6 15 11 4 10 16 2 9 13 3 12 ").n == 16

    @pytest.mark.parametrize("bad", ["", "1 2 2", "0 1", "1 3", "one two", "1.5 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_permutation(bad)

    @pytest.mark.parametrize(
        "bad, entry",
        [
            ("2 +1", 2),
            ("1_0 2", 1),
            ("2 -1", 2),
            ("\u0662 1", 1),  # ARABIC-INDIC DIGIT TWO
            ("2 \uff11", 2),  # FULLWIDTH DIGIT ONE
        ],
    )
    def test_parse_accepts_only_ascii_numerals(self, bad, entry):
        # int() reads each of these as a number
        with pytest.raises(ValueError, match="entry %d" % entry):
            parse_permutation(bad)

    @pytest.mark.parametrize(
        "entries, kind", [((True, 2), "bool"), ((2, True), "bool"), ((1, "2"), "str")]
    )
    def test_rejects_non_int_entries_naming_their_type(self, entries, kind):
        with pytest.raises(TypeError, match="entries must be integers, not %s$" % kind):
            Permutation(entries)

    def test_identity_and_reverse(self):
        assert identity_permutation(4) == Permutation((1, 2, 3, 4))
        assert reverse_permutation(4) == Permutation((4, 3, 2, 1))

    def test_complement_formula(self):
        assert complement(Permutation((1, 3, 2))) == Permutation((3, 1, 2))

    def test_complement_involution_s7(self):
        assert all(complement(complement(pi)) == pi for pi in all_permutations(7))


# ---------------------------------------------------------------------------
# Mesh patterns: construction and the compiled-in constants
# ---------------------------------------------------------------------------


class TestMeshPattern:
    def test_classical_has_empty_shading(self):
        m = classical_pattern((1, 3, 2))
        assert m.k == 3 and m.shaded == frozenset()

    def test_vincular_shades_full_columns(self):
        m = vincular_pattern((2, 4, 1, 3), (2,))
        assert m.shaded == frozenset((2, j) for j in range(5))

    def test_shaded_cells_must_be_in_grid(self):
        with pytest.raises(ValueError):
            MeshPattern(Permutation((1, 2)), frozenset({(3, 0)}))
        with pytest.raises(ValueError):
            vincular_pattern((1, 2), (5,))

    def test_windmill_mesh_constants_pinned(self):
        # Regression pins for the two hand-transcribed mesh patterns: the
        # pattern words and the exact shaded-cell sets.
        assert WINDMILL_MESH_CW.tau == Permutation((2, 5, 3, 1, 4))
        assert WINDMILL_MESH_CW.shaded == frozenset(
            {(0, 3), (0, 4), (1, 3), (4, 2), (5, 1), (5, 2)}
        )
        assert WINDMILL_MESH_CCW.tau == Permutation((4, 1, 3, 5, 2))
        assert WINDMILL_MESH_CCW.shaded == frozenset(
            {(0, 1), (0, 2), (1, 2), (4, 3), (5, 3), (5, 4)}
        )

    def test_windmill_block_variant_equivalent_on_s6(self):
        for pi in all_permutations(6):
            assert contains_pattern(pi, WINDMILL_MESH_CW) == contains_pattern(
                pi, WINDMILL_MESH_CW_BLOCK
            )


# ---------------------------------------------------------------------------
# Containment: pinned examples
# ---------------------------------------------------------------------------


class TestContainmentExamples:
    def test_classical_132_in_32514(self):
        pi = parse_permutation("3 2 5 1 4")
        m = classical_pattern((1, 3, 2))
        occs = list(occurrences(pi, m))
        assert (2, 3, 5) in occs  # the subsequence 2 5 4
        assert occs == sorted(occs)
        assert contains_pattern(pi, m)

    def test_vincular_2413_in_24513(self):
        pi = parse_permutation("2 4 5 1 3")
        occs = list(occurrences(pi, VINC_2_41_3))
        assert occs == [(1, 3, 4, 5)]  # the subsequence 2 5 1 3

    def test_vincular_2413_not_in_25314(self):
        assert not contains_pattern(parse_permutation("2 5 3 1 4"), VINC_2_41_3)

    def test_526314_separating_example(self):
        # Contains the classical pattern but neither the vincular nor the
        # mesh strengthening: the three notions are genuinely different.
        pi = parse_permutation("5 2 6 3 1 4")
        assert contains_pattern(pi, PATTERN_2413)
        assert not contains_pattern(pi, VINC_2_41_3)
        assert not contains_pattern(pi, WINDMILL_MESH_CW)

    def test_increasing_contains_no_descent_pattern(self):
        assert not contains_pattern(identity_permutation(5), WINDMILL_MESH_CW)

    def test_pattern_larger_than_host(self):
        assert not contains_pattern(Permutation((2, 1)), PATTERN_2413)
        assert list(occurrences(Permutation((1,)), PATTERN_2413)) == []

    def test_full_occurrence_of_p1(self):
        # The pattern word itself is an occurrence (no other points exist, so
        # no shaded cell can be violated).
        assert contains_pattern(Permutation((2, 5, 3, 1, 4)), WINDMILL_MESH_CW)


# ---------------------------------------------------------------------------
# Containment: oracle agreement
# ---------------------------------------------------------------------------


def naive_classical_contains(pi: Permutation, tau: Permutation) -> bool:
    k = len(tau)
    for idx in combinations(range(len(pi)), k):
        vals = [pi[i] for i in idx]
        if all(
            (vals[a] < vals[b]) == (tau[a] < tau[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def naive_vincular_contains(
    pi: Permutation, tau: Permutation, adjacent_after: tuple[int, ...]
) -> bool:
    """Direct checker: positions increasing, adjacency forced after the
    listed pattern positions, values order-isomorphic to ``tau``."""
    k = len(tau)
    n = len(pi)

    def extend(chosen: list[int]) -> bool:
        i = len(chosen)
        if i == k:
            return True
        if i in adjacent_after and i > 0:
            candidates = [chosen[-1] + 1] if chosen[-1] + 1 < n else []
        else:
            start = chosen[-1] + 1 if chosen else 0
            candidates = list(range(start, n))
        for pos in candidates:
            ok = all(
                (pi[pos] > pi[chosen[j]]) == (tau[i] > tau[j]) for j in range(i)
            )
            if ok and extend(chosen + [pos]):
                return True
        return False

    return extend([])


def ref_occurrences(pi: Permutation, m: MeshPattern) -> list[tuple[int, ...]]:
    """Every k-subset of positions, checked by the definition in the
    docstring of ``patterns``: order-isomorphic to ``tau`` and no entry of
    ``pi`` inside a shaded cell, with sentinels ``s_0 = t_0 = 0`` and
    ``s_{k+1} = t_{k+1} = n+1``."""
    n, k = len(pi), m.k
    out = []
    for s in combinations(range(1, n + 1), k):
        vals = [pi[p - 1] for p in s]
        pairs = combinations(range(k), 2)
        if any((vals[a] < vals[b]) != (m.tau[a] < m.tau[b]) for a, b in pairs):
            continue
        cols, t = (0, *s, n + 1), (0, *sorted(vals), n + 1)
        if not any(
            t[j] < pi[ell - 1] < t[j + 1]
            for i, j in m.shaded
            for ell in range(cols[i] + 1, cols[i + 1])
        ):
            out.append(s)
    return out


def shaded_patterns(seed: int) -> list[MeshPattern]:
    """Every pattern of size <= 3 under random shadings: two as drawn, and
    one each with its first column, its last column and both fully shaded."""
    rng = random.Random(seed)
    out = []
    for k in range(1, 4):
        cells = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        for tau in all_permutations(k):
            for full in ((), (), (0,), (k,), (0, k)):
                shaded = {c for c in cells if rng.random() < 0.25}
                shaded |= {(c, j) for c in full for j in range(k + 1)}
                out.append(MeshPattern(tau, frozenset(shaded)))
    return out


class TestContainmentOracles:
    def test_occurrences_match_every_subset_check(self):
        patterns = shaded_patterns(10) + [WINDMILL_MESH_CW, WINDMILL_MESH_CCW]
        for n in range(1, 7):
            for pi in all_permutations(n):
                for m in patterns:
                    assert list(occurrences(pi, m)) == ref_occurrences(pi, m), (pi, m)

    def test_classical_matches_naive_s6_x_s3(self):
        patterns = [classical_pattern(t) for t in all_permutations(3)]
        for pi in all_permutations(6):
            for m in patterns:
                assert contains_pattern(pi, m) == naive_classical_contains(
                    pi, m.tau
                ), (pi, m.tau)

    def test_classical_matches_naive_2413_3142_on_s5(self):
        for pi in all_permutations(5):
            assert contains_pattern(pi, PATTERN_2413) == naive_classical_contains(
                pi, Permutation((2, 4, 1, 3))
            )
            assert contains_pattern(pi, PATTERN_3142) == naive_classical_contains(
                pi, Permutation((3, 1, 4, 2))
            )

    def test_vincular_matches_direct_checker_on_s6(self):
        cases = [
            (VINC_2_41_3, (2, 4, 1, 3), (2,)),
            (VINC_3_14_2, (3, 1, 4, 2), (2,)),
            (VINC_3_41_2, (3, 4, 1, 2), (2,)),
            (VINC_2_14_3, (2, 1, 4, 3), (2,)),
            (TWO_CLUMPED_FORBIDDEN[0], (2, 4, 5, 1, 3), (3,)),
            (TWO_CLUMPED_FORBIDDEN[1], (4, 2, 5, 1, 3), (3,)),
            (TWO_CLUMPED_FORBIDDEN[2], (3, 5, 1, 2, 4), (2,)),
            (TWO_CLUMPED_FORBIDDEN[3], (3, 5, 1, 4, 2), (2,)),
        ]
        for pi in all_permutations(6):
            for m, word, adj in cases:
                assert contains_pattern(pi, m) == naive_vincular_contains(
                    pi, Permutation(word), adj
                ), (pi, word)

    def test_occurrences_are_lexicographic_and_unique(self):
        pi = parse_permutation("4 2 6 1 5 3")
        for m in (PATTERN_2413, VINC_2_41_3, classical_pattern((1, 2))):
            occs = list(occurrences(pi, m))
            assert occs == sorted(set(occs))


# ---------------------------------------------------------------------------
# Class predicates
# ---------------------------------------------------------------------------


class TestClassify:
    def test_identity_has_all_flags(self):
        for n in (1, 3, 6):
            assert classify(identity_permutation(n)) == frozenset(CLASS_FLAGS)

    def test_baxter_count_s4(self):
        assert sum(1 for p in all_permutations(4) if "baxter" in classify(p)) == 22

    def test_separable_counts(self):
        want = {1: 1, 2: 2, 3: 6, 4: 22, 5: 90}
        for n, c in want.items():
            got = sum(1 for p in all_permutations(n) if "separable" in classify(p))
            assert got == c

    def test_flag_counts_over_s5(self):
        # Frozen brute-force counts; every class predicate pinned at once.
        want = {
            "baxter": 92,
            "twisted_baxter": 92,
            "co_twisted_baxter": 92,
            "separable": 90,
            "two_clumped": 116,
            "co_two_clumped": 116,
            "semi_baxter": 104,
            "windmill_mesh_avoiding": 118,
        }
        got = dict.fromkeys(CLASS_FLAGS, 0)
        for p in all_permutations(5):
            for f in classify(p):
                got[f] += 1
        assert got == want

    def test_classify_builds_no_drawing_and_runs_no_matcher(self, monkeypatch):
        """Every flag is read off the staircase insertion: no drawing, lean
        or validated, is built and no pattern is matched on the way."""
        want = {pi: matcher_flags(pi) for pi in all_permutations(5)}

        def refuse(*args):
            raise AssertionError("classify built a rectangulation or matched")

        monkeypatch.setattr(Rectangulation, "__init__", refuse)
        monkeypatch.setattr(Rectangulation, "_built", refuse)
        assert {pi: classify(pi) for pi in want} == want
        assert all(any(f in w for w in want.values()) for f in CLASS_FLAGS)
        assert all(any(f not in w for w in want.values()) for f in CLASS_FLAGS)

    def test_baxter_flag_runs_no_kahn_pass(self, monkeypatch):
        """``pi`` is the SW-NE order of its walls iff each wall's earlier
        side lies wholly before its later side in ``pi``: the flag agrees
        with the Kahn pass over the weak image without running it."""
        want = {pi: swne_labeling(gamma_w(pi)) == pi for pi in all_permutations(6)}

        def refuse(*args, **kwargs):
            raise AssertionError("classify ran the Kahn pass")

        monkeypatch.setattr(rect, "_linear_order", refuse)
        monkeypatch.setattr(perm, "_linear_order", refuse, raising=False)
        assert {pi: "baxter" in classify(pi) for pi in want} == want
        assert 0 < sum(want.values()) < len(want)

    @pytest.mark.parametrize("kind", ["baxter", "separable"])
    def test_classify_at_size_1000(self, kind):
        """Class members are the avoiders the matcher was slowest on (a
        Baxter ``pi`` took over a second at n=160); one insertion reads
        their flags at n=1000 in well under 50 ms."""
        rng = random.Random(1000)
        if kind == "baxter":
            pi = baxter_representative(gamma_w(Permutation(rng.sample(range(1, 1001), 1000))))
            held = {"baxter", "semi_baxter"}
        else:
            pi = random_separable(1000, rng)
            # 3412 and 2143 are separable, so the twisted classes may fail
            held = set(CLASS_FLAGS) - {"twisted_baxter", "co_twisted_baxter"}
        seconds = []
        for _ in range(5):
            start = time.perf_counter()
            flags = classify(pi)
            seconds.append(time.perf_counter() - start)
        assert held <= flags
        assert min(seconds) < 0.05, seconds

    def test_classify_and_gamma_w_at_ten_thousand(self):
        """Long runs of inserted labels at n=10^4: two decreasing runs
        (n/2..1, then n..n/2+1) and the identity.  Each staircase step reads
        its alignment off the ends of the runs next to it, where a scan
        over the run would make the insertion quadratic."""
        n = 10**4
        two_runs = Permutation([*range(n // 2, 0, -1), *range(n, n // 2, -1)])
        for pi, held in (
            (two_runs, set(CLASS_FLAGS) - {"co_twisted_baxter"}),
            (identity_permutation(n), set(CLASS_FLAGS)),
        ):
            assert classify(pi) == held
            assert is_diagonal(gamma_w(pi))

    def test_2413_is_not_separable(self):
        assert "separable" not in classify(parse_permutation("2 4 1 3"))

    def test_class_inclusions_s5(self):
        # Avoiding the classical patterns implies avoiding their vincular
        # weakenings, so separable => baxter => semi-Baxter.
        for p in all_permutations(5):
            flags = classify(p)
            if "separable" in flags:
                assert "baxter" in flags
            if "baxter" in flags:
                assert "semi_baxter" in flags

    def test_complement_maps_clumped_to_co_clumped(self):
        # complement of each forbidden pattern word, with the same forced
        # adjacency column, is a forbidden pattern of the complementary class
        def comp(m):
            k = m.k
            word = tuple(k + 1 - v for v in m.tau)
            col = next(
                c for c in range(k + 1) if all((c, j) in m.shaded for j in range(k + 1))
            )
            return (word, col)

        got = {comp(m) for m in TWO_CLUMPED_FORBIDDEN}
        want = {
            (tuple(m.tau), next(iter({c for c, _ in m.shaded})))
            for m in CO_TWO_CLUMPED_FORBIDDEN
        }
        assert got == want

    def test_complement_swaps_clumped_classes_s6(self):
        for p in all_permutations(6):
            flags, cflags = classify(p), classify(complement(p))
            assert ("two_clumped" in flags) == ("co_two_clumped" in cflags)
            assert ("twisted_baxter" in flags) == ("co_twisted_baxter" in cflags)

    def test_avoids_all(self):
        assert avoids_all(identity_permutation(4), TWO_CLUMPED_FORBIDDEN)
        assert not avoids_all(parse_permutation("2 4 1 3"), (PATTERN_2413,))


# ---------------------------------------------------------------------------
# Weak order
# ---------------------------------------------------------------------------


class TestWeakOrder:
    def test_extremes(self):
        assert inversion_set(identity_permutation(4)) == frozenset()
        n = 4
        assert len(inversion_set(reverse_permutation(n))) == n * (n - 1) // 2

    def test_partial_order_on_s5(self):
        # inclusion of inversion sets is reflexive and transitive; it is
        # antisymmetric on S_5 iff distinct permutations have distinct sets
        assert len({inversion_set(p) for p in all_permutations(5)}) == 120


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


class TestProperties:
    @given(perms(6), st.sampled_from([(1, 3, 2), (2, 4, 1, 3), (3, 1, 4, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_complement_conjugates_classical_containment(self, pi, word):
        tau = Permutation(word)
        ctau = Permutation(tuple(len(word) + 1 - v for v in word))
        assert contains_pattern(pi, classical_pattern(tau)) == contains_pattern(
            complement(pi), classical_pattern(ctau)
        )

    @given(perms(7))
    @settings(max_examples=150, deadline=None)
    def test_classical_matches_naive_random(self, pi):
        assert contains_pattern(pi, PATTERN_2413) == naive_classical_contains(
            pi, Permutation((2, 4, 1, 3))
        )

    @given(perms(5))
    @settings(max_examples=100, deadline=None)
    def test_occurrence_witnesses_are_order_isomorphic(self, pi):
        for occ in occurrences(pi, PATTERN_2413):
            vals = [pi[i - 1] for i in occ]
            assert vals[2] < vals[0] < vals[3] < vals[1]

    @given(perms(6))
    @settings(max_examples=100, deadline=None)
    def test_inversion_set_size_matches_brute_force(self, pi):
        brute = sum(
            1
            for a in range(pi.n)
            for b in range(a + 1, pi.n)
            if pi[a] > pi[b]
        )
        assert len(inversion_set(pi)) == brute
