"""Exact series arithmetic, closed-form counts, the five-parameter
guillotine recurrence, and growth constants."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_two_sided_segments, strong_count_via_multiplicity
from sequences import BAXTER, O_COUNTS, SCHRODER, STRONG_GUILLOTINE, STRONG_RECT
from rectlab import counting
from rectlab.biject import gamma_w
from rectlab.counting import (
    CountTable,
    _check_symmetries,
    Series,
    baxter_number,
    growth_constants,
    rho,
    schroder_counts,
    schroder_series,
    strong_guillotine_count,
    strong_guillotine_table,
    weighted_guillotine_series,
    z0_bound,
)
from rectlab.perm import all_permutations, classify
from rectlab.rect import is_guillotine
from rectlab.walks import count_O, count_U

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "rectlab" / "data"



def poly(*cs, order=None):
    """Series from low-order coefficients, zero-padded to ``order``."""
    n = order if order is not None else len(cs) - 1
    c = [Fraction(v) for v in cs] + [Fraction(0)] * (n + 1 - len(cs))
    return Series(tuple(c))


# ---------------------------------------------------------------------------
# Series arithmetic
# ---------------------------------------------------------------------------


class TestSeries:
    def test_constructors(self):
        assert Series.constant(3, 2).coeffs == (3, 0, 0)
        assert Series.x(2).coeffs == (0, 1, 0)
        assert Series.x(0).coeffs == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series(())

    def test_add_sub_mul(self):
        one_plus_x = poly(1, 1, order=4)
        sq = one_plus_x * one_plus_x
        assert sq == poly(1, 2, 1, order=4)
        assert sq - one_plus_x == poly(0, 1, 1, order=4)
        assert sq + sq == sq.scale(2)

    def test_truncates_to_shorter_operand(self):
        assert (poly(1, 1, 1) * poly(1, 1)).order == 1

    def test_coefficient_out_of_range_is_zero(self):
        s = poly(1, 2, 3)
        assert s.coefficient(7) == 0
        assert s.coefficient(-1) == 0

    def test_inverse(self):
        s = poly(1, 1, order=6)
        inv = s.inverse()
        # 1/(1+x) = 1 - x + x^2 - ...
        assert inv.coeffs == tuple(Fraction((-1) ** k) for k in range(7))
        assert s * inv == poly(1, order=6)

    def test_inverse_requires_nonzero_constant(self):
        with pytest.raises(ValueError):
            Series.x(3).inverse()

    def test_sqrt(self):
        sq = poly(1, 2, 1, order=8)  # (1+x)^2
        assert sq.sqrt() == poly(1, 1, order=8)

    def test_sqrt_nontrivial(self):
        s = poly(1, -4, order=10)
        r = s.sqrt()
        assert r * r == s
        # central binomial pattern: sqrt(1-4x) = 1 - 2 sum C(2k,k) x^k / (2k-1)...
        assert r.coefficient(1) == -2
        assert r.coefficient(2) == -2

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError):
            poly(4, 1).sqrt()


# ---------------------------------------------------------------------------
# Closed-form sequences
# ---------------------------------------------------------------------------


class TestSchroder:
    def test_counts(self):
        assert schroder_counts(10) == SCHRODER

    def test_series_agrees_with_counts(self):
        G = schroder_series(10)
        assert G.coefficient(0) == 0
        assert [G.coefficient(k) for k in range(1, 11)] == SCHRODER

    def test_closed_form(self):
        # G = (1 - x - sqrt(1 - 6x + x^2)) / 2
        N = 16
        closed = (poly(1, -1, order=N) - poly(1, -6, 1, order=N).sqrt()).scale(
            Fraction(1, 2)
        )
        assert schroder_series(N) == closed

    def test_half_series(self):
        # (G - x)/2 has the little Schroder numbers 1, 3, 11, 45 at x^2..x^5
        G = schroder_series(8)
        half = (G - Series.x(8)).scale(Fraction(1, 2))
        assert [half.coefficient(k) for k in range(2, 6)] == [1, 3, 11, 45]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            schroder_series(0)

    def test_non_integer_coefficient_is_named(self, monkeypatch):
        bad = poly(0, 1, Fraction(5, 2))
        monkeypatch.setattr(counting, "schroder_series", lambda N: bad)
        with pytest.raises(ArithmeticError) as exc:
            schroder_counts(2)
        assert str(exc.value) == "Schroder count 5/2 at n=2 is not an integer"


class TestBaxter:
    def test_values(self):
        assert [baxter_number(n) for n in range(1, 11)] == BAXTER

    def test_matches_flag_sweep(self):
        for n in range(1, 7):
            brute = sum(1 for pi in all_permutations(n) if "baxter" in classify(pi))
            assert brute == baxter_number(n)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            baxter_number(0)


# ---------------------------------------------------------------------------
# The five-parameter recurrence
# ---------------------------------------------------------------------------


class TestCountTable:
    def test_base_layer(self):
        t = CountTable()
        assert t.layer(1) == {(0, 0, 0, 0): 1}
        assert t.s(1, 0, 0, 0, 0) == 1
        assert t.s(1, 1, 0, 0, 0) == 0
        assert t.total(1) == 1

    def test_small_layers(self):
        t = CountTable()
        # one vertical cut: an endpoint on the top and bottom sides
        assert t.layer(2) == {(0, 1, 0, 1): 1}
        assert t.s_v(2, 0, 1, 0, 1) == 1
        assert t.s_h(2, 1, 0, 1, 0) == 1
        assert t.layer(3) == {
            (0, 2, 0, 2): 1,
            (0, 1, 1, 1): 1,
            (1, 1, 0, 1): 1,
        }

    def test_transpose_relation(self):
        t = strong_guillotine_table(6)
        for (l, top, r, b), v in t.layer(6).items():
            assert t.s_h(6, top, l, b, r) == v

    def test_reflection_symmetries(self):
        t = strong_guillotine_table(7)
        layer = t.layer(7)
        for (l, top, r, b), v in layer.items():
            assert layer.get((r, top, l, b), 0) == v  # left-right mirror
            assert layer.get((l, b, r, top), 0) == v  # top-bottom mirror

    def test_totals_match_published_sequence(self):
        assert [strong_guillotine_count(n) for n in range(1, 13)] == STRONG_GUILLOTINE

    def test_matches_forward_map_sweep(self):
        for n in range(1, 7):
            images = {gamma_w(pi) for pi in all_permutations(n)}
            # strong guillotine classes = sum of multiplicities of weak
            # guillotine classes
            from rectlab.rect import multiplicity

            brute = sum(multiplicity(r) for r in images if is_guillotine(r))
            assert brute == strong_guillotine_count(n)

    def test_shared_table_is_extended(self):
        t = strong_guillotine_table(4)
        assert t.max_n >= 4
        assert strong_guillotine_table(6) is t

    @pytest.mark.parametrize(
        "layer, broken, profile",
        [
            ({(0, 1, 2, 1): 1, (2, 1, 0, 1): 2}, "left-right", (0, 1, 2, 1)),
            ({(0, 1, 0, 2): 1, (0, 2, 0, 1): 2}, "top-bottom", (0, 1, 0, 2)),
        ],
    )
    def test_symmetry_check_names_layer_and_profile(self, layer, broken, profile):
        with pytest.raises(ArithmeticError) as exc:
            _check_symmetries(4, layer)
        assert str(exc.value) == "%s symmetry broken in layer 4 at profile %r" % (
            broken,
            profile,
        )

    def test_one_extension_packs_each_layer_once(self, monkeypatch):
        packed = []
        real = counting._Packing.pack

        def spy(packing, m, layer):
            packed.append((packing.N, m))
            return real(packing, m, layer)

        monkeypatch.setattr(counting._Packing, "pack", spy)
        t = CountTable()
        t.extend_to(3)
        t.extend_to(10)
        # the top layer of a build is never packed
        assert packed == [(3, 1), (3, 2)] + [(10, m) for m in range(1, 10)]

    def test_corrupted_layer_is_not_stored(self, monkeypatch):
        t = CountTable()
        t.extend_to(3)
        monkeypatch.setattr(t, "_compute_layer", lambda n, packing: {(0, 1, 2, 1): 1})
        with pytest.raises(ArithmeticError, match="layer 4"):
            t.extend_to(4)
        assert t.max_n == 3


class TestMultiplicityOracle:
    def test_counts_all_strong_classes(self):
        assert strong_count_via_multiplicity(4) == 24
        assert strong_count_via_multiplicity(5) == 116

    def test_guillotine_restriction(self):
        assert strong_count_via_multiplicity(5, guillotine_only=True) == 114
        assert strong_count_via_multiplicity(6, guillotine_only=True) == 606


# ---------------------------------------------------------------------------
# Weighted guillotine series
# ---------------------------------------------------------------------------


class TestWeightedSeries:
    def test_weight_one_is_plain_counting(self):
        assert weighted_guillotine_series(1, 10) == schroder_series(10)

    def test_weight_two_closed_form(self):
        # G(x,2) = (1 + x - x^2 - sqrt(1 - 6x - 5x^2 + 2x^3 + x^4)) / (2(2-x))
        N = 20
        num = poly(1, 1, -1, order=N) - poly(1, -6, -5, 2, 1, order=N).sqrt()
        closed = num * poly(4, -2, order=N).inverse()
        assert weighted_guillotine_series(2, N) == closed

    def test_weight_two_counts_segment_doublings(self):
        w2 = weighted_guillotine_series(2, 6)
        for n in range(1, 7):
            images = {gamma_w(pi) for pi in all_permutations(n)}
            brute = sum(
                2 ** count_two_sided_segments(r)
                for r in images
                if is_guillotine(r)
            )
            assert w2.coefficient(n) == brute

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            weighted_guillotine_series(2, 0)


# ---------------------------------------------------------------------------
# Growth constants
# ---------------------------------------------------------------------------


class TestGrowthConstants:
    def test_gamma_closed_forms(self):
        gc = growth_constants()
        assert gc.gamma == pytest.approx((9 + math.sqrt(113)) / 2, abs=1e-9)
        assert gc.gamma_prime == pytest.approx((7 + math.sqrt(17)) / 2, abs=1e-9)

    def test_leftright_counts_below_the_transfer_powers(self):
        # each x-window of a leftright walk holds at most M[c][c2] points, so
        # the walks with n points number at most 1^T M^(n-1) 1: gamma and
        # gamma' bound the growth of count_U and count_O
        for weak, count in ((False, count_U), (True, count_O)):
            m = counting._transfer_matrix(weak)
            row = [1] * len(m)  # 1^T M^(n-1)
            for n in range(1, 61):
                assert count(n) <= sum(row), (weak, n)
                row = [sum(r * m_c[c2] for r, m_c in zip(row, m)) for c2 in range(len(m))]

    def test_rho_exact_rational_points(self):
        assert rho(0) == Fraction(2, 27)
        assert isinstance(rho(0), Fraction)
        assert rho(4) == Fraction(3, 64)
        assert rho(Fraction(7, 4)) == Fraction(20, 343)

    def test_rho_float_path(self):
        assert isinstance(rho(0.0), float)
        assert rho(0.0) == pytest.approx(2 / 27, abs=1e-12)
        # irrational square root stays float even for rational input
        assert isinstance(rho(1), float)

    def test_rho_removable_singularity(self):
        # numerator and denominator both vanish at v = -2; rho is 1/8 there
        for v in (-2, Fraction(-2)):
            assert rho(v) == Fraction(1, 8) and isinstance(rho(v), Fraction)
        assert rho(-2.0) == 0.125
        # rho(-2 + h) = 1/8 - h/16 + h^2/16 + O(h^3)
        for h in (1e-6, -1e-6):
            assert rho(-2 + h) == pytest.approx(0.125 - h / 16 + h * h / 16, rel=1e-12)
            assert rho(Fraction(-2) + Fraction(h)) == pytest.approx(rho(-2 + h), rel=1e-15)

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            rho(Fraction(-9, 4))
        with pytest.raises(ValueError):
            rho(-3.0)

    def test_x0_is_polynomial_root(self):
        gc = growth_constants()
        p = lambda x: 2 * x**5 - 29 * x**4 + 36 * x**3 - 8 * x**2 - 8
        assert gc.x0 == pytest.approx(13.154940757637178, abs=1e-9)
        assert abs(p(gc.x0)) < 1e-4 * abs(p(13.2))  # residual is tiny

    def test_z0_bound_decreases(self):
        b1 = z0_bound(1)
        b6 = z0_bound(6)
        b12 = z0_bound(12)
        assert b1 == pytest.approx(13.154940757637178, abs=1e-6)
        assert b1 > b6 > b12
        assert b12 == pytest.approx(13.080879635870161, abs=1e-9)

    def test_z0_bound_exceeds_lower_bound(self):
        gc = growth_constants()
        assert z0_bound(4) > gc.lower_bound

    def test_z0_invalid(self):
        with pytest.raises(ValueError):
            z0_bound(0)

    def test_x0_requires_a_unique_sign_change(self, monkeypatch):
        monkeypatch.setattr(counting, "_small_windmill_poly", lambda x: (x - 3) * (x - 7))
        with pytest.raises(ArithmeticError, match="found 2"):
            counting._x0()

    def test_spectral_radius_raises_without_convergence(self):
        assert counting._spectral_radius(((2, 1), (1, 2))) == pytest.approx(3)
        # eigenvalues +-sqrt(2): the normalized iterates alternate forever
        with pytest.raises(ArithmeticError, match="did not converge"):
            counting._spectral_radius(((0, 2), (1, 0)))


# ---------------------------------------------------------------------------
# Packaged data
# ---------------------------------------------------------------------------


class TestPackagedData:
    def test_guillotine_table_file(self):
        rows = [
            line.split()
            for line in (DATA_DIR / "strong_guillotine_table.txt")
            .read_text()
            .splitlines()
            if line and not line.startswith("#")
        ]
        table = {int(n): int(v) for n, v in rows}
        assert sorted(table) == list(range(1, 33))
        values = [table[n] for n in range(1, 33)]
        assert values[:12] == STRONG_GUILLOTINE
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == 85899976772035554402923170

    def test_oeis_reference_terms(self):
        data = json.loads((DATA_DIR / "oeis.json").read_text())
        assert data["schroder"]["oeis"] == "A006318"
        assert data["baxter"]["oeis"] == "A001181"
        assert data["half_schroder"]["oeis"] == "A001003"
        assert data["strong_rect"]["oeis"] == "A342141"
        assert data["one_sided"]["oeis"] == "A348351"
        assert data["strong_leftright"]["oeis"] is None  # none confirmed
        assert data["schroder"]["terms"] == SCHRODER
        assert data["baxter"]["terms"] == BAXTER
        assert data["strong_rect"]["terms"][:7] == STRONG_RECT[:7]
        assert data["one_sided"]["terms"] == O_COUNTS
        assert data["half_schroder"]["terms"][1:5] == [1, 3, 11, 45]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


coeff_lists = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=8
)


class TestProperties:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=200)
    def test_mul_commutes(self, a, b):
        sa, sb = poly(*a), poly(*b)
        assert sa * sb == sb * sa

    @given(coeff_lists)
    @settings(max_examples=200)
    def test_inverse_is_two_sided(self, a):
        if a[0] == 0:
            a = [1] + a
        s = poly(*a)
        one = Series.constant(1, s.order)
        assert s * s.inverse() == one
        assert s.inverse() * s == one

    @given(coeff_lists)
    @settings(max_examples=100)
    def test_sqrt_squares_back(self, a):
        s = poly(1, *a)
        r = s.sqrt()
        assert r * r == s
