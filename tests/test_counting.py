"""Series, closed-form counts, the five-parameter guillotine recurrence,
and growth constants."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from conftest import count_two_sided_segments, expansion
from conftest import strong_count_via_multiplicity, weight_two_closed_form
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
from rectlab.walks import _O, _STRONG, _U, _WEAK, _excursion_counts

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "rectlab" / "data"



def series(*cs):
    """Series with the given low-order coefficients."""
    return Series(tuple(map(Fraction, cs)))


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


class TestSeries:
    def test_constructors(self):
        s = Series((Fraction(3), Fraction(0), Fraction(1)))
        assert s.coeffs == (3, 0, 1)
        assert s.order == 2
        assert Series((Fraction(0),)).order == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series(())

    def test_coefficient_out_of_range_is_zero(self):
        s = series(1, 2, 3)
        assert s.coefficient(7) == 0
        assert s.coefficient(-1) == 0


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
        N = 16
        closed = lambda x: (1 - x - sympy.sqrt(1 - 6 * x + x**2)) / 2
        assert list(schroder_series(N).coeffs) == expansion(closed, N)

    def test_half_series(self):
        # (G - x)/2 has the little Schroder numbers 1, 3, 11, 45 at x^2..x^5
        G = schroder_series(8)
        assert [G.coefficient(k) / 2 for k in range(2, 6)] == [1, 3, 11, 45]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            schroder_series(0)

    def test_non_integer_coefficient_is_named(self, monkeypatch):
        bad = series(0, 1, Fraction(5, 2))
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
        assert t.total(1) == 1

    def test_small_layers(self):
        t = CountTable()
        # one vertical cut: an endpoint on the top and bottom sides
        assert t.layer(2) == {(0, 1, 0, 1): 1}
        assert t.layer(3) == {
            (0, 2, 0, 2): 1,
            (0, 1, 1, 1): 1,
            (1, 1, 0, 1): 1,
        }

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
        packed, by_entry = [], []
        real_pack, real_grids = counting._Packing.pack, counting._Packing.grids

        def spy_pack(packing, m, vertical, horizontal):
            # a build to N has width N - 1
            packed.append((packing.width + 1, m))
            return real_pack(packing, m, vertical, horizontal)

        def spy_grids(packing, m, layer):
            by_entry.append((packing.width + 1, m))
            return real_grids(packing, m, layer)

        monkeypatch.setattr(counting._Packing, "pack", spy_pack)
        monkeypatch.setattr(counting._Packing, "grids", spy_grids)
        t = CountTable()
        t.extend_to(3)
        t.extend_to(10)
        # each layer is packed once per extension, and the top layer of a
        # build never; stored layers are packed entry by entry from their
        # views, computed ones from their accumulators
        assert packed == [(3, 1), (3, 2)] + [(10, m) for m in range(1, 10)]
        assert by_entry == [(3, 1)] + [(10, m) for m in range(1, 4)]

    @staticmethod
    def _corrupt_layer_4(monkeypatch):
        t = CountTable()
        t.extend_to(3)
        real = counting._Packing.products

        def corrupted(packing, n):
            # one more class at (t, b) = (1, 2) with l = r = 0, and none
            # at its top-bottom mirror (2, 1)
            acc = real(packing, n)
            acc[(0, 0)] += 1 << 8 * packing.nbytes
            return acc

        monkeypatch.setattr(counting._Packing, "products", corrupted)
        return t

    def test_corrupted_layer_is_not_stored(self, monkeypatch):
        t = self._corrupt_layer_4(monkeypatch)
        with pytest.raises(ArithmeticError) as exc:
            t.extend_to(4)
        assert str(exc.value) == (
            "top-bottom symmetry broken in layer 4 at profile (0, 1, 0, 2)"
        )
        assert t.max_n == 3

    def test_unnamed_symmetry_break_still_raises(self, monkeypatch):
        # the view names the profile; a build raises even if it names none
        t = self._corrupt_layer_4(monkeypatch)
        monkeypatch.setattr(counting, "_check_symmetries", lambda n, layer: None)
        with pytest.raises(ArithmeticError, match="^top-bottom symmetry broken in layer 4$"):
            t.extend_to(4)
        assert t.max_n == 3


class TestPackedLayers:
    """Computed layers stay packed; the per-profile dict is a view."""

    @pytest.fixture(scope="class")
    def cold(self):
        # packed totals read before any view exists, then the views
        t = CountTable()
        t.extend_to(20)
        totals = [t.total(n) for n in range(1, 21)]
        return totals, {n: t.layer(n) for n in range(1, 21)}

    @staticmethod
    def _count_views(monkeypatch):
        views = []
        real = counting._PackedLayer.unpack

        def spy(layer):
            views.append(layer)
            return real(layer)

        monkeypatch.setattr(counting._PackedLayer, "unpack", spy)
        return views

    def test_packed_totals_are_the_view_sums(self, cold):
        totals, layers = cold
        assert totals[0] == 1
        for n in range(2, 21):
            assert totals[n - 1] == 2 * sum(layers[n].values()), n
        assert totals[:12] == STRONG_GUILLOTINE

    @pytest.mark.parametrize(
        "steps", [[20], list(range(2, 21)), [10, 20]], ids=["one-call", "by-layer", "10-then-20"]
    )
    def test_builds_agree(self, cold, steps):
        totals, layers = cold
        t = CountTable()
        for m in steps:
            t.extend_to(m)
        packed = [n for n in range(2, 21) if isinstance(t._sv[n], counting._PackedLayer)]
        # a later call views every layer it packs entry by entry, so only
        # the layers of the last call are still packed before any read
        assert packed == list(range((1, *steps)[-2] + 1, 21))
        assert [t.total(n) for n in range(1, 21)] == totals
        for n in range(1, 21):
            assert t.layer(n) == layers[n], n
            assert not isinstance(t._sv[n], counting._PackedLayer)
            # a view's total is its sum, as the packed digits gave
            assert t.total(n) == totals[n - 1]

    def test_cold_build_makes_no_view(self, monkeypatch):
        views = self._count_views(monkeypatch)
        t = CountTable()
        t.extend_to(20)
        assert views == []
        t.total(20)
        assert views == []
        # the first read of a profile builds its layer's view once
        assert t.layer(20).get((0, 19, 0, 19)) == 1
        t.layer(20)
        assert len(views) == 1

    def test_strong_guillotine_count_makes_no_view(self, monkeypatch):
        views = self._count_views(monkeypatch)
        monkeypatch.setattr(counting, "_TABLE", CountTable())
        count = strong_guillotine_count(20)
        assert views == []
        assert count == 2 * sum(counting._TABLE.layer(20).values())

class TestMultiplicityOracle:
    def test_counts_all_strong_classes(self):
        assert strong_count_via_multiplicity(4) == STRONG_RECT[3]
        assert strong_count_via_multiplicity(5) == STRONG_RECT[4]

    def test_guillotine_restriction(self):
        assert strong_count_via_multiplicity(5, guillotine_only=True) == STRONG_GUILLOTINE[4]
        assert strong_count_via_multiplicity(6, guillotine_only=True) == STRONG_GUILLOTINE[5]


# ---------------------------------------------------------------------------
# Weighted guillotine series
# ---------------------------------------------------------------------------


class TestWeightedSeries:
    def test_weight_one_is_plain_counting(self):
        assert weighted_guillotine_series(1, 10) == schroder_series(10)

    def test_weight_two_closed_form(self):
        N = 20
        assert list(weighted_guillotine_series(2, N).coeffs) == expansion(weight_two_closed_form, N)

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
        # gamma' bound the growth of count_U and count_O, checked for every
        # n up to the CLI's bound of 150 from one pass each
        for weak, rules in ((False, _U), (True, _O)):
            m = counting._transfer_matrix(weak)
            row = [1] * len(m)  # 1^T M^(n-1)
            for n, count in enumerate(_excursion_counts(150, **rules), start=1):
                assert count <= sum(row), (weak, n)
                row = [sum(r * m_c[c2] for r, m_c in zip(row, m)) for c2 in range(len(m))]

    def test_growth_rates_from_the_counts(self):
        # fit r_n = c_n / c_(n-1) ~ a + b/n + c/n^2 through n = 148, 149, 150
        # and read a at 1/n = 0: the weight of r_n is the product over the
        # other nodes m of n / (n - m).  Strong rectangulations grow like
        # (27/2)^n (Fusy, Narmanli and Schaeffer), Baxter numbers like 8^n,
        # and U and O like the transfer matrices' spectral radii.  The fit
        # errors are 1.7e-3, 9.8e-5, 5.3e-4 and 2.6e-5; each tolerance is
        # about 2x its error, rounded up to one digit (about 4x for O).
        gc = growth_constants()
        nodes = (148, 149, 150)
        for rules, rate, tol in (
            (_STRONG, 27 / 2, 3e-3),
            (_WEAK, 8, 2e-4),
            (_U, gc.gamma, 1e-3),
            (_O, gc.gamma_prime, 1e-4),
        ):
            c = _excursion_counts(150, **rules)
            a = sum(
                Fraction(c[n - 1], c[n - 2])
                * math.prod(Fraction(n, n - m) for m in nodes if m != n)
                for n in nodes
            )
            assert abs(float(a) - rate) < tol, (rules, float(a))

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
