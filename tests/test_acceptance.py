"""End-to-end pinned checks: every published count and structural claim the
package relies on, each with an explicit time budget where sweeps are
involved.  Integer comparisons are exact; floating comparisons carry pinned
tolerances.

The expensive ingredient — pattern membership plus guillotine status for
every permutation up to size 8 — is computed once in a module fixture and
shared by the checks that need it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import expansion, inversion_set
from conftest import strong_count_via_multiplicity, weight_two_closed_form
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
    avoids_all,
    contains_pattern,
)
from sequences import BAXTER, O_COUNTS, STRONG_GUILLOTINE, STRONG_RECT, U_COUNTS
from test_oracles import ref_quotient_cover_graph
from rectlab.biject import (
    baxter_representative,
    fiber_s,
    fiber_w,
    flips,
    gamma_s,
    gamma_w,
    leftmost_extension,
    quotient_cover_graph,
    rightmost_extension,
    strong_poset,
    weak_poset,
)
from rectlab.counting import (
    baxter_number,
    growth_constants,
    rho,
    schroder_counts,
    strong_guillotine_count,
    strong_guillotine_table,
    weighted_guillotine_series,
    z0_bound,
)
from rectlab.perm import (
    CLASS_FLAGS,
    Permutation,
    all_permutations,
    classify,
    complement,
)
from rectlab.rect import (
    find_windmills,
    has_z_wall,
    is_diagonal,
    is_guillotine,
    strong_key,
    weak_key,
)
from rectlab.walks import (
    _O,
    _STRONG,
    _U,
    _WEAK,
    _excursion_counts,
    closed_excursions,
    is_leftmost,
    nit_count,
)

WEAK_COUNTS = BAXTER[:6]
STRONG_COUNTS = STRONG_RECT[:7]


# ---------------------------------------------------------------------------
# Shared scan: pattern membership and guillotine status up to size 8
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scan:
    """Per size n: the set of permutations containing each pattern, the
    doubly-clumped avoiders, and those whose weak image is guillotine."""

    contains: dict[int, dict[str, frozenset]]
    clumped: dict[int, frozenset]
    guillotine_image: dict[int, frozenset]
    counts: dict[int, int]
    seconds: float


_PATTERNS = {
    "mesh_cw": WINDMILL_MESH_CW,
    "mesh_ccw": WINDMILL_MESH_CCW,
    "v2413": VINC_2_41_3,
    "v3142": VINC_3_14_2,
    "v3412": VINC_3_41_2,
    "v2143": VINC_2_14_3,
    "c2413": PATTERN_2413,
    "c3142": PATTERN_3142,
}


@pytest.fixture(scope="module")
def scan8() -> Scan:
    start = time.perf_counter()
    contains: dict[int, dict[str, frozenset]] = {}
    clumped: dict[int, frozenset] = {}
    guillotine_image: dict[int, frozenset] = {}
    counts: dict[int, int] = {}
    for n in range(1, 9):
        perms = list(all_permutations(n))
        counts[n] = len(perms)
        contains[n] = {
            name: frozenset(pi for pi in perms if contains_pattern(pi, pat))
            for name, pat in _PATTERNS.items()
        }
        clumped[n] = frozenset(
            pi for pi in perms if avoids_all(pi, TWO_CLUMPED_FORBIDDEN)
        )
        guillotine_image[n] = frozenset(
            pi for pi in perms if is_guillotine(gamma_w(pi))
        )
    return Scan(
        contains, clumped, guillotine_image, counts, time.perf_counter() - start
    )


# ---------------------------------------------------------------------------
# Class counts through the forward maps
# ---------------------------------------------------------------------------


class TestClassCounts:
    def test_weak_image_counts(self):
        start = time.perf_counter()
        got = [
            len({gamma_w(pi) for pi in all_permutations(n)}) for n in range(1, 7)
        ]
        assert got == WEAK_COUNTS
        assert got == [baxter_number(n) for n in range(1, 7)]
        assert time.perf_counter() - start < 30

    def test_strong_image_counts(self):
        start = time.perf_counter()
        got = [
            len({gamma_s(pi) for pi in all_permutations(n)}) for n in range(1, 8)
        ]
        assert got == STRONG_COUNTS
        counts = _excursion_counts(10, **_STRONG)
        assert got == counts[:7]
        assert counts == STRONG_RECT
        assert time.perf_counter() - start < 120


# ---------------------------------------------------------------------------
# Guillotine counts, three independent ways
# ---------------------------------------------------------------------------


class TestGuillotineCounts:
    def test_recurrence_through_twelve(self):
        got = [strong_guillotine_count(n) for n in range(1, 13)]
        assert got == STRONG_GUILLOTINE

    def test_multiplicity_oracle_cross_check(self, scan8):
        start = time.perf_counter()
        for n in range(1, 9):
            assert (
                strong_count_via_multiplicity(n, guillotine_only=True)
                == STRONG_GUILLOTINE[n - 1]
            )
        assert scan8.seconds + time.perf_counter() - start < 600

    def test_pattern_class_cross_check(self, scan8):
        start = time.perf_counter()
        for n in range(1, 9):
            mesh_free = (
                scan8.clumped[n]
                - scan8.contains[n]["mesh_cw"]
                - scan8.contains[n]["mesh_ccw"]
            )
            assert len(mesh_free) == STRONG_GUILLOTINE[n - 1]
        assert scan8.seconds + time.perf_counter() - start < 600


# ---------------------------------------------------------------------------
# The two walk recurrences
# ---------------------------------------------------------------------------


class TestWalkRecurrences:
    def test_singleton_class_counts(self):
        start = time.perf_counter()
        assert _excursion_counts(10, **_U) == U_COUNTS
        assert time.perf_counter() - start < 10

    def test_one_sided_class_counts(self):
        start = time.perf_counter()
        assert _excursion_counts(10, **_O) == O_COUNTS
        assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# Guillotine images are exactly the windmill-mesh avoiders
# ---------------------------------------------------------------------------


class TestGuillotineCharacterization:
    def test_image_guillotine_iff_mesh_avoidance(self, scan8):
        start = time.perf_counter()
        for n in range(1, 9):
            mesh_containing = (
                scan8.contains[n]["mesh_cw"] | scan8.contains[n]["mesh_ccw"]
            )
            avoiding = scan8.counts[n] - len(mesh_containing)
            assert len(scan8.guillotine_image[n]) == avoiding
            assert not (scan8.guillotine_image[n] & mesh_containing)
        assert scan8.seconds + time.perf_counter() - start < 600

    def test_class_flags_iff_pattern_avoidance(self, scan8):
        """Every flag of ``classify``, read off the staircase insertion,
        agrees with the mesh matcher on all of S_1..S_8.  The co-2-clumped
        patterns are the complements of the 2-clumped ones, so that class is
        the complement of the scanned 2-clumped set."""
        for n in range(1, 9):
            perms = frozenset(all_permutations(n))
            c = scan8.contains[n]
            want = {
                flag: perms - containing
                for flag, containing in (
                    ("baxter", c["v2413"] | c["v3142"]),
                    ("twisted_baxter", c["v2413"] | c["v3412"]),
                    ("co_twisted_baxter", c["v2143"] | c["v3142"]),
                    ("separable", c["c2413"] | c["c3142"]),
                    ("semi_baxter", c["v2413"]),
                    ("windmill_mesh_avoiding", c["mesh_cw"] | c["mesh_ccw"]),
                )
            }
            want["two_clumped"] = scan8.clumped[n]
            want["co_two_clumped"] = frozenset(map(complement, scan8.clumped[n]))
            got = {flag: set() for flag in CLASS_FLAGS}
            for pi in perms:
                for flag in classify(pi):
                    got[flag].add(pi)
            for flag in CLASS_FLAGS:
                assert got[flag] == want[flag], (n, flag)


# ---------------------------------------------------------------------------
# Fiber structure over the full size-6 sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def s6_groups():
    strong: dict[Permutation, list[Permutation]] = {}
    weak: dict[Permutation, list[Permutation]] = {}
    reps_s: dict[Permutation, object] = {}
    reps_w: dict[Permutation, object] = {}
    start = time.perf_counter()
    for pi in all_permutations(6):
        rs = gamma_s(pi)
        rw = gamma_w(pi)
        ks, kw = strong_key(rs), weak_key(rw)
        strong.setdefault(ks, []).append(pi)
        weak.setdefault(kw, []).append(pi)
        reps_s.setdefault(ks, rs)
        reps_w.setdefault(kw, rw)
    return strong, weak, reps_s, reps_w, start


class TestFiberStructure:

    def test_strong_fibers(self, s6_groups):
        strong, _, reps_s, _, start = s6_groups
        universe = list(all_permutations(6))
        for key, members in strong.items():
            r = reps_s[key]
            members = sorted(members)
            assert fiber_s(r) == members

            poset = strong_poset(r)
            lo = leftmost_extension(poset)
            hi = rightmost_extension(poset)
            assert lo == key == members[0]

            inv_lo, inv_hi = inversion_set(lo), inversion_set(hi)
            interval = [
                q
                for q in universe
                if inv_lo <= inversion_set(q) <= inv_hi
            ]
            assert sorted(interval) == members

            clumped_members = [
                q for q in members if avoids_all(q, TWO_CLUMPED_FORBIDDEN)
            ]
            co_members = [
                q for q in members if avoids_all(q, CO_TWO_CLUMPED_FORBIDDEN)
            ]
            assert clumped_members == [lo]
            assert co_members == [hi]
        assert time.perf_counter() - start < 300

    def test_weak_fibers(self, s6_groups):
        _, weak, _, reps_w, start = s6_groups
        universe = list(all_permutations(6))
        for key, members in weak.items():
            r = reps_w[key]
            members = sorted(members)
            assert fiber_w(r) == members

            poset = weak_poset(r)
            lo = leftmost_extension(poset)
            hi = rightmost_extension(poset)
            assert lo == key == members[0]

            inv_lo, inv_hi = inversion_set(lo), inversion_set(hi)
            interval = [
                q for q in universe if inv_lo <= inversion_set(q) <= inv_hi
            ]
            assert sorted(interval) == members

            twisted = [
                q
                for q in members
                if not contains_pattern(q, VINC_2_41_3)
                and not contains_pattern(q, VINC_3_41_2)
            ]
            co_twisted = [
                q
                for q in members
                if not contains_pattern(q, VINC_2_14_3)
                and not contains_pattern(q, VINC_3_14_2)
            ]
            assert twisted == [lo]
            assert co_twisted == [hi]

            baxter_members = [
                q
                for q in members
                if not contains_pattern(q, VINC_2_41_3)
                and not contains_pattern(q, VINC_3_14_2)
            ]
            assert baxter_members == [baxter_representative(r)]
        assert time.perf_counter() - start < 300


# ---------------------------------------------------------------------------
# The flip graph is a connected lattice matching local flips
# ---------------------------------------------------------------------------


class TestFlipGraphLattice:
    def test_connected_lattice_matching_flips(self, sweeps):
        start = time.perf_counter()
        for n in range(1, 6):
            graph = quotient_cover_graph(n)
            assert graph == ref_quotient_cover_graph(n)
            verts = {v: i for i, v in enumerate(graph.vertices)}

            # a class key is its class's bottom, and taking bottoms keeps
            # the weak order, so each edge points up the weak order
            directed = set()
            for a, b in graph.edges:
                up = inversion_set(a) <= inversion_set(b)
                assert up != (inversion_set(b) <= inversion_set(a))
                directed.add((a, b) if up else (b, a))

            # connectivity
            seen = {graph.vertices[0]}
            frontier = [graph.vertices[0]]
            while frontier:
                v = frontier.pop()
                for u in graph.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert seen == set(graph.vertices)

            # acyclicity of the directed covers (Kahn)
            succ: dict[Permutation, list[Permutation]] = {
                v: [] for v in graph.vertices
            }
            indeg = {v: 0 for v in graph.vertices}
            for a, b in directed:
                succ[a].append(b)
                indeg[b] += 1
            queue = [v for v in graph.vertices if indeg[v] == 0]
            topo = []
            while queue:
                v = queue.pop()
                topo.append(v)
                for u in succ[v]:
                    indeg[u] -= 1
                    if indeg[u] == 0:
                        queue.append(u)
            assert len(topo) == len(graph.vertices)

            # lattice: all pairwise meets and joins exist (bitmask downsets)
            pred: dict[Permutation, list[Permutation]] = {
                v: [] for v in graph.vertices
            }
            for a, b in directed:
                pred[b].append(a)
            dn = {v: 1 << verts[v] for v in graph.vertices}
            for v in topo:
                for p in pred[v]:
                    dn[v] |= dn[p]
            up = {v: 1 << verts[v] for v in graph.vertices}
            for v in reversed(topo):
                for u in succ[v]:
                    up[v] |= up[u]
            down_index = {mask: v for v, mask in dn.items()}
            up_index = {mask: v for v, mask in up.items()}
            assert len(down_index) == len(graph.vertices)
            assert len(up_index) == len(graph.vertices)
            for a, b in combinations(graph.vertices, 2):
                assert (dn[a] & dn[b]) in down_index  # meet exists
                assert (up[a] & up[b]) in up_index  # join exists

            # flips reproduce the neighborhoods
            for v in graph.vertices:
                r = gamma_s(v)
                flipped = {strong_key(img) for _, img in flips(r)}
                flipped.discard(v)
                assert flipped == set(graph.neighbors(v))
        assert time.perf_counter() - start < 60


# ---------------------------------------------------------------------------
# The walk layer
# ---------------------------------------------------------------------------


class TestWalkLayer:
    def test_leftmost_excursion_pin(self):
        marked = sum(1 for w in closed_excursions(5, "strong") if is_leftmost(w))
        assert marked == STRONG_RECT[4]

    def test_disjoint_path_triples_match_weak_counts(self):
        for n in range(1, 13):
            assert nit_count(n) == baxter_number(n)

    def test_z_wall_free_matches_adjacent_pattern_avoiders(self, sweeps, scan8):
        # a strong class has no Z-wall exactly as often as a permutation
        # avoids the adjacent-descent pattern
        for n in range(1, 8):
            free = sum(
                1
                for r in sweeps.strong_classes(n).values()
                if not has_z_wall(r)
            )
            avoiding = scan8.counts[n] - len(scan8.contains[n]["v2413"])
            assert free == avoiding
        # frozen prefix of the avoider sequence
        seq = [
            scan8.counts[n] - len(scan8.contains[n]["v2413"]) for n in range(1, 8)
        ]
        assert seq == [1, 2, 6, 23, 104, 530, 2958]


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


class TestConstants:
    def test_transfer_matrix_radii(self):
        gc = growth_constants()
        assert abs(gc.gamma - (9 + math.sqrt(113)) / 2) < 1e-9
        assert abs(gc.gamma_prime - (7 + math.sqrt(17)) / 2) < 1e-9

    def test_rho_exact_rational_point(self):
        assert rho(0) == Fraction(2, 27)
        assert isinstance(rho(0), Fraction)

    def test_quintic_root(self):
        gc = growth_constants()
        assert abs(gc.x0 - 13.154940757637178) < 1e-9
        p = 2 * gc.x0**5 - 29 * gc.x0**4 + 36 * gc.x0**3 - 8 * gc.x0**2 - 8
        assert abs(p) < 1e-4  # residual scale: |p'(x0)| ~ 1e5

    def test_lower_bound_constant(self):
        # cited, not derived: pinned to the 12 digits `rectlab constants` prints
        assert abs(growth_constants().lower_bound - 6.698532234455) < 5e-13

    def test_upper_bound_refines_quintic_root(self):
        assert abs(z0_bound(1) - 13.154940757637178) < 1e-6
        assert z0_bound(12) < z0_bound(1)

    def test_weighted_series_closed_form_to_order_twenty(self):
        N = 20
        assert list(weighted_guillotine_series(2, N).coeffs) == expansion(weight_two_closed_form, N)


# ---------------------------------------------------------------------------
# The packaged reference table beyond desk scale
# ---------------------------------------------------------------------------


class TestReferenceTable:
    def test_large_rows_integrity_only(self):
        from pathlib import Path

        import rectlab

        path = (
            Path(rectlab.__file__).parent / "data" / "strong_guillotine_table.txt"
        )
        rows = {}
        for line in path.read_text().splitlines():
            if line and not line.startswith("#"):
                n, v = line.split()
                rows[int(n)] = int(v)
        # rows 1..25 are recomputed exactly, from one table extension
        table = strong_guillotine_table(25)
        for n in range(1, 26):
            assert rows[n] == table.total(n)
        # the remaining rows are fixture data: present, increasing, and
        # growing by bounded log-ratios -- but never recomputed here
        assert sorted(rows) == list(range(1, 33))
        for n in range(13, 33):
            assert rows[n] > rows[n - 1]
            ratio = rows[n] / rows[n - 1]
            assert 4 < ratio < 9


# ---------------------------------------------------------------------------
# Cross-checks tying the pattern, windmill, and guillotine layers together
# ---------------------------------------------------------------------------


class TestCrossChecks:
    def test_mesh_collapses_vincular_pairs(self, scan8):
        """Adding one windmill mesh to a vincular pair equals a classical
        pair, as sets, for every size up to 8."""
        identities = (
            (("v2413", "v3412", "mesh_cw"), ("c2413", "v3412")),
            (("v2413", "v3142", "mesh_cw"), ("c2413", "v3142")),
            (("v3142", "v2143", "mesh_ccw"), ("c3142", "v2143")),
            (("v3142", "v2413", "mesh_ccw"), ("c3142", "v2413")),
        )
        for n in range(1, 9):
            everything = frozenset(all_permutations(n))
            for left, right in identities:
                lhs = everything
                for name in left:
                    lhs -= scan8.contains[n][name]
                rhs = everything
                for name in right:
                    rhs -= scan8.contains[n][name]
                assert lhs == rhs, (n, left, right)

    def test_clockwise_windmill_free_class_counts(self, sweeps, scan8):
        """Weak classes without a clockwise windmill are equinumerous with
        three pattern families (and mirror-symmetrically for ccw)."""
        for n in range(1, 8):
            everything = frozenset(all_permutations(n))
            cw_free = sum(
                1
                for r in sweeps.weak_classes(n).values()
                if not any(w.chirality == "cw" for w in find_windmills(r))
            )
            ccw_free = sum(
                1
                for r in sweeps.weak_classes(n).values()
                if all(w.chirality == "cw" for w in find_windmills(r))
            )
            fam1 = everything - scan8.contains[n]["c2413"] - scan8.contains[n]["v3412"]
            fam2 = (
                everything
                - scan8.contains[n]["v2143"]
                - scan8.contains[n]["v3142"]
                - scan8.contains[n]["mesh_cw"]
            )
            fam3 = everything - scan8.contains[n]["c2413"] - scan8.contains[n]["v3142"]
            assert cw_free == len(fam1) == len(fam2) == len(fam3)
            assert cw_free == ccw_free  # mirror symmetry
        # frozen prefix
        got = []
        for n in range(1, 6):
            everything = frozenset(all_permutations(n))
            got.append(
                len(
                    everything
                    - scan8.contains[n]["c2413"]
                    - scan8.contains[n]["v3412"]
                )
            )
        assert got == [1, 2, 6, 22, 91]

    def test_weak_guillotine_pattern_triples(self, sweeps, scan8):
        """Three pattern families all count weak guillotine classes, i.e.
        the Schroder numbers."""
        schroder = schroder_counts(7)
        for n in range(1, 8):
            everything = frozenset(all_permutations(n))
            fam1 = (
                everything
                - scan8.contains[n]["c2413"]
                - scan8.contains[n]["v3412"]
                - scan8.contains[n]["mesh_ccw"]
            )
            fam2 = (
                everything
                - scan8.contains[n]["v2143"]
                - scan8.contains[n]["c3142"]
                - scan8.contains[n]["mesh_cw"]
            )
            fam3 = everything - scan8.contains[n]["c2413"] - scan8.contains[n]["c3142"]
            guillotine_weak = sum(
                1 for r in sweeps.weak_classes(n).values() if is_guillotine(r)
            )
            assert len(fam1) == len(fam2) == len(fam3) == guillotine_weak
            assert guillotine_weak == schroder[n - 1]

    def test_z_wall_iff_key_contains_adjacent_pattern(self, sweeps):
        for n in range(1, 8):
            for key, r in sweeps.strong_classes(n).items():
                assert has_z_wall(r) == contains_pattern(key, VINC_2_41_3), key

    def test_z_wall_forces_pattern_in_every_fiber_member(self, sweeps):
        for n in range(1, 7):
            for r in sweeps.strong_classes(n).values():
                if has_z_wall(r):
                    assert all(
                        contains_pattern(q, VINC_2_41_3) for q in fiber_s(r)
                    )

    def test_diagonal_images_and_weak_counts_agree(self, sweeps):
        # the weak sweep, the walk recurrence, and the closed formula agree
        weak_rect = _excursion_counts(6, **_WEAK)
        for n in range(1, 7):
            classes = sweeps.weak_classes(n)
            assert len(classes) == weak_rect[n - 1] == baxter_number(n)
            assert all(is_diagonal(r) for r in classes.values())
