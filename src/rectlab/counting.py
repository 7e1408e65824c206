"""Exact enumeration: closed forms, recurrences, series, growth constants.

Integer counts use Python bigints.  The guillotine series come from one
coefficient recurrence, in integers for an integral weight, and are
returned as truncated ``Series`` of their coefficients.  The few
floating-point outputs (spectral radii, root locations) are produced by
bisection/power iteration with stated tolerances.  No third-party numerics
are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .walks import COLORS, _LEVEL_STEP, _left_slack, _right_slack, count_strong_rect

# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """A power series truncated at a fixed order, with Fraction coefficients:
    ``coeffs[k]`` is the coefficient of x^k."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series carries at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)


# ---------------------------------------------------------------------------
# Schroder and Baxter numbers
# ---------------------------------------------------------------------------


def schroder_series(N: int) -> Series:
    """The guillotine-class generating function G = x + (x + G) * G: the
    weighted guillotine series at y = 1, where every class counts once."""
    return weighted_guillotine_series(1, N)


def schroder_counts(N: int) -> list[int]:
    """Counts of weak guillotine classes for sizes 1..N.

    >>> schroder_counts(5)
    [1, 2, 6, 22, 90]
    """
    G = schroder_series(N)
    return [_integer_term(G, k, "Schroder count") for k in range(1, N + 1)]


def _integer_term(series: Series, n: int, what: str) -> int:
    """The coefficient of x^n in ``series``, which must be an integer;
    ``ArithmeticError`` names ``what`` and ``n`` otherwise."""
    c = series.coefficient(n)
    if c.denominator != 1:
        raise ArithmeticError("%s %s at n=%d is not an integer" % (what, c, n))
    return c.numerator


def baxter_number(n: int) -> int:
    """The number of weak rectangulations of size ``n`` (closed formula).

    >>> [baxter_number(n) for n in range(1, 7)]
    [1, 2, 6, 22, 92, 422]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 1
    num = sum(
        math.comb(m, k - 1) * math.comb(m, k) * math.comb(m, k + 1)
        for k in range(1, n + 1)
    )
    den = math.comb(m, 0) * math.comb(m, 1) * math.comb(m, 2)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("Baxter sum %d at n=%d is not divisible by %d" % (num, n, den))
    return q


# ---------------------------------------------------------------------------
# Strong guillotine counts: the five-parameter recurrence
# ---------------------------------------------------------------------------


class CountTable:
    """Layered memo for counts of guillotine classes refined by the numbers
    of segment endpoints on the four sides of the bounding box.

    Only the vertical-cut table is stored: ``layer(n)`` maps (l, t, r, b)
    to s_v(n, l, t, r, b), the vertical (or size-1) classes of size n with
    that profile.  The horizontal table is its transpose,
    s_h(n, l, t, r, b) = s_v(n, t, l, b, r).  Layer n sums over the size n1 of the left factor at the
    leftmost cut.  Top and bottom counts only add, so each split is a
    convolution in (t, b), done by bigint products of packed grids
    (Kronecker substitution, see ``_Packing``).  Each count is computed for
    left count <= right count and written to both mirror profiles, so the
    left-right symmetry holds by construction; the top-bottom symmetry is
    checked on every layer, one integer comparison per horizontal grid,
    before the layer is stored.  The counts' independent evidence is the
    tests' direct-recurrence oracle and the packaged totals.

    A computed layer is stored as the accumulators that computed it, in
    the layout of its build (``_PackedLayer``), and ``total`` reads their
    digit sums.  The per-profile dict is a view, built the first time
    ``layer`` reads the layer; it then replaces the accumulators, so each
    layer is held in one form at a time.
    """

    def __init__(self) -> None:
        self._sv: dict[int, dict[tuple[int, int, int, int], int] | _PackedLayer] = {
            1: {(0, 0, 0, 0): 1}
        }

    @property
    def max_n(self) -> int:
        return max(self._sv)

    def _view(self, n: int) -> dict[tuple[int, int, int, int], int]:
        """The per-profile dict of stored layer ``n``, built once."""
        layer = self._sv[n]
        if isinstance(layer, _PackedLayer):
            layer = self._sv[n] = layer.unpack()
        return layer

    def total(self, n: int) -> int:
        """Sum over all side-endpoint profiles."""
        if n == 1:
            return 1
        self.extend_to(n)
        layer = self._sv[n]
        vertical = layer.total() if isinstance(layer, _PackedLayer) else sum(layer.values())
        # the transpose is a bijection on entries, so the horizontal total
        # equals the vertical one
        return 2 * vertical

    def layer(self, n: int) -> dict[tuple[int, int, int, int], int]:
        self.extend_to(n)
        return dict(self._view(n))

    def extend_to(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n <= self.max_n:
            return
        packing = _Packing(n)
        for m in range(1, self.max_n + 1):
            packing.pack(m, *packing.grids(m, self._view(m)))
        for m in range(self.max_n + 1, n + 1):
            acc = packing.products(m)
            if m == n:
                # no later layer reads the store: free it before the layer's
                # horizontal grids are built, which lowers the build's peak
                # memory
                packing.left = packing.right = {}
            layer = _PackedLayer(acc, packing.width, packing.nbytes)
            horizontal = packing.transpose(m, acc)
            _check_packed(m, layer, horizontal)
            self._sv[m] = layer
            if m < n:
                packing.pack(m, packing.shifted(acc), horizontal)


class _PackedLayer(NamedTuple):
    """A computed layer: its accumulators (``_Packing.products``) and the
    layout ``(width, nbytes)`` of the build that computed it."""

    acc: dict[tuple[int, int], int]
    width: int
    nbytes: int

    def unpack(self) -> dict[tuple[int, int, int, int], int]:
        """The nonzero counts of the accumulators, each written to its
        profile and to the left-right mirror.  The cut adds one endpoint to
        the top and bottom sides."""
        width, nbytes = self.width, self.nbytes
        out: dict[tuple[int, int, int, int], int] = {}
        for (l, r), packed in self.acc.items():
            ndigits = -(-packed.bit_length() // (8 * nbytes))
            buf = packed.to_bytes(ndigits * nbytes, "little")
            for pos in range(ndigits):
                v = int.from_bytes(buf[pos * nbytes : (pos + 1) * nbytes], "little")
                if v:
                    t, b = divmod(pos, width)
                    out[(l, t + 1, r, b + 1)] = out[(r, t + 1, l, b + 1)] = v
        return out

    def total(self) -> int:
        """The sum of the view's counts, read off the digits.  The base
        B = 2**(8 * nbytes) is 1 mod B - 1, so a grid is congruent to its
        digit sum.  That sum counts vertical classes of one size <= N, fewer
        than ``count_strong_rect(N)`` <= B - 1, so it equals the remainder.
        A grid with l < r also stands for its mirror (r, l)."""
        mod = (1 << 8 * self.nbytes) - 1
        return sum((1 if l == r else 2) * (grid % mod) for (l, r), grid in self.acc.items())


def _check_packed(n: int, layer: _PackedLayer, horizontal: dict[tuple[int, int], int]) -> None:
    """Raise ``ArithmeticError`` unless the packed layer ``n`` is invariant
    under the top-bottom reflection.  Its horizontal grid (t, b)
    (``_Packing.transpose``) holds the count of (l, t, r, b) at the digit
    where grid (b, t) holds that of (l, b, r, t), so the layer is
    symmetric iff every two such grids are equal.  The left-right symmetry
    holds by construction.  On failure the view names the layer and
    profile; the build raises even if it names none."""
    if any(horizontal.get((b, t), 0) != grid for (t, b), grid in horizontal.items()):
        _check_symmetries(n, layer.unpack())
        raise ArithmeticError("top-bottom symmetry broken in layer %d" % n)


class _Packing:
    """The Kronecker layout of one ``CountTable.extend_to(N)`` call and the
    layers packed in it.

    A packed (t, b) grid is one integer whose ``nbytes``-byte little-endian
    digit at position t * width + b is the count of (t, b).  One layout
    serves every layer <= N, so no layer is packed twice:

    - ``width = N - 1``: a class of size n has at most n - 1 endpoints on a
      side and a cut adds one to t1 + t2 and to b1 + b2, so both stay below.
    - ``nbytes`` holds ``count_strong_rect(N)``.  Only the digits of an
      accumulator must fit, and each counts the composites of one profile
      of a layer n <= N: strong rectangulations of size <= N.  The factors
      and partial sums in between may carry from digit to digit, since the
      integer identity holds whatever their digits; every term is
      nonnegative, so no partial sum exceeds the accumulator.  A whole
      accumulator's digit sum is below B - 1 as well, which
      ``_PackedLayer.total`` reads.

    A layer that the call computed is packed from its accumulators: shifted
    by the cut's +1 in t and in b they are its vertical grids, and one pass
    over their digits gives its horizontal ones.  A stored view is packed
    entry by entry.
    """

    def __init__(self, N: int) -> None:
        self.width = N - 1
        self.nbytes = (count_strong_rect(N).bit_length() + 7) // 8
        # left factors of size m, horizontal or size 1: r1 -> [(l, grid)]
        self.left: dict[int, dict[int, list[tuple[int, int]]]] = {}
        # right factors of size m, any orientation: lp -> {r: grid}
        self.right: dict[int, dict[int, dict[int, int]]] = {}

    def grids(
        self, m: int, layer: dict[tuple[int, int, int, int], int]
    ) -> list[dict[tuple[int, int], int]]:
        """The vertical and horizontal grids of the view ``layer`` of size
        ``m``, packed entry by entry."""
        width, nbytes = self.width, self.nbytes
        out = []
        for horizontal in (False, True):
            bufs: dict[tuple[int, int], bytearray] = {}
            for (a, b, c, d), v in layer.items():
                # s_h(m, b, a, d, c) == s_v(m, a, b, c, d)
                key, pos = ((b, d), a * width + c) if horizontal else ((a, c), b * width + d)
                buf = bufs.get(key)
                if buf is None:
                    buf = bufs[key] = bytearray(m * width * nbytes)
                buf[pos * nbytes : (pos + 1) * nbytes] = v.to_bytes(nbytes, "little")
            out.append({key: int.from_bytes(buf, "little") for key, buf in bufs.items()})
        return out

    def shifted(self, acc: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
        """The vertical grids of a computed layer: its accumulators shifted
        by the cut's +1 in t and in b, each shared with its mirror."""
        shift = 8 * self.nbytes * (self.width + 1)
        out = {}
        for (l, r), packed in acc.items():
            out[(l, r)] = out[(r, l)] = packed << shift
        return out

    def transpose(self, m: int, acc: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
        """The horizontal grids of the computed layer ``m``, in one pass over
        its accumulators' digits.  The digit of ``acc[(l, r)]`` at
        (t - 1, b - 1) is s_v(m, l, t, r, b) = s_h(m, t, l, b, r), so it is
        copied to positions l * width + r and, for the mirror,
        r * width + l of grid (t, b)."""
        width, nbytes = self.width, self.nbytes
        zero = bytes(nbytes)
        bufs: dict[int, bytearray] = {}  # digit position -> grid
        for (l, r), packed in acc.items():
            ndigits = -(-packed.bit_length() // (8 * nbytes))
            digits = packed.to_bytes(ndigits * nbytes, "little")
            i, j = (l * width + r) * nbytes, (r * width + l) * nbytes
            for pos, start in enumerate(range(0, ndigits * nbytes, nbytes)):
                digit = digits[start : start + nbytes]
                if digit != zero:
                    buf = bufs.get(pos)
                    if buf is None:
                        buf = bufs[pos] = bytearray(m * width * nbytes)
                    buf[i : i + nbytes] = buf[j : j + nbytes] = digit
        out = {}
        for pos, buf in bufs.items():
            t, b = divmod(pos, width)
            out[(t + 1, b + 1)] = int.from_bytes(buf, "little")
        return out

    def pack(
        self, m: int, vertical: dict[tuple[int, int], int], horizontal: dict[tuple[int, int], int]
    ) -> None:
        """Store layer ``m``'s grids as left and right factors."""
        left = self.left[m] = {}
        for (l, r1), grid in horizontal.items():
            left.setdefault(r1, []).append((l, grid))
        right = self.right[m] = {}
        # size 1 counts once, not as both a degenerate vertical and a
        # degenerate horizontal
        for (lp, r), grid in [*vertical.items(), *(horizontal.items() if m > 1 else ())]:
            rights = right.setdefault(lp, {})
            rights[r] = rights.get(r, 0) + grid

    def products(self, n: int) -> dict[tuple[int, int], int]:
        """Packed (t, b) grids of layer ``n``, one per (l, r) with l <= r.

        A vertical composite splits at its leftmost full-height cut into a
        horizontal-or-size-1 left factor and any right factor; the r1 and
        lp endpoints meeting the cut from the two sides interleave freely,
        in C(r1 + lp, r1) ways.  That binomial is folded into the right
        factors once per split and r1, so one product per grid pair."""
        acc: dict[tuple[int, int], int] = {}
        for n1 in range(1, n):
            by_lp = self.right[n - n1]
            for r1, lefts in self.left[n1].items():
                w: dict[int, int] = {}
                for lp, rights in by_lp.items():
                    c = math.comb(r1 + lp, r1)
                    for r, grid in rights.items():
                        w[r] = w.get(r, 0) + c * grid
                for l, grid in lefts:
                    for r, folded in w.items():
                        if l <= r:
                            acc[(l, r)] = acc.get((l, r), 0) + grid * folded
        return acc


def _check_symmetries(n: int, layer: dict[tuple[int, int, int, int], int]) -> None:
    """Raise ``ArithmeticError`` unless the vertical-cut layer of size ``n``
    is invariant under the left-right and top-bottom reflections."""
    for (l, t, r, b), v in layer.items():
        if layer.get((r, t, l, b), 0) != v:
            broken = "left-right"
        elif layer.get((l, b, r, t), 0) != v:
            broken = "top-bottom"
        else:
            continue
        raise ArithmeticError(
            "%s symmetry broken in layer %d at profile %r" % (broken, n, (l, t, r, b))
        )


_TABLE = CountTable()


def strong_guillotine_table(n: int) -> CountTable:
    """The shared memo table, extended to cover sizes up to ``n``."""
    _TABLE.extend_to(n)
    return _TABLE


def strong_guillotine_count(n: int) -> int:
    """Strong guillotine classes of size ``n``.

    >>> [strong_guillotine_count(n) for n in range(1, 9)]
    [1, 2, 6, 24, 114, 606, 3494, 21434]
    """
    return strong_guillotine_table(n).total(n)


# ---------------------------------------------------------------------------
# Weighted guillotine series
# ---------------------------------------------------------------------------


def weighted_guillotine_series(y_value: int | Fraction | float, N: int) -> Series:
    """Guillotine classes weighted by ``y`` per two-sided segment.

    Solves V = x*G + V*W, W = (1 - y)*(x*G + x) + y*G, G = x + 2V one
    coefficient at a time.  V, W and G have no constant term, so
    v_n = g_{n-1} + sum(v_i * w_{n-i} for 0 < i < n) reads only lower
    coefficients, and g_n and w_n follow from v_n.

    A float ``y`` is read at its exact binary value, so 0.1 is not 1/10
    (pass ``Fraction(1, 10)`` for that).  An integral ``y`` runs in integer
    arithmetic.  At y=1 this is the plain class-counting series,
    ``schroder_series``; at y=2 the coefficient of x^n sums 2 to the number
    of two-sided segments over the weak guillotine classes of size n.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    y = Fraction(y_value)
    if y.denominator == 1:
        y = y.numerator
    v, w, g = ([0] * (N + 1) for _ in range(3))
    for n in range(1, N + 1):
        v[n] = g[n - 1] + sum(v[i] * w[n - i] for i in range(1, n))
        g[n] = (n == 1) + 2 * v[n]
        w[n] = (1 - y) * (g[n - 1] + (n == 1)) + y * g[n]
    return Series(tuple(map(Fraction, g)))


# ---------------------------------------------------------------------------
# Growth constants
# ---------------------------------------------------------------------------

def _transfer_matrix(weak: bool) -> list[list[int]]:
    """Entry (c, c2): the width dl + dr + step + 1 of the x-window that a
    point colored ``c2`` collects from color ``c`` in the leftright DP of
    :func:`rectlab.walks._excursion_counts`, under the weak or strong rules."""
    slack = lambda c, c2: _left_slack(c, c2, weak) + _right_slack(c, c2, weak)
    return [[slack(c, c2) + _LEVEL_STEP[c] + 1 for c2 in COLORS] for c in COLORS]


def _spectral_radius(matrix: list[list[int]]) -> float:
    """Power iteration; the matrices here are nonnegative and primitive."""
    vec = [1.0] * len(matrix)
    for _ in range(10_000):
        nxt = [sum(a * v for a, v in zip(row, vec)) for row in matrix]
        norm = max(abs(c) for c in nxt)
        nxt = [c / norm for c in nxt]
        if all(abs(a - b) < 1e-15 for a, b in zip(nxt, vec)):
            return norm
        vec = nxt
    raise ArithmeticError("power iteration did not converge in 10000 steps")


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def rho(v: int | float | Fraction) -> Fraction | float:
    """Radius-of-convergence function 2(2+v) / (2v^2+18v+27+(9+4v)^{3/2}).

    With s = sqrt(9+4v), the numerator is (s-1)(s+1)/2 and the denominator
    (s-1)(s+3)^3/8, so rho(v) = 4(1+s) / (3+s)^3, which is how it is
    evaluated: the common factor vanishes at v = -2, where rho is 1/8.
    Exact (Fraction) when ``v`` is rational and 9+4v is a rational square;
    float otherwise.  Defined for 9+4v > 0.

    >>> rho(0)
    Fraction(2, 27)
    >>> rho(-2)
    Fraction(1, 8)
    """
    exact = isinstance(v, (int, Fraction)) and not isinstance(v, bool)
    base = 9 + 4 * (Fraction(v) if exact else float(v))
    if base <= 0:
        raise ValueError("rho(v) requires 9 + 4v > 0")
    s = _exact_sqrt(base) if exact else None
    if s is None:
        s = math.sqrt(base)
    return 4 * (1 + s) / (3 + s) ** 3


def _small_windmill_poly(x: float) -> float:
    return 2 * x**5 - 29 * x**4 + 36 * x**3 - 8 * x**2 - 8


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo = f(lo)
    if flo == 0:
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _x0() -> float:
    # uniqueness: exactly one sign change over the integer points of the
    # bracketing interval
    signs = [_small_windmill_poly(k) > 0 for k in range(0, 65)]
    changes = [k for k in range(1, 65) if signs[k] != signs[k - 1]]
    if len(changes) != 1:
        raise ArithmeticError(
            "expected one sign change of the windmill polynomial on 0..64, found %d"
            % len(changes)
        )
    hi = changes[0]
    return _bisect(_small_windmill_poly, hi - 1, hi, 1e-12)


def z0_bound(k: int) -> float:
    """Upper bound on the strong-guillotine growth rate from ``k`` terms.

    Finds the smallest positive root of z = rho(-2 * sum g_i z^i), where the
    g_i are computed strong guillotine counts (never hard-coded), and
    returns its reciprocal.  The bound decreases in ``k``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = strong_guillotine_table(k)
    g = [table.total(i) for i in range(1, k + 1)]

    def arg(z: float) -> float:
        return -2 * sum(gi * z ** (i + 1) for i, gi in enumerate(g))

    def f(z: float) -> float:
        return float(rho(arg(z))) - z

    z = 1e-9
    step = 1e-4
    prev = z
    while True:
        z += step
        if 9 + 4 * arg(z) <= 0:
            raise ArithmeticError(
                "z0_bound(%d): left the domain of rho at z=%r before a crossing" % (k, z)
            )
        if f(z) <= 0:
            break
        prev = z
    z0 = _bisect(f, prev, z, 1e-12)
    return 1 / z0


@dataclass(frozen=True)
class GrowthConstants:
    """Named growth rates; see :func:`growth_constants` for provenance.
    ``gamma``, ``gamma_prime`` and ``x0`` are computed; ``lower_bound`` is
    the source paper's closed form, cited rather than recomputed."""

    gamma: float
    gamma_prime: float
    x0: float
    lower_bound: float


def growth_constants() -> GrowthConstants:
    """Compute the package's growth constants.

    - ``gamma``: growth rate of strong leftright walks (:func:`rectlab.walks.count_U`),
      the spectral radius of their transfer matrix, (9 + sqrt(113)) / 2 ~ 9.815.
    - ``gamma_prime``: the same for weak leftright walks (``count_O``),
      (7 + sqrt(17)) / 2 ~ 5.562.
    - ``x0``: the unique positive root of 2x^5 - 29x^4 + 36x^3 - 8x^2 - 8,
      ~ 13.155 (first upper bound for the strong guillotine growth rate).
    - ``lower_bound``: (1 + sqrt(13 - 8*sqrt(2))) * (3 + 2*sqrt(2)) / 2
      ~ 6.699 (strong guillotine growth is at least this).  This one is
      cited: the library evaluates the source paper's closed form and does
      not derive it from a construction.
    """
    return GrowthConstants(
        gamma=_spectral_radius(_transfer_matrix(weak=False)),
        gamma_prime=_spectral_radius(_transfer_matrix(weak=True)),
        x0=_x0(),
        lower_bound=0.5
        * (1 + math.sqrt(13 - 8 * math.sqrt(2)))
        * (3 + 2 * math.sqrt(2)),
    )
