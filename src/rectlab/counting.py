"""Exact enumeration: closed forms, recurrences, series, growth constants.

Everything here is exact: integer counts use Python bigints, series use
rational coefficients, and the few floating-point outputs (spectral radii,
root locations) are produced by bisection/power iteration with stated
tolerances.  No third-party numerics are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .walks import COLORS, _LEVEL_STEP, _left_slack, _right_slack, count_strong_rect

# ---------------------------------------------------------------------------
# Truncated power series over exact rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """A power series truncated at a fixed order, with Fraction coefficients.

    ``coeffs[k]`` is the coefficient of x^k; all arithmetic truncates to the
    shorter operand's order and stays exact.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series carries at least the constant term")

    @staticmethod
    def constant(value: int | Fraction, order: int) -> Series:
        c = [Fraction(0)] * (order + 1)
        c[0] = Fraction(value)
        return Series(tuple(c))

    @staticmethod
    def x(order: int) -> Series:
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return Series(tuple(c))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def __add__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(tuple(out))

    def scale(self, factor: int | Fraction) -> Series:
        f = Fraction(factor)
        return Series(tuple(c * f for c in self.coeffs))

    def inverse(self) -> Series:
        """Multiplicative inverse; requires a nonzero constant term."""
        if not self.coeffs[0]:
            raise ValueError("series with zero constant term has no inverse")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / self.coeffs[0]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[k - i]
            out[k] = -acc / self.coeffs[0]
        return Series(tuple(out))

    def sqrt(self) -> Series:
        """Square root by Newton iteration; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("series square root requires constant term 1")
        s = Series.constant(1, self.order)
        half = Fraction(1, 2)
        # each Newton step doubles the number of correct coefficients
        for _ in range(self.order.bit_length() + 1):
            s = (s + self * s.inverse()).scale(half)
        return s


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

    Only the vertical-cut table is stored; the horizontal one is its
    transpose.  Layer n sums over the size n1 of the left factor at the
    leftmost cut.  Top and bottom counts only add, so each split is a
    convolution in (t, b), done by bigint products of packed grids
    (Kronecker substitution, see ``_Packing``).  Each count is computed for
    left count <= right count and written to both mirror profiles, so the
    left-right symmetry holds by construction; both it and the top-bottom
    symmetry are checked on every layer before it is stored.  The counts'
    independent evidence is the tests' direct-recurrence oracle and the
    packaged totals.
    """

    def __init__(self) -> None:
        self._sv: dict[int, dict[tuple[int, int, int, int], int]] = {
            1: {(0, 0, 0, 0): 1}
        }

    @property
    def max_n(self) -> int:
        return max(self._sv)

    def s_v(self, n: int, l: int, t: int, r: int, b: int) -> int:
        """Vertical (or size-1) classes with the given side-endpoint counts."""
        self.extend_to(n)
        return self._sv[n].get((l, t, r, b), 0)

    def s_h(self, n: int, l: int, t: int, r: int, b: int) -> int:
        """Horizontal (or size-1) classes: the transpose of ``s_v``."""
        return self.s_v(n, t, l, b, r)

    def s(self, n: int, l: int, t: int, r: int, b: int) -> int:
        """All classes with the given side-endpoint counts."""
        if n == 1:
            return 1 if (l, t, r, b) == (0, 0, 0, 0) else 0
        return self.s_v(n, l, t, r, b) + self.s_h(n, l, t, r, b)

    def total(self, n: int) -> int:
        """Sum over all side-endpoint profiles."""
        if n == 1:
            return 1
        self.extend_to(n)
        # the transpose is a bijection on entries, so the horizontal total
        # equals the vertical one
        return 2 * sum(self._sv[n].values())

    def layer(self, n: int) -> dict[tuple[int, int, int, int], int]:
        self.extend_to(n)
        return dict(self._sv[n])

    def extend_to(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n <= self.max_n:
            return
        packing = _Packing(n)
        for m in range(1, self.max_n + 1):
            packing.pack(m, self._sv[m])
        for m in range(self.max_n + 1, n + 1):
            acc = packing.products(m)
            if m == n:
                # no later layer reads the store: free it before the layer's
                # dict is built, which lowers the build's peak memory
                packing.left = packing.right = {}
            layer = packing.unpack(acc)
            _check_symmetries(m, layer)
            self._sv[m] = layer
            if m < n:
                packing.pack(m, layer, acc)


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
      nonnegative, so no partial sum exceeds the accumulator.
    """

    def __init__(self, N: int) -> None:
        self.width = N - 1
        self.nbytes = (count_strong_rect(N).bit_length() + 7) // 8
        # left factors of size m, horizontal or size 1: r1 -> [(l, grid)]
        self.left: dict[int, dict[int, list[tuple[int, int]]]] = {}
        # right factors of size m, any orientation: lp -> {r: grid}
        self.right: dict[int, dict[int, dict[int, int]]] = {}
        # one tuple per profile, shared by all layers and mirror images
        self.keys: dict[tuple[int, int, int, int], tuple[int, int, int, int]] = {}

    def pack(
        self,
        m: int,
        layer: dict[tuple[int, int, int, int], int],
        acc: dict[tuple[int, int], int] | None = None,
    ) -> None:
        """Pack layer ``m`` once per orientation into ``left`` and ``right``.
        The accumulators ``acc`` that computed it, if given, shifted by the
        cut's +1 in t and in b are its vertical grids, each shared with its
        mirror (r, l); every other orientation is packed entry by entry."""
        width, nbytes = self.width, self.nbytes
        grids: list[dict[tuple[int, int], int]] = []
        if acc is not None:
            shift = 8 * nbytes * (width + 1)
            grids.append({})
            for (l, r), packed in acc.items():
                grids[0][(l, r)] = grids[0][(r, l)] = packed << shift
        for transpose in (False, True)[len(grids) :]:
            bufs: dict[tuple[int, int], bytearray] = {}
            for (a, b, c, d), v in layer.items():
                # s_h(m, b, a, d, c) == s_v(m, a, b, c, d)
                key, pos = ((b, d), a * width + c) if transpose else ((a, c), b * width + d)
                buf = bufs.get(key)
                if buf is None:
                    buf = bufs[key] = bytearray(m * width * nbytes)
                buf[pos * nbytes : (pos + 1) * nbytes] = v.to_bytes(nbytes, "little")
            grids.append({key: int.from_bytes(buf, "little") for key, buf in bufs.items()})
        vertical, horizontal = grids
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

    def unpack(self, acc: dict[tuple[int, int], int]) -> dict[tuple[int, int, int, int], int]:
        """The nonzero counts of the accumulators, each written to its
        profile and to the left-right mirror.  The cut adds one endpoint to
        the top and bottom sides."""
        width, nbytes, keys = self.width, self.nbytes, self.keys
        out: dict[tuple[int, int, int, int], int] = {}
        for (l, r), packed in acc.items():
            ndigits = -(-packed.bit_length() // (8 * nbytes))
            buf = packed.to_bytes(ndigits * nbytes, "little")
            for pos in range(ndigits):
                v = int.from_bytes(buf[pos * nbytes : (pos + 1) * nbytes], "little")
                if v:
                    t, b = divmod(pos, width)
                    for key in ((l, t + 1, r, b + 1), (r, t + 1, l, b + 1)):
                        out[keys.setdefault(key, key)] = v
        return out


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
