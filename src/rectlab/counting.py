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

from .biject import _default_max_n, gamma_w
from .perm import all_permutations
from .rect import is_guillotine, multiplicity

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
    """The guillotine-class generating function, solved by fixed point.

    Iterates the system V = (x + H) * G, H = V, G = x + 2H until stable;
    each pass fixes at least one further coefficient.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x = Series.x(N)
    H = Series.constant(0, N)
    G = Series.constant(0, N)
    for _ in range(N + 2):
        V = (x + H) * G
        H = V
        G2 = x + H.scale(2)
        if G2 == G:
            return G
        G = G2
    raise ArithmeticError(
        "Schroder series fixed point not reached in %d iterations at N=%d" % (N + 2, N)
    )


def schroder_counts(N: int) -> list[int]:
    """Counts of weak guillotine classes for sizes 1..N.

    >>> schroder_counts(5)
    [1, 2, 6, 22, 90]
    """
    G = schroder_series(N)
    out = []
    for k in range(1, N + 1):
        c = G.coefficient(k)
        if c.denominator != 1:
            raise ArithmeticError("Schroder count %s at n=%d is not an integer" % (c, k))
        out.append(c.numerator)
    return out


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
    transpose.  Every stored layer is checked against the left-right and
    top-bottom reflection symmetries.

    Layer n sums over the size n1 of the left factor at the leftmost cut.
    The top and bottom counts of the two factors only add, so each split
    is a convolution in (t, b): every (t, b) grid of counts is packed into
    one integer (Kronecker substitution), one bigint product per (left,
    cut-side, right) count triple does the convolution, and the packed
    accumulators are unpacked once per layer.  Digit width and spacing are
    derived from exact bounds on the data, so no digit carries into the
    next.
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
        for m in range(self.max_n + 1, n + 1):
            layer = self._compute_layer(m)
            _check_symmetries(m, layer)
            self._sv[m] = layer

    def _compute_layer(self, n: int) -> dict[tuple[int, int, int, int], int]:
        # A vertical composite splits at its leftmost full-height cut: the
        # left factor is horizontal-or-size-1, the right factor arbitrary,
        # and the endpoints meeting the cut from the two sides interleave
        # freely (binomial weight).  The cut itself adds one endpoint to the
        # top and bottom sides.
        #
        # The top and bottom counts only add, so for each (l, lp, r) a split
        # is a 2-D convolution in (t, b).  Each (t, b) grid is packed into
        # one integer, digit (t, b) at position t * width + b, so that one
        # bigint product does the convolution (Kronecker substitution).
        # ``width`` keeps every t1 + t2 and b1 + b2 inside a digit, and a
        # digit of ``nbytes`` bytes holds the largest possible coefficient:
        # a split contributes at most (sum of all left weights) times (sum
        # of all right counts) to any one profile.
        splits = range(1, n)
        # the largest endpoint count on any side, per layer
        sides = [0] + [max(map(max, self._sv[m])) for m in splits]
        width = 1 + max(sides[n1] + sides[n - n1] for n1 in splits)
        bound = sum(self._left_weight(n1, n - n1) * self.total(n - n1) for n1 in splits)
        nbytes = (bound.bit_length() + 7) // 8
        acc: dict[tuple[int, int], int] = {}
        for n1 in splits:
            self._add_split(acc, n1, n - n1, sides, width, nbytes)
        out: dict[tuple[int, int, int, int], int] = {}
        for (l, r), packed in acc.items():
            ndigits = -(-packed.bit_length() // (8 * nbytes))
            buf = packed.to_bytes(ndigits * nbytes, "little")
            for pos in range(ndigits):
                v = int.from_bytes(buf[pos * nbytes : (pos + 1) * nbytes], "little")
                if v:
                    t, b = divmod(pos, width)
                    out[(l, t + 1, r, b + 1)] = v
        return out

    def _left_weight(self, n1: int, n2: int) -> int:
        """Sum of the interleaving weights of all left factors of size
        ``n1`` over the cut counts 0..n2-1 of a right factor of size ``n2``.

        By the hockey-stick identity, sum(C(r1 + lp, r1) for lp < n2)
        equals C(r1 + n2, r1 + 1)."""
        return sum(v * math.comb(r1 + n2, r1 + 1) for (*_, r1), v in self._sv[n1].items())

    def _add_split(
        self,
        acc: dict[tuple[int, int], int],
        n1: int,
        n2: int,
        sides: list[int],
        width: int,
        nbytes: int,
    ) -> None:
        """Add the composites whose leftmost cut leaves a left factor of size
        ``n1`` into the packed accumulators ``acc[(l, r)]``."""
        # left factors, horizontal or size 1, by transposing the vertical
        # table: one (t1, b1) grid per left and cut-side count (l, r1)
        by_l: dict[int, list[tuple[int, int]]] = {}
        for (l, r1), grid in self._pack_layer(n1, True, sides[n1], width, nbytes).items():
            by_l.setdefault(l, []).append((r1, grid))
        # right factors, any orientation: one (t2, b2) grid per cut-side and
        # right count (lp, r); size 1 counts once, not as both a degenerate
        # vertical and a degenerate horizontal
        right = self._pack_layer(n2, False, sides[n2], width, nbytes)
        if n2 > 1:
            for key, grid in self._pack_layer(n2, True, sides[n2], width, nbytes).items():
                right[key] = right.get(key, 0) + grid
        by_lp: dict[int, dict[int, int]] = {}
        for (lp, r), grid in right.items():
            by_lp.setdefault(lp, {})[r] = grid
        for l, grids in by_l.items():
            for lp, rights in by_lp.items():
                # the r1 left and lp right cut endpoints interleave freely
                z = sum(math.comb(r1 + lp, r1) * grid for r1, grid in grids)
                for r, grid in rights.items():
                    acc[(l, r)] = acc.get((l, r), 0) + z * grid

    def _pack_layer(
        self, m: int, transpose: bool, side: int, width: int, nbytes: int
    ) -> dict[tuple[int, int], int]:
        """Layer ``m`` (vertical, or horizontal when ``transpose``) as one
        packed (t, b) grid per (l, r): the count of profile (l, t, r, b) is
        the ``nbytes``-byte little-endian digit at position t * width + b.
        ``side`` bounds every t."""
        bufs: dict[tuple[int, int], bytearray] = {}
        for (a, b, c, d), v in self._sv[m].items():
            # s_h(m, b, a, d, c) == s_v(m, a, b, c, d)
            key, pos = ((b, d), a * width + c) if transpose else ((a, c), b * width + d)
            buf = bufs.get(key)
            if buf is None:
                buf = bufs[key] = bytearray((side + 1) * width * nbytes)
            buf[pos * nbytes : (pos + 1) * nbytes] = v.to_bytes(nbytes, "little")
        return {key: int.from_bytes(buf, "little") for key, buf in bufs.items()}


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
# Multiplicity-based oracle
# ---------------------------------------------------------------------------


def strong_count_via_multiplicity(
    n: int, guillotine_only: bool = False, max_n: int | None = None
) -> int:
    """Sum of multiplicities over weak classes (exhaustive sweep).

    Counts strong classes without ever constructing them: each weak class
    contributes the product of its per-segment interleaving binomials.
    ``guillotine_only`` restricts the sweep to guillotine classes.  Guarded
    by the same exhaustive-size bound as the other sweeps.
    """
    bound = _default_max_n() if max_n is None else max_n
    if n > bound:
        raise ValueError(
            "exhaustive sweep of size %d exceeds the bound %d" % (n, bound)
        )
    classes = {gamma_w(pi) for pi in all_permutations(n)}
    total = 0
    for r in classes:
        if guillotine_only and not is_guillotine(r):
            continue
        total += multiplicity(r)
    return total


# ---------------------------------------------------------------------------
# Weighted guillotine series
# ---------------------------------------------------------------------------


def weighted_guillotine_series(y_value: int | Fraction, N: int) -> Series:
    """Guillotine classes weighted by ``y`` per two-sided segment.

    Solves, by fixed-point iteration, the system

        V = x*G + H*(G0 + y*G1),   H = V,   G = x + 2V,
        G0 = x*G + x,              G1 = (1 - x)*G - x.

    At y=1 this reduces to the plain class-counting series; at y=2 the
    coefficient of x^n is the sum over weak guillotine classes of size n of
    2 to the number of two-sided segments.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    y = Fraction(y_value)
    x = Series.x(N)
    one = Series.constant(1, N)
    V = Series.constant(0, N)
    G = Series.constant(0, N)
    for _ in range(2 * N + 4):
        G0 = x * G + x
        G1 = (one - x) * G - x
        V = x * G + V * (G0 + G1.scale(y))
        G2 = x + V.scale(2)
        if G2 == G:
            return G
        G = G2
    raise ArithmeticError(
        "weighted guillotine series fixed point (y=%s) not reached in %d iterations at N=%d"
        % (y, 2 * N + 4, N)
    )


# ---------------------------------------------------------------------------
# Growth constants
# ---------------------------------------------------------------------------

_TRANSFER_ALL = (
    (2, 3, 3, 4),
    (2, 3, 2, 3),
    (2, 2, 3, 3),
    (2, 2, 2, 2),
)
_TRANSFER_TWO_CLUMPED = (
    (2, 2, 2, 2),
    (1, 1, 2, 2),
    (1, 2, 1, 2),
    (0, 1, 1, 2),
)


def _spectral_radius(matrix: tuple[tuple[int, ...], ...]) -> float:
    """Power iteration; the matrices here are nonnegative and primitive."""
    dim = len(matrix)
    vec = [1.0] * dim
    for _ in range(10_000):
        nxt = [sum(matrix[i][j] * vec[j] for j in range(dim)) for i in range(dim)]
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

    Exact (Fraction) when ``v`` is rational and 9+4v is a rational square;
    float otherwise.  Defined for 9+4v > 0.

    >>> rho(0)
    Fraction(2, 27)
    """
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        vq = Fraction(v)
        base = 9 + 4 * vq
        if base <= 0:
            raise ValueError("rho(v) requires 9 + 4v > 0")
        root = _exact_sqrt(base)
        if root is not None:
            return 2 * (2 + vq) / (2 * vq * vq + 18 * vq + 27 + base * root)
        vf = float(vq)
    else:
        vf = float(v)
        if 9 + 4 * vf <= 0:
            raise ValueError("rho(v) requires 9 + 4v > 0")
    return 2 * (2 + vf) / (2 * vf * vf + 18 * vf + 27 + (9 + 4 * vf) ** 1.5)


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
    g = [strong_guillotine_count(i) for i in range(1, k + 1)]

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
    """Named growth rates; see :func:`growth_constants` for provenance."""

    gamma: float
    gamma_prime: float
    x0: float
    lower_bound: float


def growth_constants() -> GrowthConstants:
    """Compute the package's growth constants.

    - ``gamma``: spectral radius of the strong-class transfer matrix,
      equal to (9 + sqrt(113)) / 2 ~ 9.815.
    - ``gamma_prime``: spectral radius of the single-key transfer matrix,
      equal to (7 + sqrt(17)) / 2 ~ 5.562.
    - ``x0``: the unique positive root of 2x^5 - 29x^4 + 36x^3 - 8x^2 - 8,
      ~ 13.155 (first upper bound for the strong guillotine growth rate).
    - ``lower_bound``: (1 + sqrt(13 - 8*sqrt(2))) * (3 + 2*sqrt(2)) / 2
      ~ 6.699 (strong guillotine growth is at least this).
    """
    return GrowthConstants(
        gamma=_spectral_radius(_TRANSFER_ALL),
        gamma_prime=_spectral_radius(_TRANSFER_TWO_CLUMPED),
        x0=_x0(),
        lower_bound=0.5
        * (1 + math.sqrt(13 - 8 * math.sqrt(2)))
        * (3 + 2 * math.sqrt(2)),
    )
