"""Second routes to results the benchmark checks, written without rectlab.

- ``separable``: shift-reduce on value intervals (Bose, Buss and Lubiw,
  1998): a permutation is separable iff merging adjacent blocks whose value
  ranges touch leaves one block.
- Vincular patterns ``w1-w2w3-w4`` (middle pair adjacent): direct search.
- Large Schroder numbers: the three-term recurrence
  ``(k+1) S_k = 3(2k-1) S_{k-1} - (k-2) S_{k-2}``.
"""

# flag -> vincular patterns it avoids (each: values, middle pair adjacent)
VINCULAR_FLAGS = {
    "baxter": ((2, 4, 1, 3), (3, 1, 4, 2)),
    "twisted_baxter": ((2, 4, 1, 3), (3, 4, 1, 2)),
    "co_twisted_baxter": ((2, 1, 4, 3), (3, 1, 4, 2)),
    "semi_baxter": ((2, 4, 1, 3),),
}


def is_separable(pi):
    stack = []
    for v in pi:
        lo = hi = v
        while stack and (stack[-1][1] + 1 == lo or hi + 1 == stack[-1][0]):
            plo, phi = stack.pop()
            lo, hi = min(lo, plo), max(hi, phi)
        stack.append((lo, hi))
    return len(stack) == 1


def _order(values):
    return sorted(range(len(values)), key=values.__getitem__)


def contains_vincular(pi, pattern):
    """True iff ``pi`` has ``a < b``, ``c = b + 1 < d`` ordered like ``pattern``."""
    want = _order(pattern)
    n = len(pi)
    for b in range(1, n - 2):
        mid = (pi[b], pi[b + 1])
        if (mid[0] < mid[1]) != (pattern[1] < pattern[2]):
            continue
        lefts = [v for v in pi[:b] if _order((v,) + mid) == _order(pattern[:3])]
        if not lefts:
            continue
        for d in pi[b + 2:]:
            for a in lefts:
                if _order((a,) + mid + (d,)) == want:
                    return True
    return False


def flags_ok(pi, lines, class_flags):
    """``lines`` lists flags in ``class_flags`` order, and every flag with a
    second route here is present exactly when that route says so."""
    if lines != [f for f in class_flags if f in lines]:
        return False
    expect = {
        flag: not any(contains_vincular(pi, p) for p in patterns)
        for flag, patterns in VINCULAR_FLAGS.items()
    }
    expect["separable"] = is_separable(pi)
    return all((flag in lines) == held for flag, held in expect.items())


def large_schroder(count):
    """The first ``count`` large Schroder numbers 1, 2, 6, 22, 90, ..."""
    s = [1, 2]
    for k in range(2, count):
        s.append((3 * (2 * k - 1) * s[-1] - (k - 2) * s[-2]) // (k + 1))
    return s[:count]
