"""Command-line front end and fixture-driven verification sweeps.

Conventions: permutations are passed as quoted one-line notation
("2 4 1 3"); rectangulations travel as JSON files ("-" reads stdin).
Output is deterministic: identical input and flags give identical bytes.
Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import biject, counting, perm, rect, walks


def _print(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


class _SizeError(Exception):
    """A size argument that is not a numeral.  argparse would turn a
    ``ValueError`` from a type into a usage error (exit 2); this one reaches
    :func:`run`, which reports it as bad input (exit 1)."""


def _size(text: str) -> int:
    """A size argument: an ASCII decimal numeral, or one after a leading
    ``-`` for the command's own range check to refuse."""
    try:
        return -perm._numeral(text[1:]) if text.startswith("-") else perm._numeral(text)
    except ValueError:
        raise _SizeError("expected a size, a decimal numeral [0-9]+, got %r" % text) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_map(args: argparse.Namespace) -> int:
    pi = perm.parse_permutation(args.perm)
    r = biject.gamma_w(pi) if args.weak else biject.gamma_s(pi)
    if args.ascii:
        _print(rect.render(r, "ascii"))
    elif args.svg:
        _print(rect.render(r, "svg"))
    else:
        _print(rect.to_json(r))
    return 0


def _cmd_fiber(args: argparse.Namespace) -> int:
    r = rect.from_json(_read_text(args.rect))
    members = biject.fiber_w(r) if args.weak else biject.fiber_s(r)
    for pi in members:
        _print(pi.one_line())
    return 0


def _cmd_key(args: argparse.Namespace) -> int:
    r = rect.from_json(_read_text(args.rect))
    _print((rect.weak_key(r) if args.weak else rect.strong_key(r)).one_line())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    pi = perm.parse_permutation(args.perm)
    flags = perm.classify(pi)
    for name in perm.CLASS_FLAGS:
        if name in flags:
            _print(name)
    return 0


def _bounded(count: Callable[[int], int], variable: str, default: int) -> Callable[[int], int]:
    """``count`` refusing any size above the bound in environment variable
    ``variable`` (else ``default``), before any work is done."""

    def bounded(n: int) -> int:
        bound = biject._env_bound(variable, default)
        if n > bound:
            raise ValueError(
                "size %d exceeds the bound %d (raise %s)" % (n, bound, variable)
            )
        return count(n)

    return bounded


# Each default admits about a second of work or less, except the
# strong-guillotine table's: its 32 packaged rows take about 15 s cold (14.2 s
# for ``count strong-guillotine 32`` on 2 cores).  ``count weighted-guillotine
# 700`` takes about 0.12 s in-process.
_COUNTS: dict[str, Callable[[int], int]] = {
    "schroder": _bounded(
        lambda n: counting.schroder_counts(n)[-1], "RECTLAB_MAX_SCHRODER_N", 1000
    ),
    "baxter": _bounded(counting.baxter_number, "RECTLAB_MAX_BAXTER_N", 2500),
    "strong": _bounded(walks.count_strong_rect, "RECTLAB_MAX_STRONG_N", 150),
    "u": _bounded(walks.count_U, "RECTLAB_MAX_U_N", 150),
    "o": _bounded(walks.count_O, "RECTLAB_MAX_O_N", 150),
    "strong-guillotine": _bounded(
        counting.strong_guillotine_count, "RECTLAB_MAX_GUILLOTINE_N", 32
    ),
    "weighted-guillotine": _bounded(
        lambda n: counting._integer_term(
            counting.weighted_guillotine_series(2, n), n, "weighted guillotine count"
        ),
        "RECTLAB_MAX_WEIGHTED_GUILLOTINE_N",
        700,
    ),
}


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    _print(str(_COUNTS[args.family](args.n)))
    return 0


def _cmd_flipgraph(args: argparse.Namespace) -> int:
    graph = biject.quotient_cover_graph(args.n, max_n=args.max_n)
    if args.dot:
        _print(graph.to_dot())
    else:
        _print("vertices %d" % len(graph.vertices))
        _print("edges %d" % len(graph.edges))
    return 0


def _cmd_walk_encode(args: argparse.Namespace) -> int:
    pi = perm.parse_permutation(args.perm)
    w = walks.encode_weak(pi) if args.weak else walks.encode_strong(pi)
    _print(walks.walk_to_text(w))
    return 0


def _cmd_walk_decode(args: argparse.Namespace) -> int:
    variant = "weak" if args.weak else "strong"
    w = walks.walk_from_text(_read_text(args.input), variant)
    _print(rect.to_json(walks.decode(w)))
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    gc = counting.growth_constants()
    _print("gamma = %.12f" % gc.gamma)
    _print("gamma_prime = %.12f" % gc.gamma_prime)
    _print("rho0 = %s" % counting.rho(0))
    _print("x0 = %.12f" % gc.x0)
    _print("lower_bound = %.12f" % gc.lower_bound)
    _print("z0_bound_12 = %.12f" % counting.z0_bound(12))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = None if args.suite == "all" else (args.suite,)
    report = verify_fixtures(max_n=args.max_n, suites=suites)
    failures = 0
    for res in report:
        status = "ok  " if res.passed else "FAIL"
        line = "%s  %-38s %7.2fs" % (status, res.name, res.seconds)
        if res.detail and not res.passed:
            line += "  " + res.detail
        _print(line)
        failures += 0 if res.passed else 1
    _print("%d checks, %d failed" % (len(report), failures))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verification check: name, outcome, wall time, failure detail."""

    name: str
    passed: bool
    seconds: float
    detail: str = ""


_RUNNING_PERM = perm.Permutation((7, 5, 14, 8, 1, 6, 15, 11, 4, 10, 16, 2, 9, 13, 3, 12))


def _data_dir() -> Path:
    return Path(__file__).parent / "data"


def _check_perm_counts(max_n: int) -> tuple[bool, str]:
    for n, schroder in enumerate(counting.schroder_counts(min(max_n, 6)), start=1):
        flags = [perm.classify(p) for p in perm.all_permutations(n)]
        if sum("baxter" in f for f in flags) != counting.baxter_number(n):
            return False, "baxter class count mismatch at n=%d" % n
        if sum("separable" in f for f in flags) != schroder:
            return False, "separable class count mismatch at n=%d" % n
    return True, ""


def _check_running_fixture(max_n: int) -> tuple[bool, str]:
    r = biject.gamma_w(_RUNNING_PERM)
    facts = (
        len(r.walls) == 15,
        rect.multiplicity(r) == 1152,
        rect.has_z_wall(r),
        len(rect.find_windmills(r)) == 2,
        not rect.is_guillotine(r),
        rect.is_diagonal(r),
    )
    if not all(facts):
        return False, "fixture fact vector %r" % (facts,)
    rs = biject.gamma_s(_RUNNING_PERM)
    w = walks.encode_strong(_RUNNING_PERM)
    if walks.decode(w) != rs:
        return False, "walk round trip broke on the running permutation"
    if biject.baxter_representative(r) != perm.Permutation(
        (7, 14, 15, 16, 8, 5, 6, 1, 4, 11, 10, 9, 2, 3, 13, 12)
    ):
        return False, "SW-NE reading mismatch"
    return True, ""


def _check_json_round_trip(max_n: int) -> tuple[bool, str]:
    """Revalidate built drawings: each image and its ``reflect_swne``, read
    back through the validating ``from_json``, has the same boxes, walls
    and labelings."""
    labelings = (rect.nwse_labeling, rect.swne_labeling)
    for pi in perm.all_permutations(min(max_n, 4)):
        for gamma in (biject.gamma_s, biject.gamma_w):
            image, name = gamma(pi), "%s(%s)" % (gamma.__name__, pi)
            reflected = ("reflect_swne(%s)" % name, biject.reflect_swne(image))
            for what, r in ((name, image), reflected):
                back = rect.from_json(rect.to_json(r))
                if (back.boxes, back.walls) != (r.boxes, r.walls) or any(
                    f(back) != f(r) for f in labelings
                ):
                    return False, "%s differs from its JSON copy" % what
    return True, ""


def _check_weak_counts(max_n: int) -> tuple[bool, str]:
    for n in range(1, max_n + 1):
        images = {biject.gamma_w(pi) for pi in perm.all_permutations(n)}
        if len(images) != counting.baxter_number(n):
            return False, "weak class count mismatch at n=%d" % n
    return True, ""


def _check_strong_counts(max_n: int) -> tuple[bool, str]:
    counts = walks._excursion_counts(max_n, **walks._STRONG)
    for n in range(1, max_n + 1):
        keys = {rect.strong_key(biject.gamma_s(pi)) for pi in perm.all_permutations(n)}
        if len(keys) != counts[n - 1]:
            return False, "strong class count mismatch at n=%d" % n
    return True, ""


def _check_fibers(max_n: int) -> tuple[bool, str]:
    for n in range(2, min(max_n, 5) + 1):
        perms = set(perm.all_permutations(n))
        reps = {biject.gamma_w(pi) for pi in perms}
        covered: set[perm.Permutation] = set()
        for r in reps:
            fiber = set(biject.fiber_w(r))
            if fiber & covered:
                return False, "weak fibers overlap at n=%d" % n
            covered |= fiber
        if covered != perms:
            return False, "weak fibers do not cover S_%d" % n
    return True, ""


def _check_flips(max_n: int) -> tuple[bool, str]:
    n = min(max_n, 4)
    graph = biject.quotient_cover_graph(n, max_n=n)
    for v in graph.vertices:
        got = {rect.strong_key(r2) for _, r2 in biject.flips(biject.gamma_s(v))}
        if got != set(graph.neighbors(v)):
            return False, "flip neighborhood mismatch at %s" % (v,)
    return True, ""


def _check_walk_round_trip(max_n: int) -> tuple[bool, str]:
    for n in range(1, min(max_n, 5) + 1):
        for pi in perm.all_permutations(n):
            if walks.decode(walks.encode_strong(pi)) != biject.gamma_s(pi):
                return False, "strong round trip failed for %s" % (pi,)
            if walks.decode(walks.encode_weak(pi)) != biject.gamma_w(pi):
                return False, "weak round trip failed for %s" % (pi,)
    return True, ""


def _check_u_o_sequences(max_n: int, data_dir: Path) -> tuple[bool, str]:
    data = json.loads((data_dir / "oeis.json").read_text())
    N = max(len(entry["terms"]) for entry in data.values())
    for name, counts in (
        ("strong_leftright", walks._excursion_counts(N, **walks._U)),
        ("one_sided", walks._excursion_counts(N, **walks._O)),
        ("strong_rect", walks._excursion_counts(N, **walks._STRONG)),
    ):
        for n, want in enumerate(data[name]["terms"], start=1):
            if counts[n - 1] != want:
                return False, "%s mismatch at n=%d" % (name, n)
    return True, ""


def _check_nit(max_n: int) -> tuple[bool, str]:
    for n in range(1, 13):
        if walks.nit_count(n) != counting.baxter_number(n):
            return False, "path-triple count mismatch at n=%d" % n
    return True, ""


def _check_leftmost_pin(max_n: int) -> tuple[bool, str]:
    key_walks = {
        walks.encode_strong(rect.strong_key(biject.gamma_s(pi))).points
        for pi in perm.all_permutations(5)
    }
    lm = {w.points for w in walks.closed_excursions(5) if walks.is_leftmost(w)}
    want = walks._excursion_counts(5, **walks._STRONG)[-1]
    if len(lm) != want:
        return False, "leftmost excursion count %d != %d" % (len(lm), want)
    if lm != key_walks:
        return False, "leftmost walks are not the key encodings"
    return True, ""


def _check_guillotine_table(max_n: int, data_dir: Path) -> tuple[bool, str]:
    path = data_dir / "strong_guillotine_table.txt"
    rows: dict[int, int] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a, b = line.split()
        rows[int(a)] = int(b)
    if sorted(rows) != list(range(1, 33)):
        return False, "table must list sizes 1..32"
    if any(rows[n] >= rows[n + 1] for n in range(1, 32)):
        return False, "table values must increase"
    table = counting.strong_guillotine_table(23)
    for n in range(1, 24):
        if table.total(n) != rows[n]:
            return False, "recurrence disagrees with table at n=%d" % n
    return True, ""


def _check_schroder_closed_form(max_n: int) -> tuple[bool, str]:
    N = 12
    x = counting.Series.x(N)
    one = counting.Series.constant(1, N)
    closed = (one - x - (one - x.scale(6) + x * x).sqrt()).scale(Fraction(1, 2))
    if closed != counting.schroder_series(N):
        return False, "fixed point disagrees with closed form"
    return True, ""


def _check_weighted_y2(max_n: int) -> tuple[bool, str]:
    N = 20
    x = counting.Series.x(N)
    one = counting.Series.constant(1, N)
    inner = (
        one
        - x.scale(6)
        - (x * x).scale(5)
        + (x * x * x).scale(2)
        + (x * x) * (x * x)
    )
    num = one + x - x * x - inner.sqrt()
    den = (counting.Series.constant(2, N) - x).scale(2)
    if num * den.inverse() != counting.weighted_guillotine_series(2, N):
        return False, "weighted series disagrees with closed form at y=2"
    return True, ""


def _check_constants(max_n: int) -> tuple[bool, str]:
    gc = counting.growth_constants()
    checks = (
        abs(gc.gamma - (9 + math.sqrt(113)) / 2) < 1e-9,
        abs(gc.gamma_prime - (7 + math.sqrt(17)) / 2) < 1e-9,
        counting.rho(0) == Fraction(2, 27),
        abs(counting._small_windmill_poly(gc.x0)) < 1e-6,
        gc.lower_bound < counting.z0_bound(12),  # cited, not derived: below the upper bound
    )
    if not all(checks):
        return False, "constant check vector %r" % (checks,)
    return True, ""


def _check_oeis(max_n: int, data_dir: Path) -> tuple[bool, str]:
    # The walk-count entries are checked by walks/u-o-strong-sequences alone.
    data = json.loads((data_dir / "oeis.json").read_text())
    schroder = counting.schroder_counts(10)
    if data["schroder"]["terms"] != schroder:
        return False, "schroder terms"
    if data["baxter"]["terms"] != [counting.baxter_number(n) for n in range(1, 11)]:
        return False, "baxter terms"
    half = data["half_schroder"]["terms"]
    # H = (G - x)/2; terms[n-1] is the x^n coefficient of H for n >= 2
    for n in range(2, 11):
        if schroder[n - 1] != 2 * half[n - 1]:
            return False, "half_schroder terms at n=%d" % n
    return True, ""


# A check registered with a third field ``_DATA`` is called with the data
# directory after ``max_n``.
_DATA = "data"

_SUITES: dict[str, tuple[tuple, ...]] = {
    "perm": (
        ("perm/class-counts", _check_perm_counts),
    ),
    "rect": (
        ("rect/running-fixture", _check_running_fixture),
        ("rect/json-round-trip", _check_json_round_trip),
    ),
    "biject": (
        ("biject/weak-class-counts", _check_weak_counts),
        ("biject/strong-class-counts", _check_strong_counts),
        ("biject/fibers-partition", _check_fibers),
        ("biject/flip-neighborhoods", _check_flips),
    ),
    "walks": (
        ("walks/round-trip", _check_walk_round_trip),
        ("walks/u-o-strong-sequences", _check_u_o_sequences, _DATA),
        ("walks/path-triples-baxter", _check_nit),
        ("walks/leftmost-pin", _check_leftmost_pin),
    ),
    "counting": (
        ("counting/guillotine-table", _check_guillotine_table, _DATA),
        ("counting/schroder-closed-form", _check_schroder_closed_form),
        ("counting/weighted-y2-closed-form", _check_weighted_y2),
        ("counting/growth-constants", _check_constants),
        ("counting/oeis-terms", _check_oeis, _DATA),
    ),
}


def verify_fixtures(
    max_n: int | None = None,
    suites: tuple[str, ...] | None = None,
    data_dir: Path | None = None,
) -> list[CheckResult]:
    """Run the packaged verification checks and report results.

    Failures are reported, never raised; every check carries its wall time.
    ``max_n`` bounds the exhaustive sweeps (default: the RECTLAB_MAX_N
    environment variable, itself defaulting to 6).  A bound below 1 or an
    unknown suite raises ``ValueError`` before any check runs.
    """
    bound = biject._default_max_n() if max_n is None else max_n
    if bound < 1:
        source = "RECTLAB_MAX_N" if max_n is None else "max_n"
        raise ValueError("%s must be >= 1, got %d" % (source, bound))
    directory = _data_dir() if data_dir is None else data_dir
    chosen = tuple(_SUITES) if suites is None else suites
    for name in chosen:
        if name not in _SUITES:
            raise ValueError("unknown suite %r (have %s)" % (name, ", ".join(_SUITES)))
    report: list[CheckResult] = []
    for suite in chosen:
        for name, fn, *flags in _SUITES[suite]:
            args = (bound, directory) if _DATA in flags else (bound,)
            start = time.perf_counter()
            try:
                passed, detail = fn(*args)
            except Exception as exc:  # deliberate: failures are data here
                passed, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
            report.append(
                CheckResult(name, passed, time.perf_counter() - start, detail)
            )
    return report


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_variant_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weak", action="store_true", help="weak variant")
    group.add_argument("--strong", action="store_true", help="strong variant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectlab",
        description="Permutations, rectangulations, walks and exact counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="build the rectangulation of a permutation")
    _add_variant_flags(p)
    p.add_argument("perm", help='one-line notation, e.g. "2 4 1 3"')
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--ascii", action="store_true", help="ASCII art instead of JSON")
    fmt.add_argument("--svg", action="store_true", help="SVG instead of JSON")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("fiber", help="list the permutations mapping to a rectangulation")
    _add_variant_flags(p)
    p.add_argument("rect", help='rectangulation JSON file ("-" = stdin)')
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("key", help="canonical permutation of a rectangulation's class")
    _add_variant_flags(p)
    p.add_argument("rect", help='rectangulation JSON file ("-" = stdin)')
    p.set_defaults(func=_cmd_key)

    p = sub.add_parser("classify", help="pattern-class membership flags")
    p.add_argument("perm", help='one-line notation, e.g. "2 4 1 3"')
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("count", help="exact counts of the supported families")
    p.add_argument("family", choices=tuple(_COUNTS))
    p.add_argument("n", type=_size)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("flipgraph", help="quotient cover graph of the strong classes")
    p.add_argument("n", type=_size)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.add_argument("--max-n", type=_size, default=None, help="override the sweep bound")
    p.set_defaults(func=_cmd_flipgraph)

    p = sub.add_parser("walk", help="encode/decode insertion-history walks")
    wsub = p.add_subparsers(dest="action", required=True)
    w = wsub.add_parser("encode", help="permutation -> walk text")
    _add_variant_flags(w)
    w.add_argument("perm", help='one-line notation, e.g. "2 4 1 3"')
    w.set_defaults(func=_cmd_walk_encode)
    w = wsub.add_parser("decode", help="walk text -> rectangulation JSON")
    _add_variant_flags(w)
    w.add_argument(
        "input",
        nargs="?",
        default="-",
        help='walk text file ("-" = stdin, default)',
    )
    w.set_defaults(func=_cmd_walk_decode)

    p = sub.add_parser("verify", help="run the packaged verification sweeps")
    p.add_argument("suite", choices=("all",) + tuple(sorted(_SUITES)))
    p.add_argument("--max-n", type=_size, default=None, help="bound exhaustive sweeps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("constants", help="print the growth constants")
    p.set_defaults(func=_cmd_constants)

    return parser


# The parser of this process, built by the first :func:`run`.
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code.

    Every call in a process shares one parser: parsing leaves it unchanged,
    and rebuilding its dozen subparsers would cost more than most requests.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        code = exc.code
        return code if isinstance(code, int) else 2
    except _SizeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, rect.RectangulationError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
