"""Command-line interface: argument handling, output formats, exit codes,
and the packaged verification sweeps."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brick
from rectlab import biject, cli, counting
from rectlab.cli import run, verify_fixtures
from rectlab.perm import Permutation, parse_permutation
from rectlab.rect import from_json, strong_key, to_json
from rectlab.walks import encode_strong, walk_from_text, walk_to_text

DATA_DIR = Path(cli.__file__).parent / "data"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["count", "baxter", "4"]) == 0
        assert out_of(capsys) == "22\n"

    def test_validation_failure(self, capsys):
        assert run(["map", "--weak", "1 1 2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert run(["no-such-command"]) == 2
        assert run([]) == 2
        assert run(["map", "1 2"]) == 2  # missing required variant flag
        assert run(["map", "--weak", "--strong", "1 2"]) == 2  # exclusive
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert run(["key", "--weak", "/nonexistent/path.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_count_rejects_nonpositive(self, capsys):
        assert run(["count", "baxter", "0"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "u", "1_0"],
            ["count", "u", "\u0663"],
            ["flipgraph", "3", "--max-n", "+1_0"],
            ["verify", "counting", "--max-n", " 3"],
            ["count", "u", "--", "-1_0"],
        ],
    )
    def test_sizes_parse_exactly(self, capsys, argv):
        # int() would read 10, 3, 10, 3 and -10; a size is an ASCII numeral
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "",
            "error: expected a size, a decimal numeral [0-9]+, got %r\n" % argv[-1],
        )

    @pytest.mark.parametrize(
        "family, series, quantity",
        [
            ("schroder", "schroder_series", "Schroder count"),
            ("weighted-guillotine", "weighted_guillotine_series", "weighted guillotine count"),
        ],
    )
    def test_count_names_non_integer_coefficient(
        self, capsys, monkeypatch, family, series, quantity
    ):
        bad = counting.Series((Fraction(0), Fraction(1), Fraction(5, 2)))
        monkeypatch.setattr(counting, series, lambda *args: bad)
        assert run(["count", family, "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s 5/2 at n=2 is not an integer\n" % quantity


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------


class TestSharedParser:
    def test_one_build_across_requests(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser

        def spy():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", spy)
        assert run(["count", "baxter", "4"]) == 0
        assert run(["classify", "2 4 1 3"]) == 0
        assert run(["no-such-command"]) == 2
        assert run(["map", "--weak", "1 2"]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_usage_error_and_help_leave_the_next_request_unchanged(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_parser", None)
        request = ["map", "--strong", "--ascii", "2 4 1 3"]
        assert run(request) == 0
        first = capsys.readouterr().out
        assert run(["map", "--weak", "--strong", "1 2"]) == 2
        assert run(["--help"]) == 0
        assert run(["walk", "decode", "--help"]) == 0
        capsys.readouterr()
        assert run(request) == 0
        assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------


class TestMap:
    def test_json_output_parses(self, capsys):
        assert run(["map", "--weak", "2 4 1 3"]) == 0
        r = from_json(out_of(capsys))
        assert r.n == 4

    def test_strong_vs_weak_differ(self, capsys):
        run(["map", "--weak", "3 1 4 2"])
        weak = out_of(capsys)
        run(["map", "--strong", "3 1 4 2"])
        strong = out_of(capsys)
        assert from_json(weak).n == from_json(strong).n == 4

    def test_ascii(self, capsys):
        assert run(["map", "--weak", "--ascii", "1 2"]) == 0
        art = out_of(capsys)
        assert "+" in art and "1" in art and "2" in art

    def test_svg(self, capsys):
        assert run(["map", "--strong", "--svg", "2 4 1 3"]) == 0
        svg = out_of(capsys)
        assert svg.startswith("<svg") and svg.count("<rect") == 4

    def test_identity_is_vertical_strips(self, capsys):
        run(["map", "--weak", "1 2 3"])
        r = from_json(out_of(capsys))
        boxes = sorted(rr.box for rr in r.rects)
        assert boxes == [(0, 0, 1, 3), (1, 0, 2, 3), (2, 0, 3, 3)]


# ---------------------------------------------------------------------------
# classify / count
# ---------------------------------------------------------------------------


class TestClassify:
    def test_2413(self, capsys):
        assert run(["classify", "2 4 1 3"]) == 0
        flags = out_of(capsys).split()
        assert "separable" not in flags
        assert "baxter" not in flags
        assert flags == [
            "co_twisted_baxter",
            "two_clumped",
            "co_two_clumped",
            "windmill_mesh_avoiding",
        ]

    def test_identity_has_all_flags(self, capsys):
        assert run(["classify", "1 2 3"]) == 0
        assert out_of(capsys).split() == [
            "baxter",
            "twisted_baxter",
            "co_twisted_baxter",
            "separable",
            "two_clumped",
            "co_two_clumped",
            "semi_baxter",
            "windmill_mesh_avoiding",
        ]


class TestCount:
    @pytest.mark.parametrize(
        "family,n,want",
        [
            ("schroder", 5, "90"),
            ("baxter", 6, "422"),
            ("strong", 5, "116"),
            ("u", 5, "112"),
            ("o", 5, "72"),
            ("strong-guillotine", 8, "21434"),
            ("weighted-guillotine", 5, "110"),
        ],
    )
    def test_values(self, capsys, family, n, want):
        assert run(["count", family, str(n)]) == 0
        assert out_of(capsys) == want + "\n"

    def test_unknown_family(self, capsys):
        assert run(["count", "fibonacci", "5"]) == 2
        capsys.readouterr()

    def test_strong_guillotine_size_is_bounded(self, capsys, monkeypatch):
        assert run(["count", "strong-guillotine", "100000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: size 100000 exceeds the bound 32 "
            "(raise RECTLAB_MAX_GUILLOTINE_N)\n"
        )
        monkeypatch.setenv("RECTLAB_MAX_GUILLOTINE_N", "4")
        assert run(["count", "strong-guillotine", "5"]) == 1
        assert "bound 4 " in capsys.readouterr().err
        assert run(["count", "strong-guillotine", "4"]) == 0
        assert out_of(capsys) == "24\n"

    @pytest.mark.parametrize(
        "family,variable,default",
        [
            ("schroder", "RECTLAB_MAX_SCHRODER_N", 1000),
            ("baxter", "RECTLAB_MAX_BAXTER_N", 2500),
            ("strong", "RECTLAB_MAX_STRONG_N", 150),
            ("u", "RECTLAB_MAX_U_N", 150),
            ("o", "RECTLAB_MAX_O_N", 150),
            ("weighted-guillotine", "RECTLAB_MAX_WEIGHTED_GUILLOTINE_N", 700),
        ],
    )
    def test_every_family_is_bounded(self, capsys, monkeypatch, family, variable, default):
        # the bound is checked before any work, so a huge n fails at once
        monkeypatch.setenv(variable, "3")
        assert run(["count", family, "4"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: size 4 exceeds the bound 3 (raise %s)\n" % variable,
        )
        assert run(["count", family, "3"]) == 0
        capsys.readouterr()
        monkeypatch.delenv(variable)
        assert run(["count", family, "100000"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: size 100000 exceeds the bound %d (raise %s)\n" % (default, variable),
        )

    def test_non_integer_guillotine_bound_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RECTLAB_MAX_GUILLOTINE_N", "abc")
        assert run(["count", "strong-guillotine", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == (
            "error: RECTLAB_MAX_GUILLOTINE_N must be an integer, got 'abc'\n"
        )

    @pytest.mark.parametrize("raw", ["-3", "+7", "1_0", "٣", " 7"])
    @pytest.mark.parametrize(
        "argv,variable",
        [(["count", "u", "5"], "RECTLAB_MAX_U_N"), (["flipgraph", "3"], "RECTLAB_MAX_N")],
    )
    def test_bound_must_be_a_decimal_numeral(self, capsys, monkeypatch, raw, argv, variable):
        # int() would read these as -3, 7, 10, 3 and 7
        monkeypatch.setenv(variable, raw)
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "",
            "error: %s must be an integer, got %r\n" % (variable, raw),
        )


# ---------------------------------------------------------------------------
# fiber / key: JSON files and stdin
# ---------------------------------------------------------------------------


class TestFiberAndKey:
    @pytest.fixture
    def rect_file(self, tmp_path, capsys):
        run(["map", "--strong", "3 1 4 2"])
        path = tmp_path / "r.json"
        path.write_text(out_of(capsys))
        return path

    def test_fiber_lists_permutations(self, capsys, rect_file):
        assert run(["fiber", "--strong", str(rect_file)]) == 0
        lines = out_of(capsys).splitlines()
        assert "3 1 4 2" in lines
        pis = [parse_permutation(l) for l in lines]
        assert len(set(pis)) == len(pis)

    def test_weak_fiber_contains_strong_fiber(self, capsys, rect_file):
        run(["fiber", "--strong", str(rect_file)])
        strong = set(out_of(capsys).splitlines())
        run(["fiber", "--weak", str(rect_file)])
        weak = set(out_of(capsys).splitlines())
        assert strong <= weak

    def test_key(self, capsys, rect_file):
        assert run(["key", "--strong", str(rect_file)]) == 0
        key_line = out_of(capsys).strip()
        run(["fiber", "--strong", str(rect_file)])
        assert key_line == out_of(capsys).splitlines()[0]

    def test_stdin_dash(self, capsys, monkeypatch, rect_file):
        monkeypatch.setattr("sys.stdin", io.StringIO(rect_file.read_text()))
        assert run(["key", "--weak", "-"]) == 0
        assert out_of(capsys).strip()

    @pytest.mark.parametrize("variant", ["--weak", "--strong"])
    def test_fiber_of_1200_strips(self, capsys, tmp_path, variant):
        # a 1200-chain: extension search and counting must not recurse
        identity = " ".join(str(i) for i in range(1, 1201))
        run(["map", "--strong", identity])
        path = tmp_path / "strips.json"
        path.write_text(out_of(capsys))
        assert run(["fiber", variant, str(path)]) == 0
        assert out_of(capsys) == identity + "\n"

    def test_key_of_a_brick_under_a_memory_limit(self, tmp_path):
        # one segment with 10001 and 10000 staggered boxes on its sides
        # (1.2 MB of JSON): a pass over the product of the sides needs
        # gigabytes, one merge along the wall about 40 MiB; the child's
        # address space is capped so that a regression fails, not the host
        path = tmp_path / "brick.json"
        path.write_text(to_json(brick(10000)))
        limit = 512 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "rectlab.cli", "key", "--strong", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert len(parse_permutation(proc.stdout)) == 20001

    def test_map_key_map_preserves_class(self, capsys, tmp_path):
        run(["map", "--strong", "2 4 1 3"])
        first = out_of(capsys)
        p = tmp_path / "a.json"
        p.write_text(first)
        run(["key", "--strong", str(p)])
        key_line = out_of(capsys).strip()
        run(["map", "--strong", key_line])
        second = out_of(capsys)
        assert strong_key(from_json(first)) == strong_key(from_json(second))


def _tamper_first_x2(doc):
    rect = next(q for q in doc["rects"] if q["x2"] == 1)
    rect["x2"] = 1.4  # int() would truncate this back to the original drawing


class TestInexactJson:
    """Fields must be exact JSON integers: no truncation, no bools, no leaks."""

    @pytest.mark.parametrize(
        "tamper, field",
        [
            (_tamper_first_x2, "x2"),
            (lambda doc: doc["rects"][0].update(label=True), "label"),
            (lambda doc: doc.update(n=4.9), "n"),
            (lambda doc: doc.update(rects=5), "rects"),
        ],
    )
    def test_key_rejects(self, capsys, tmp_path, tamper, field):
        run(["map", "--strong", "2 4 1 3"])
        doc = json.loads(out_of(capsys))
        tamper(doc)
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert run(["key", "--strong", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert '"%s"' % field in err

    def test_key_rejects_deep_nesting(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["key", "--strong", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err


class TestMaxNEnvironment:
    def test_non_integer_bound_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RECTLAB_MAX_N", "abc")
        assert run(["flipgraph", "3"]) == 1
        assert "RECTLAB_MAX_N" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# walk encode/decode
# ---------------------------------------------------------------------------


class TestWalk:
    def test_encode(self, capsys):
        assert run(["walk", "encode", "--strong", "2 4 1 3"]) == 0
        assert out_of(capsys) == "0 0 black\n1 0 red\n0 1 white\n0 0 white\n"

    def test_encode_decode_pipe(self, capsys, monkeypatch):
        run(["walk", "encode", "--weak", "3 1 4 2"])
        walk_text = out_of(capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(walk_text))
        assert run(["walk", "decode", "--weak"]) == 0
        decoded = from_json(out_of(capsys))
        run(["map", "--weak", "3 1 4 2"])
        assert decoded == from_json(out_of(capsys))

    def test_decode_from_file(self, capsys, tmp_path):
        run(["walk", "encode", "--strong", "1 2 3"])
        p = tmp_path / "w.txt"
        p.write_text(out_of(capsys))
        assert run(["walk", "decode", "--strong", str(p)]) == 0
        assert from_json(out_of(capsys)).n == 3

    def test_decode_rejects_malformed(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0 chartreuse\n"))
        assert run(["walk", "decode", "--strong"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["0_0 0 white", "0 +0 white", "\u0660 0 white"])
    def test_decode_rejects_inexact_numbers(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0 green\n%s\n" % line))
        assert run(["walk", "decode", "--strong"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: expected a decimal numeral")

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--strong", "2 +1"],
            ["classify", "1_0 2"],
            ["walk", "encode", "--weak", "2 \u0661"],
        ],
    )
    def test_permutation_arguments_are_ascii_numerals(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: permutation entry" in captured.err


# ---------------------------------------------------------------------------
# flipgraph / constants
# ---------------------------------------------------------------------------


class TestFlipgraph:
    def test_summary(self, capsys):
        assert run(["flipgraph", "4"]) == 0
        assert out_of(capsys) == "vertices 24\nedges 36\n"

    def test_dot(self, capsys):
        assert run(["flipgraph", "3", "--dot"]) == 0
        dot = out_of(capsys)
        assert dot.startswith("graph quotient {")
        assert dot.rstrip().endswith("}")
        assert '"1 2 3"' in dot

    def test_bound_guard(self, capsys):
        assert run(["flipgraph", "9"]) == 1
        assert run(["flipgraph", "7", "--max-n", "7"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["0"], ["--", "-1"]])
    def test_sizes_below_one(self, capsys, argv):
        assert run(["flipgraph", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"


class TestConstants:
    def test_deterministic(self, capsys):
        assert run(["constants"]) == 0
        first = out_of(capsys)
        assert run(["constants"]) == 0
        assert out_of(capsys) == first

    def test_contents(self, capsys):
        run(["constants"])
        text = out_of(capsys)
        assert "gamma = 9.815072906367" in text
        assert "gamma_prime = 5.561552812809" in text
        assert "rho0 = 2/27" in text
        assert "x0 = 13.154940757637" in text
        assert "lower_bound = 6.698532234455" in text
        assert "z0_bound_12 = 13.080879635870" in text


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


class TestVerifyFixtures:
    def test_all_pass_small_bound(self):
        report = verify_fixtures(max_n=4)
        assert len(report) == 16
        assert all(r.passed for r in report), [
            (r.name, r.detail) for r in report if not r.passed
        ]
        assert all(r.seconds >= 0 for r in report)

    def test_suite_selection(self):
        report = verify_fixtures(max_n=4, suites=("perm",))
        assert report and all(r.name.startswith("perm/") for r in report)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_fixtures(suites=("nonsense",))

    def test_tampered_table_detected(self, tmp_path):
        for f in DATA_DIR.iterdir():
            shutil.copy(f, tmp_path / f.name)
        table = tmp_path / "strong_guillotine_table.txt"
        lines = table.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("8 "):
                lines[i] = "8 21435"  # off by one
        table.write_text("\n".join(lines) + "\n")
        report = verify_fixtures(max_n=4, data_dir=tmp_path)
        by_name = {r.name: r for r in report}
        assert not by_name["counting/guillotine-table"].passed
        others = [r for r in report if r.name != "counting/guillotine-table"]
        assert all(r.passed for r in others)

    def test_tampered_u_terms_detected(self, tmp_path):
        for f in DATA_DIR.iterdir():
            shutil.copy(f, tmp_path / f.name)
        path = tmp_path / "oeis.json"
        data = json.loads(path.read_text())
        data["strong_leftright"]["terms"][7] += 1
        path.write_text(json.dumps(data))
        report = verify_fixtures(max_n=4, suites=("walks",), data_dir=tmp_path)
        by_name = {r.name: r for r in report}
        failed = by_name["walks/u-o-strong-sequences"]
        assert not failed.passed and failed.detail == "strong_leftright mismatch at n=8"
        assert all(r.passed for r in report if r is not failed)

    def test_tampered_one_sided_term_fails_one_check(self, tmp_path):
        # every oeis.json entry is verified by exactly one check
        for f in DATA_DIR.iterdir():
            shutil.copy(f, tmp_path / f.name)
        path = tmp_path / "oeis.json"
        data = json.loads(path.read_text())
        data["one_sided"]["terms"][5] += 1
        path.write_text(json.dumps(data))
        report = verify_fixtures(max_n=4, data_dir=tmp_path)
        assert len(report) == 16
        failed = [r for r in report if not r.passed]
        assert [(r.name, r.detail) for r in failed] == [
            ("walks/u-o-strong-sequences", "one_sided mismatch at n=6")
        ]

    def test_round_trip_reads_reflections_back(self, monkeypatch):
        reflect = biject.reflect_swne

        def missing_segment(r):
            out = reflect(r)
            out.walls = out.walls[:-1]
            return out

        monkeypatch.setattr(biject, "reflect_swne", missing_segment)
        report = verify_fixtures(max_n=4, suites=("rect",))
        assert [(r.name, r.detail) for r in report if not r.passed] == [
            (
                "rect/json-round-trip",
                "reflect_swne(gamma_s(Permutation((1, 2, 3, 4)))) differs from its JSON copy",
            )
        ]

    def test_data_check_is_declared_in_the_registry_alone(self, tmp_path, monkeypatch):
        seen = []

        def data_check(max_n, data_dir):
            seen.append((max_n, data_dir))
            return True, ""

        monkeypatch.setitem(cli._SUITES, "perm", (("perm/data", data_check, cli._DATA),))
        report = verify_fixtures(max_n=4, suites=("perm",), data_dir=tmp_path)
        assert [(r.name, r.passed, r.detail) for r in report] == [("perm/data", True, "")]
        assert seen == [(4, tmp_path)]

    def test_cli_verify_exit_codes(self, capsys, tmp_path, monkeypatch):
        assert run(["verify", "perm", "--max-n", "4"]) == 0
        text = out_of(capsys)
        assert "0 failed" in text
        assert "ok" in text

    def test_cli_verify_reports_failure(self, capsys, monkeypatch):
        import rectlab.cli as c

        def bad_check(max_n):
            return False, "synthetic failure"

        monkeypatch.setitem(
            c._SUITES, "perm", (("perm/broken", bad_check),)
        )
        assert run(["verify", "perm", "--max-n", "4"]) == 1
        text = out_of(capsys)
        assert "FAIL" in text and "synthetic failure" in text


# ---------------------------------------------------------------------------
# Arbitrary text: parse exactly, or fail with a named error and exit 1
# ---------------------------------------------------------------------------


def _drop_line(text, i):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:i] + lines[i + 1 :]) if i >= 0 else text


# Near misses of both formats: numerals in the forms ``int()`` accepts but
# the parsers must not, colors, separators and line breaks.
_PIECES = st.sampled_from([
    "0", "1", "2", "3", "10", "01", "-1", "+1", "1_0", "0x1", "1.0", "1e3",
    "\u0663", "\u00b2", "white", "black", "green", "red", "blue", "WHITE",
    " ", "  ", "\t", "\n", "\r\n", "\x00", "\u2028", "\x0b",
])
_TEXT = st.one_of(
    st.text(),
    st.lists(_PIECES, max_size=40).map("".join),
    # walk-shaped lines: small points in any color, closed or not
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.sampled_from(["white", "black", "green", "red", "blue"]),
        ),
        max_size=8,
    ).map(lambda pts: "".join("%d %d %s\n" % p for p in pts)),
    # the walks of small permutations, whole or with one line dropped
    st.tuples(
        st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.integers(-1, 5),
    ).map(lambda case: _drop_line(walk_to_text(encode_strong(Permutation(case[0]))), case[1])),
)


def _run_text(argv, stdin=""):
    """``run(argv)`` with ``stdin`` as standard input: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code, out, err):
    if code == 0:
        assert err == "" and out
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err, err


@given(_TEXT)
@settings(max_examples=300, deadline=None)
def test_permutation_text_parses_exactly_or_names_the_error(text):
    try:
        pi = parse_permutation(text)
    except ValueError:
        return
    assert list(pi) == [int(t) for t in text.split()]
    assert all(t.isascii() and t.isdigit() for t in text.split())


@given(_TEXT, st.sampled_from(["strong", "weak"]))
@settings(max_examples=300, deadline=None)
def test_walk_text_parses_exactly_or_names_the_error(text, variant):
    try:
        w = walk_from_text(text, variant)
    except ValueError:
        return
    lines = [line.split() for line in text.splitlines() if line.strip()]
    assert walk_to_text(w) == "".join("%s %s %s\n" % (int(x), int(y), c) for x, y, c in lines)


@given(_TEXT)
@settings(max_examples=200, deadline=None)
def test_classify_on_arbitrary_text(text):
    # "--": the text is the permutation even where it looks like an option
    _check_outcome(*_run_text(["classify", "--", text]))


@given(_TEXT, st.sampled_from(["--strong", "--weak"]))
@settings(max_examples=200, deadline=None)
def test_walk_decode_on_arbitrary_text(text, variant):
    _check_outcome(*_run_text(["walk", "decode", variant, "-"], stdin=text))


def _check_outcome_or_usage(code, out, err):
    """As :func:`_check_outcome`, or exit 2 with argparse's usage message."""
    if code == 2:
        assert out == "" and err.startswith("usage: ") and "Traceback" not in err, err
    else:
        _check_outcome(code, out, err)


def _parsed_size(text, parse):
    """The size ``parse`` reads off ``text``, or 0 where it fails: every
    case below keeps it at most 6, so none starts real work."""
    try:
        return parse(text)
    except ValueError:
        return 0


_SMALL_PERMS = st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1)))
_PERM_TEXT = st.one_of(
    _TEXT,
    _SMALL_PERMS.map(lambda p: " ".join(map(str, p))),
).filter(lambda text: _parsed_size(text, lambda t: parse_permutation(t).n) <= 6)
# what ``int`` reads (every size the CLI accepts, and more), in and out of
# range, and near misses
_SIZE_TEXT = st.one_of(
    st.integers(-2, 8).map(str), _PIECES, _TEXT
).filter(lambda text: _parsed_size(text, int) <= 6)
_FIELDS = ("label", "x1", "y1", "x2", "y2")
_DOC_TEXT = st.one_of(
    _TEXT,
    # rects-shaped documents of at most six boxes, fields missing or mistyped
    st.lists(
        st.dictionaries(
            st.sampled_from(_FIELDS),
            st.integers(-1, 4) | st.sampled_from([True, 1.5, "1", None]),
        ),
        max_size=6,
    ).map(lambda rects: json.dumps({"rects": rects})),
    # the JSON of drawings of size at most 6, whole or cut short
    st.tuples(
        _SMALL_PERMS,
        st.sampled_from([biject.gamma_s, biject.gamma_w]),
        st.none() | st.integers(0, 400),
    ).map(lambda case: to_json(case[1](Permutation(case[0])))[: case[2]]),
    # any JSON value
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    ).map(json.dumps),
)


@given(
    _PERM_TEXT,
    st.sampled_from(["--strong", "--weak"]),
    st.sampled_from([[], ["--ascii"], ["--svg"]]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_map_on_arbitrary_text(text, variant, fmt, dashes):
    argv = ["map", variant, *fmt, *(["--"] if dashes else []), text]
    _check_outcome_or_usage(*_run_text(argv))


@given(_DOC_TEXT, st.sampled_from(["key", "fiber"]), st.sampled_from(["--strong", "--weak"]))
@settings(max_examples=200, deadline=None)
def test_key_and_fiber_on_arbitrary_stdin(text, command, variant):
    _check_outcome(*_run_text([command, variant, "-"], stdin=text))


@given(_SIZE_TEXT, st.none() | _SIZE_TEXT, st.booleans())
@settings(max_examples=200, deadline=None)
def test_flipgraph_on_arbitrary_sizes(n, max_n, dot):
    argv = ["flipgraph", n, *(["--dot"] if dot else [])]
    _check_outcome_or_usage(*_run_text(argv + (["--max-n", max_n] if max_n is not None else [])))
