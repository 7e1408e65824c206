"""One cold batch of one workload, in the interpreter this script starts.

``run.py`` launches this script once per sample.  It imports rectlab,
builds the workload's inputs from the seed, times every operation of the
fixed batch, checks every output, and prints one JSON line on stdout.
With ``--trace 1`` it also wraps the public functions of each module in
span recorders before the batch, re-runs the validating constructor on
every drawing afterwards, and writes the spans to ``--spans-out``.
"""

import time

_T_IMPORT = time.perf_counter()
import rectlab  # noqa: E402  (timed: this is cli.import_s)
from rectlab import biject, cli, counting, perm, rect, walks  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import refcheck  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

FORWARD_SIZES = (64, 128, 256)
# The sizes' costs do not overlap, so p50 is the middle of the n=128 group and
# p90 the top of the n=256 group; four per size damp the seed's effect on both.
FORWARD_PER_SIZE = 4
SWEEP_N = 7
INGEST_PER_KIND = 16
# By latency the request kinds run fiber < map < key --strong < walk decode <
# key --weak, with classify spread over all of them.  Two map requests per
# round keep the median request inside the map group, and p90 inside the
# key --weak group, whatever the seed's classify draws.
INGEST_MAPS_PER_ROUND = 2
GUILLOTINE_N = 20


def random_perm(rng, n):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return perm.Permutation(values)


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, written out when the batch ends
# ---------------------------------------------------------------------------


class Tracer:
    """Spans ``[name, start, end, parent, n]`` plus work counts.

    ``wrap`` replaces a module attribute by a recorder, so calls made through
    that attribute, from the benchmark or from inside the library, get a span.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {
            "biject.covers": 0,
            "biject.fiber_members": 0,
            "walks.points": 0,
            "counting.table_entries": 0,
        }
        self.drawings = []
        self.saved = []

    def open(self, name, n=0):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, n]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, n=0):
        rec = self.open(name, n)
        try:
            yield
        finally:
            self.close(rec)

    def wrap(self, module, attr, on_result=None):
        fn = getattr(module, attr)
        name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)

        def traced(*args, **kwargs):
            rec = self.open(name, _size(args[0]) if args else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if on_result is not None:
                on_result(args, result)
            return result

        self.saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, fn in self.saved:
            setattr(module, attr, fn)

    def install(self):
        counts, drawings = self.counts, self.drawings

        def keep_drawing(args, result):
            drawings.append(result)

        def add_covers(args, result):
            counts["biject.covers"] += len(result.covers)

        def add_members(args, result):
            counts["biject.fiber_members"] += len(result)

        def add_encoded(args, result):
            counts["walks.points"] += len(result.points)

        def add_decoded(args, result):
            counts["walks.points"] += len(args[0].points)
            drawings.append(result)

        for attr in ("parse_permutation", "classify"):
            self.wrap(perm, attr)
        self.wrap(rect, "from_json", keep_drawing)
        for attr in ("to_json", "render", "strong_key", "weak_key"):
            self.wrap(rect, attr)
        self.wrap(biject, "gamma_s", keep_drawing)
        self.wrap(biject, "gamma_w", keep_drawing)
        for attr in ("strong_poset", "weak_poset"):
            self.wrap(biject, attr, add_covers)
        self.wrap(biject, "leftmost_extension")
        self.wrap(biject, "fiber_s", add_members)
        self.wrap(biject, "fiber_w", add_members)
        self.wrap(walks, "encode_strong", add_encoded)
        self.wrap(walks, "decode_strong", add_decoded)
        for attr in ("decode", "walk_from_text", "count_strong_rect",
                     "count_weak_rect", "count_U", "count_O"):
            self.wrap(walks, attr)
        for attr in ("weighted_guillotine_series", "schroder_series"):
            self.wrap(counting, attr)

    def revalidate(self):
        """Time the public validating constructor on every drawing made."""
        for r in self.drawings:
            with self.span("rect.Rectangulation", r.n):
                rect.Rectangulation(r.rects)

    def self_times(self):
        """``(name, n, self_seconds)`` per span: duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, n in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, n, end - start - child[i])
            for i, (name, start, end, parent, n) in enumerate(self.spans)
        ]


def _size(arg):
    return arg if isinstance(arg, int) else getattr(arg, "n", 0)


# ---------------------------------------------------------------------------
# Workloads: make(rng, workdir, tracer) -> (ops, check).  Each op is a thunk;
# check(outputs) -> one bool per op, where a raised op's output is None.
# ---------------------------------------------------------------------------


def make_forward(rng, workdir, tracer):
    sizes = [n for n in FORWARD_SIZES for _ in range(FORWARD_PER_SIZE)]
    rng.shuffle(sizes)
    perms = [random_perm(rng, n) for n in sizes]

    def op(pi):
        rs = biject.gamma_s(pi)
        ks = rect.strong_key(rs)
        rw = biject.gamma_w(pi)
        kw = rect.weak_key(rw)
        w = walks.encode_strong(pi)
        back = walks.decode_strong(w)
        text = rect.to_json(rs)
        return rs, ks, rw, kw, back, text

    def check_one(pi, out):
        if out is None:
            return False
        rs, ks, rw, kw, back, text = out
        data = json.loads(text)
        return (
            back == rs
            and tuple(ks) <= tuple(pi)
            and tuple(kw) <= tuple(pi)
            and rect.strong_key(biject.gamma_s(ks)) == ks
            and rect.weak_key(biject.gamma_w(kw)) == kw
            and rect.is_diagonal(rw)
            and data["n"] == pi.n
            and len(data["rects"]) == pi.n
        )

    def check(outs):
        return [check_one(pi, out) for pi, out in zip(perms, outs)]

    return [lambda pi=pi: op(pi) for pi in perms], check


def make_sweep(rng, workdir, tracer):
    perms = list(perm.all_permutations(SWEEP_N))
    rng.shuffle(perms)

    def op(pi):
        return rect.strong_key(biject.gamma_s(pi)), biject.gamma_w(pi)

    def check(outs):
        if None in outs:
            return [False] * len(outs)
        key_of = {pi: out[0] for pi, out in zip(perms, outs)}
        ok = [
            tuple(k) <= tuple(pi) and key_of.get(k) == k and rect.is_diagonal(rw)
            for pi, (k, rw) in zip(perms, outs)
        ]
        batch_ok = (
            len(perms) == 5040
            and len(set(key_of.values())) == REFERENCE["sweep_distinct_strong_keys"]
            and len({rw for _, rw in outs}) == REFERENCE["sweep_distinct_weak_images"]
            == counting.baxter_number(SWEEP_N)
        )
        return ok if batch_ok else [False] * len(ok)

    return [lambda pi=pi: op(pi) for pi in perms], check


_SVG_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)"')


def make_ingest(rng, workdir, tracer):
    """CLI requests with their input files; expectations use a second route."""
    requests = []  # (argv, checker(stdout) -> bool)

    def one_line(pi):
        return " ".join(map(str, pi))

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    def parse_perms(out):
        return [perm.Permutation(int(v) for v in line.split()) for line in out.splitlines()]

    for i in range(INGEST_PER_KIND):
        pi = random_perm(rng, 48)
        path = write("key-s-%d.json" % i, rect.to_json(biject.gamma_s(pi)))
        requests.append((
            ["key", "--strong", path],
            lambda out, pi=pi: biject.gamma_s(parse_perms(out)[0]) == biject.gamma_s(pi),
        ))
        pi = random_perm(rng, 48)
        path = write("key-w-%d.json" % i, rect.to_json(biject.gamma_s(pi)))
        requests.append((
            ["key", "--weak", path],
            lambda out, pi=pi: biject.gamma_w(parse_perms(out)[0]) == biject.gamma_w(pi),
        ))
        for variant, image in (("strong", biject.gamma_s), ("weak", biject.gamma_w)):
            pi = random_perm(rng, 9)
            path = write("fiber-%s-%d.json" % (variant, i), rect.to_json(biject.gamma_s(pi)))

            def fiber_ok(out, pi=pi, image=image):
                members = parse_perms(out)
                target = image(pi)
                return (
                    pi in members
                    and all(a < b for a, b in zip(members, members[1:]))
                    and all(image(m) == target for m in members)
                )

            requests.append((["fiber", "--" + variant, path], fiber_ok))
        pi = random_perm(rng, 32)
        requests.append((
            ["classify", one_line(pi)],
            lambda out, pi=pi: refcheck.flags_ok(pi, out.splitlines(), perm.CLASS_FLAGS),
        ))
        pi = random_perm(rng, 48)
        path = write("walk-%d.txt" % i, walks.walk_to_text(walks.encode_strong(pi)))
        requests.append((
            ["walk", "decode", "--strong", path],
            lambda out, pi=pi: out == rect.to_json(biject.gamma_s(pi)) + "\n",
        ))
        for _ in range(INGEST_MAPS_PER_ROUND):
            pi = random_perm(rng, 32)

            def svg_ok(out, pi=pi):
                r = biject.gamma_s(pi)
                boxes = sorted(tuple(int(v) for v in m) for m in _SVG_RECT.findall(out))
                want = sorted(
                    (q.x1 * 40, q.y1 * 40, (q.x2 - q.x1) * 40, (q.y2 - q.y1) * 40)
                    for q in r.rects
                )
                return out.startswith("<svg") and boxes == want

            requests.append((["map", "--strong", "--svg", one_line(pi)], svg_ok))
    rng.shuffle(requests)

    def op(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.span("cli.run"):
                    code = cli.run(argv)
        return code, out.getvalue()

    def check(outs):
        return [
            result is not None and result[0] == 0 and checker(result[1])
            for (argv, checker), result in zip(requests, outs)
        ]

    return [lambda argv=argv: op(argv) for argv, _ in requests], check


def _packaged_guillotine_rows():
    path = Path(rectlab.__file__).parent / "data" / "strong_guillotine_table.txt"
    rows = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            n, value = line.split()
            rows[int(n)] = int(value)
    return rows


def make_counting(rng, workdir, tracer):
    def guillotine():
        table = counting.CountTable()
        if tracer is None:
            table.extend_to(GUILLOTINE_N)
        else:
            for m in range(2, GUILLOTINE_N + 1):
                with tracer.span("counting.CountTable.extend_to", m):
                    table.extend_to(m)
        return table

    battery = [
        ("count_strong_rect", lambda: walks.count_strong_rect(40)),
        ("count_weak_rect", lambda: walks.count_weak_rect(40)),
        ("count_U", lambda: walks.count_U(80)),
        ("count_O", lambda: walks.count_O(80)),
        ("guillotine", guillotine),
        ("weighted", lambda: counting.weighted_guillotine_series(2, 40)),
        ("schroder", lambda: counting.schroder_series(60)),
    ]
    rng.shuffle(battery)

    def check_one(name, value):
        if name == "count_strong_rect":
            return value == int(REFERENCE["count_strong_rect_40"])
        if name == "count_weak_rect":
            return value == counting.baxter_number(40) == walks.nit_count(40)
        if name in ("count_U", "count_O"):
            return value == int(REFERENCE["%s_80" % name])
        if name == "guillotine":
            rows = _packaged_guillotine_rows()
            if tracer is not None:
                tracer.counts["counting.table_entries"] = len(value.layer(GUILLOTINE_N))
            return (
                all(value.total(n) == rows[n] for n in range(1, GUILLOTINE_N + 1))
                and len(value.layer(GUILLOTINE_N)) == REFERENCE["table_entries_20"]
            )
        if name == "weighted":
            want = [int(v) for v in REFERENCE["weighted_guillotine_y2_1_40"]]
            return [value.coefficient(k) for k in range(1, 41)] == want
        return [value.coefficient(k) for k in range(1, 61)] == refcheck.large_schroder(60)

    def check(outs):
        return [
            value is not None and check_one(name, value)
            for (name, _), value in zip(battery, outs)
        ]

    return [fn for _, fn in battery], check


WORKLOADS = {
    "forward": make_forward,
    "sweep": make_sweep,
    "ingest": make_ingest,
    "counting": make_counting,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


# span name -> per-layer metric fed by the span's self time
SPAN_METRIC = {
    "perm.classify": "perm.classify_ms",
    "rect.Rectangulation": "rect.validate_ms",
    "rect.from_json": "rect.from_json_ms",
    "rect.to_json": "rect.to_json_ms",
    "rect.render": "rect.render_ms",
    "biject.strong_poset": "biject.strong_poset_ms",
    "biject.weak_poset": "biject.weak_poset_ms",
    "biject.leftmost_extension": "biject.extension_ms",
    "biject.fiber_s": "biject.fiber_ms",
    "biject.fiber_w": "biject.fiber_ms",
    "walks.encode_strong": "walks.encode_ms",
    "walks.decode_strong": "walks.decode_ms",
    "walks.count_strong_rect": "walks.count_strong_s",
    "walks.count_weak_rect": "walks.count_weak_s",
    "walks.count_U": "walks.count_u_s",
    "walks.count_O": "walks.count_o_s",
    "cli.run": "cli.self_ms",
}
PER_SIZE = ("biject.gamma_s", "biject.gamma_w")
SUMMED = {
    "counting.CountTable.extend_to": "counting.guillotine_s",
    "counting.weighted_guillotine_series": "counting.series_s",
    "counting.schroder_series": "counting.series_s",
}


def layer_samples(tracer):
    """Metric name -> self time of each call (ms for ``_ms`` names, else s).

    A ``SUMMED`` metric gets one sample per batch, the sum over its spans.
    """
    out, sums = {}, {}

    def add(metric, seconds):
        out.setdefault(metric, []).append(seconds * 1e3 if "_ms" in metric else seconds)

    for name, n, self_s in tracer.self_times():
        if name in SPAN_METRIC:
            add(SPAN_METRIC[name], self_s)
        elif name in PER_SIZE:
            add("%s_ms.n%d" % (name, n), self_s)
        elif name in SUMMED:
            sums[SUMMED[name]] = sums.get(SUMMED[name], 0.0) + self_s
            if name == "counting.CountTable.extend_to":
                add("counting.guillotine_layer_s.%d" % n, self_s)
    for metric, seconds in sums.items():
        add(metric, seconds)
    return out


# ---------------------------------------------------------------------------
# One batch
# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.perf_counter() in the parent just before launch")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix="w-", dir=args.workdir))
    try:
        ops, check = WORKLOADS[args.workload](random.Random(args.seed), workdir, tracer)
        if tracer is not None:
            tracer.install()
        outs, op_s, errors = [], [], []
        first = time.perf_counter()
        for fn in ops:
            t0 = time.perf_counter()
            try:
                outs.append(fn())
            except Exception as exc:  # a raising operation is a failed one
                outs.append(None)
                errors.append("%s: %s" % (type(exc).__name__, exc))
            op_s.append(time.perf_counter() - t0)
        wall_s = time.perf_counter() - first
        if tracer is not None:
            tracer.uninstall()
            tracer.revalidate()
        try:
            ok = [bool(passed) for passed in check(outs)]
        except Exception as exc:  # a check that raises fails the whole batch
            ok = [False] * len(ops)
            errors.append("check raised %s: %s" % (type(exc).__name__, exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": first - args.launched,
        "import_s": IMPORT_S,
        "wall_s": wall_s,
        "op_s": op_s,
        "attempted": len(ops),
        "failed": ok.count(False),
        "errors": errors[:5],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_samples(tracer)
        result["counts"] = tracer.counts
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "n"], "spans": tracer.spans}
            ))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
