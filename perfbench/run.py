"""rectlab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rectlab checkout.  The driver is a closed loop with
one client: it launches ``worker.py`` in a fresh interpreter, waits for it to
finish one cold batch of the workload, and launches the next, until the
run would end closer to ``--seconds`` without the next batch.  Every batch
of one run gets the same inputs, made from ``--seed``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric with its sample count, the error rate
and the host drift.  Metric names and units come from ``BENCHMARK.json``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` batches alternate traced and untraced; the traced ones
give the per-layer metrics, and the difference between the two kinds is
the tracing overhead.  The spans of the first traced batch are written to
``.perfbench/trace-<workload>.json``, and every run appends a record with
the host calibration, Python version, CPU count, git revision and seed to
``.perfbench/runs.jsonl``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("forward", "sweep", "ingest", "counting")
MIN_BATCHES = 2  # batches per run, whatever --seconds says
BATCH_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # no batch starts that could end after this


def calibrate():
    """Median time of a fixed stdlib-only loop: a drift gauge, never a scale."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_batch(args, workdir, traced, spans_out):
    """Launch one worker and return its result, or a failure record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--workdir", str(workdir),
    ]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=BATCH_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    took = time.perf_counter() - launched
    if proc is not None and proc.returncode == 0 and proc.stdout.strip():
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["process_s"] = took
        result["traced"] = traced
        return result
    detail = "timed out" if proc is None else proc.stderr.strip()[-2000:]
    return {"failed_batch": detail, "process_s": took, "traced": traced,
            "attempted": 1, "failed": 1, "errors": [detail]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(spec, batches):
    good = [b for b in batches if "failed_batch" not in b and not b["traced"]]
    # The host's speed shifts between two levels for seconds at a time.  A
    # mean over the run's batches weighs every second the run measured, while
    # a median of a few samples follows whichever level the middle one met.
    # So wall_s is the mean batch time, and an operation's latency is its mean
    # over the batches (each batch runs the same operations in the same order);
    # p50_ms and p90_ms are taken over the batch's operations.
    ops_ms = sorted(statistics.fmean(times) * 1e3 for times in zip(*(b["op_s"] for b in good)))
    walls = [b["wall_s"] for b in good]
    values = {"wall_s": statistics.fmean(walls)}
    q1, q3 = quartiles(walls)
    notes = ["%-13s %.6g  (mean of %d batches, quartiles %.6g..%.6g)"
             % ("wall_s", values["wall_s"], len(walls), q1, q3)]
    series = {
        "setup_s": [b["setup_s"] for b in good],
        "peak_rss_mib": [b["peak_rss_mib"] for b in good],
    }
    for name, samples in series.items():
        values[name] = statistics.median(samples)
        q1, q3 = quartiles(samples)
        notes.append("%-13s %.6g  (median of %d batches, quartiles %.6g..%.6g)"
                     % (name, values[name], len(samples), q1, q3))
    values["p50_ms"] = statistics.median(ops_ms)
    values["p90_ms"] = statistics.quantiles(ops_ms, n=10)[8]
    notes.append("%-13s %.6g  p90_ms %.6g  (%d operations, %d beyond p90, each a mean of %d)"
                 % ("p50_ms", values["p50_ms"], values["p90_ms"], len(ops_ms),
                    sum(t > values["p90_ms"] for t in ops_ms), len(good)))
    return {m["name"]: values[m["name"]] for m in spec}, notes


def per_layer(spec, batches):
    good = [b for b in batches if "failed_batch" not in b]
    traced = [b for b in good if b["traced"]]
    untraced = [b for b in good if not b["traced"]]
    pooled = {}
    for b in traced:
        for metric, samples in b["layers"].items():
            pooled.setdefault(metric, []).extend(samples)
    counts = traced[0]["counts"] if traced else {}
    values, notes = {}, []
    for m in spec:
        name = m["name"]
        quantile = re.fullmatch(r"(.+)_p(50|90)_ms", name)
        if name in counts:
            values[name] = counts[name]
        elif name == "cli.import_s":
            values[name] = statistics.median(b["import_s"] for b in good)
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(b["wall_s"] for b in traced)
                            - statistics.median(b["wall_s"] for b in untraced)
                            if traced and untraced else 0.0)
        elif quantile:
            samples = pooled.get(quantile.group(1) + "_ms", [])
            pct = int(quantile.group(2))
            if len(samples) >= 2:
                values[name] = statistics.quantiles(samples, n=10)[pct // 10 - 1]
            else:
                values[name] = samples[0] if samples else 0.0
        else:
            samples = pooled.get(name, [])
            values[name] = statistics.median(samples) if samples else 0.0
        calls = len(pooled.get(name, []))
        notes.append("%-34s %.6g %s%s" % (
            name, values[name], m["unit"], "  (%d calls)" % calls if calls else ""))
    notes.append("traced batches %d, untraced batches %d" % (len(traced), len(untraced)))
    return values, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "rectlab" / "__init__.py").is_file():
        sys.exit("run.py: no rectlab sources under %s; run it from a rectlab checkout"
                 % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    drift_start = calibrate()
    start = time.perf_counter()
    batches = []
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 0
        first_traced = traced and not any(b["traced"] for b in batches)
        spans_out = workdir / ("trace-%s.json" % args.workload) if first_traced else None
        batches.append(run_batch(args, workdir, traced, spans_out))
        elapsed = time.perf_counter() - start
        longest = max(b["process_s"] for b in batches)
        typical = statistics.median(b["process_s"] for b in batches)
        enough = len(batches) >= MIN_BATCHES
        # stop when one more batch would end further from --seconds than now
        if (enough and elapsed + typical / 2 > args.seconds) or elapsed + longest > RUN_LIMIT_S:
            break
    elapsed = time.perf_counter() - start
    drift_end = calibrate()

    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    errors = [e for b in batches for e in b["errors"]]
    if all("failed_batch" in b for b in batches):
        sys.exit("run.py: every batch failed; first error: %s" % errors[0])
    if args.trace:
        metrics, notes = per_layer(spec["per_layer"], batches)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, notes = end_to_end(spec["end_to_end"], batches)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed, "batches": len(batches),
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "git_rev": git_rev(),
        "calibration_start_s": drift_start, "calibration_end_s": drift_end,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    with open(workdir / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print("workload %s  seed %d  trace %d  %d batches in %.1f s"
          % (args.workload, args.seed, args.trace, len(batches), elapsed))
    for line in notes:
        print("  " + line)
    print("  error_rate    %d/%d = %.6g" % (failed, attempted, failed / attempted))
    for e in errors[:5]:
        print("  error: " + e.replace("\n", " | ")[:300])
    print("  host: python %s, nproc %s, rev %s, calibration %.6f s at start, %.6f s at end"
          % (record["python"], record["nproc"], record["git_rev"], drift_start, drift_end))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
