"""certapprox benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a certapprox checkout:

    python3 perfbench/run.py --workload probe --seed 1 --seconds 27 --trace 0

Workloads (each a closed loop with one client, in one process of its own,
sequential, BLAS limited to one thread):

    probe    orthonormal sine probes to N=2026 terms, then verify: the
             O(N^2) rule construction and series evaluation path
    gram     cubic B-spline Gram route (m=100) and the degree-100
             Chebyshev pipeline, then verify: Gram assembly, basis
             evaluation and the sup-norm verifier
    compose  glue of 20 patches with 10 of 19 pairs reconciled, then the
             tent limit transfer at n*=26: exact rational pair sups,
             reconciliation and nested document serialization
    cli      the five subcommands as separate processes at README sizes:
             process start, import, argparse and file I/O

The seed picks target parameters inside ranges that leave the work counts
unchanged, and every iteration checks them. Times, set-up included, are
CPU times of the single-threaded code under test in reference seconds:
each sample is scaled by a reference kernel timed next to it, which takes
the host's changing speed out (see worker.py). With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see spans.py), whose spans are written
to ``.perfbench/``. The line before it is a report with every timing's
median, its tail percentile and sample count, the failure ratio, a
SHA-256 over the certificate bytes, and the software versions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans  # next to this file, so on the path of a script run from here

BENCH = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("probe", "gram", "compose", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
OUT_DIR = ".perfbench"
UNITS = {"build_s": "s", "verify_s": "s", "inspect_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv, env, deadline) -> dict:
    """Run a worker in its own process group; kill the group on overrun."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *argv]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: worker overran the time limit")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def summary(samples) -> dict:
    """Median, plus the highest percentile with at least ten samples above
    it when that percentile is not below the median."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail": None}
    if n >= 20:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    return out


def op_times(iterations) -> dict:
    """Times in reference seconds of each operation ("phase:label") over
    the iterations."""
    times: dict[str, list[float]] = {}
    for it in iterations:
        for key, ts in it["op_s"].items():
            times.setdefault(key, []).extend(ts)
    return times


def phase_values(times) -> dict:
    """build_s and verify_s: one iteration's operations, each taken at its
    median; inspect_s: the median inspect, averaged over the documents.
    Medians per operation keep one slow sample out of the sum, and averaging
    per document keeps a two-document mixture from flipping the median."""
    med = {key: statistics.median(ts) for key, ts in times.items()}
    out = {}
    for phase in ("build", "verify", "inspect"):
        vals = [v for key, v in med.items() if key.startswith(phase + ":")]
        out[f"{phase}_s"] = sum(vals) / (len(vals) if phase == "inspect" else 1)
    return out


def end_to_end(res, setups) -> tuple[dict, dict]:
    times = op_times(it for it in res["iterations"] if not it["traced"])
    values = phase_values(times)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = res["peak_rss_mb"]
    timings = {key: summary(ts) for key, ts in sorted(times.items())}
    timings["setup"] = summary(setups)
    return values, timings


def per_layer(res, workload) -> dict:
    its = res["iterations"]
    traced = [it for it in its if it["traced"]]
    untraced_times = op_times(it for it in its if not it["traced"])
    values = {}
    for metric in spans.SPAN_METRICS:
        series = [it["layers"][metric] for it in traced]
        values[metric] = statistics.median(series) if metric.endswith("_s") else series[0]
    cli = dict.fromkeys(("approximate", "verify", "glue", "limit"), 0.0)
    if workload == "cli":
        for cmd in ("approximate", "glue", "limit"):
            cli[cmd] = statistics.median(untraced_times[f"build:{cmd}"])
        verify = [statistics.median(ts) for key, ts in untraced_times.items()
                  if key.startswith("verify:")]
        cli["verify"] = sum(verify) / len(verify)
    values.update({f"cli.{cmd}_s": v for cmd, v in cli.items()})
    values["cli.import_s"] = res["cli_import_s"]
    traced_values = phase_values(op_times(traced))
    untraced_values = phase_values(untraced_times)
    for phase in ("build", "verify"):
        values[f"trace.{phase}_overhead"] = (traced_values[f"{phase}_s"]
                                             / untraced_values[f"{phase}_s"])
    return values


def count_drift(res) -> list[str]:
    """Traced iterations repeat the same work, so their counts must agree."""
    traced = [it["layers"] for it in res["iterations"] if it["traced"]]
    counts = [m for m in spans.SPAN_METRICS if not m.endswith("_s")]
    return [f"count {m} differs between traced iterations"
            for m in counts if len({t[m] for t in traced}) > 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = clock()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "certapprox", "__init__.py")):
        print(f"perfbench: no certapprox sources under {src}; run from the root"
              " of a certapprox checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    workdir = os.path.join(root, OUT_DIR, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--workdir", workdir]
    deadline = start + DEADLINE_S
    try:
        setups = [spawn(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(common, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    attempted = sum(it["attempted"] for it in res["iterations"])
    failures = [f for it in res["iterations"] for f in it["failures"]]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "params": res["params"], "iterations": len(res["iterations"]),
              "attempted": attempted, "failed": len(failures),
              "fail_ratio": len(failures) / attempted if attempted else 1.0,
              "failures": failures[:10], "corpus_sha256": res["corpus_sha256"],
              "run": res["run"], "provenance": res["provenance"]}
    values, timings = end_to_end(res, setups)
    report["timings"] = timings
    if args.trace:
        drift = count_drift(res)
        failures += drift
        report["failures"] += drift
        values = per_layer(res, args.workload)
        report["spans_file"] = res.get("spans_file")
        units = {m: u for m, u, _ in spans.LAYER_METRICS}
    else:
        units = UNITS
    report["wall_s"] = clock() - start
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
