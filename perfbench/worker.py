"""One benchmark workload in a process of its own.

run.py starts this file once per set-up sample and once for the measured
run. The worker imports certapprox from the checkout's ``src``, makes the
workload's inputs from the seed, reports its set-up time, then runs
iterations until the time budget is spent and prints one JSON line.

Times are CPU times in reference seconds. An operation is timed by the
CPU clock: this process's own for in-process work, the waited-for child's
for a CLI process. The code under test is single-threaded (BLAS is held to
one thread), so its CPU time is its wall time less the time it was not
running. A shared virtual machine also changes speed by tens of percent
from one second to the next (neighbours on the same cores and caches), so
every sample is divided by the CPU time of a fixed reference kernel run
just before and just after it, and multiplied by that kernel's time on the
reference machine (REFERENCE_KERNEL_S). A change to certapprox moves the
reference seconds as it moves the CPU seconds; a change in the host's
speed moves both the sample and its kernel. The kernel's median CPU time
in the run and the run's wall and CPU time are reported alongside, so raw
CPU seconds can be recovered.

Every iteration rebuilds the same certificates from the same inputs, so it
can check each output: a build must give the pinned work counts and the
same bytes as the first iteration, an honest certificate must PASS, a
forged copy (reported error halved, digest resealed) must FAIL, and every
CLI process must exit with the expected code and, on success, print
nothing to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy

import spans  # next to this file, so on the path of a script run from here

BENCH = os.path.dirname(os.path.abspath(__file__))

now = time.perf_counter
PROC_TIMEOUT_S = 60
MIN_SAMPLE_S = 0.1
# Median CPU time of reference_kernel() on the machine the bounds were set
# on: a 2-core Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6.
REFERENCE_KERNEL_S = 0.015
SETUP_KERNEL_SAMPLES = 5
KERNEL_EVERY_S = 0.25
CLI_IMPORT_SAMPLES = 3

PLAIN_CLI = "import sys; from certapprox.cli import main; sys.exit(main())"
TRACED_CLI = ("import sys; sys.path.insert(0, {bench!r}); import spans; "
              "sys.exit(spans.run_cli(sys.argv.pop(1)))")


def cpu_self() -> float:
    """CPU seconds of this process."""
    return time.process_time()


def cpu_children() -> float:
    """CPU seconds of this process's ended and waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


_KERNEL_X = numpy.linspace(0.0, 1.0, 20000)


def reference_kernel() -> int:
    """Fixed work in the three kinds certapprox spends its time on:
    interpreted loops, numpy array arithmetic and exact rationals."""
    s = 0
    for i in range(100000):
        s += i * i % 7
    for _ in range(20):
        s += int(numpy.sin(3.1 * _KERNEL_X).sum())
    q = fractions.Fraction(0)
    for k in range(1, 300):
        q += fractions.Fraction(k, 2 ** (k % 60) + 1)
    return s + q.numerator % 7


class Calibration:
    """CPU times of the reference kernel: one just before and one just after
    every sample and, while sampling() is on, one every KERNEL_EVERY_S of
    this process's CPU time inside it, run from a SIGPROF handler between
    two bytecodes of the code under test. A sample of several seconds thus
    sees the host's speed all through, not only at its ends."""

    def __init__(self, warmup: int):
        self.kernel_s = [self.run_kernel() for _ in range(warmup)]
        self._inside: list[float] | None = None
        self._running = False

    @staticmethod
    def run_kernel() -> float:
        t0 = cpu_self()
        reference_kernel()
        return cpu_self() - t0

    @property
    def last(self) -> float:
        return self.kernel_s[-1]

    def _tick(self, signum, frame):
        if self._inside is not None and not self._running:
            self._running = True
            try:
                self._inside.append(self.run_kernel())
            finally:
                self._running = False

    @contextlib.contextmanager
    def sampling(self, inside: list):
        """Append to `inside` the kernel times taken inside the block."""
        signal.signal(signal.SIGPROF, self._tick)
        self._inside = inside
        signal.setitimer(signal.ITIMER_PROF, KERNEL_EVERY_S, KERNEL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            self._inside = None

    def reference_s(self, cpu_s: float, before: float, inside: list) -> float:
        """cpu_s, a sample's CPU time less the kernels inside it, measured
        since the kernel time `before` was taken, in reference seconds:
        divided by the mean of the kernel times before, inside and just
        after it."""
        self.kernel_s.extend(inside)
        self.kernel_s.append(self.run_kernel())
        kernel = statistics.fmean([before, self.last, *inside])
        return cpu_s * REFERENCE_KERNEL_S / kernel


class Iteration:
    """Timings, operation counts and failures of one iteration."""

    def __init__(self, traced: bool, cpu, cal: Calibration, tracer=None):
        self.traced = traced
        self.tracer = tracer
        self.cpu = cpu      # the clock an operation is timed by
        self.cal = cal
        # kernels inside a call only where they share its CPU clock, and not
        # in traced calls, whose spans would count them
        self.sample_inside = cpu is cpu_self and not traced
        # traced iterations call each operation once, so their counts repeat
        self.min_sample_s = 0.0 if traced else MIN_SAMPLE_S
        self.op_s: dict[str, list[float]] = {}   # "phase:label" -> reference s
        self.attempted = 0
        self.failures: list[str] = []
        self.layers: dict | None = None

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def _sampling(self, inside: list):
        if self.sample_inside:
            return self.cal.sampling(inside)
        return contextlib.nullcontext()

    def op(self, phase: str, label: str, fn, check):
        """Call fn() until the calls add up to min_sample_s (once at least),
        checking every result, and record their mean CPU time in reference
        seconds as one sample: a short operation is timed as a batch, which
        averages out the sub-second speed swings of a shared machine. A call
        fails if it raises or check(result) returns a message. Returns the
        last result, or None on failure."""
        times = self.op_s.setdefault(f"{phase}:{label}", [])
        cpu = self.cpu
        before, inside = self.cal.last, []
        busy, calls = 0.0, 0
        try:
            while True:
                self.attempted += 1
                calls += 1
                t0 = cpu()
                try:
                    with self._sampling(inside):
                        result = fn()
                finally:
                    busy += cpu() - t0
                with self.untraced():
                    problem = check(result)
                if problem:
                    self.failures.append(f"{phase} {label}: {problem}")
                    return None
                if busy >= self.min_sample_s:
                    return result
        except Exception as e:  # any exception is a failed operation
            self.failures.append(f"{phase} {label}: raised {e!r}")
            return None
        finally:
            cpu_s = (busy - sum(inside)) / calls
            times.append(self.cal.reference_s(cpu_s, before, inside))


# ----------------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------------

class Doc(NamedTuple):
    """One certificate a workload builds, verifies, forges and inspects."""

    name: str
    build: Callable      # () -> certificate
    pinned: Callable     # certificate -> message, or None when the counts hold
    verify: Callable     # document bytes -> VerificationReport


class InProcess:
    """Builds, verifies (honest and forged) and inspects its documents in
    this process, once per iteration."""

    cpu = staticmethod(cpu_self)

    def __init__(self, ca, docs, workdir):
        self.ca = ca
        self.docs = docs
        self.workdir = workdir
        self.first: dict[str, bytes] = {}
        self.forged: dict[str, bytes] = {}
        self.paths: dict[str, str] = {}

    def corpus(self) -> list[bytes]:
        return [self.first[d.name] for d in self.docs if d.name in self.first]

    def iteration(self, it: Iteration):
        ca = self.ca
        built = {}
        for d in self.docs:
            def build(d=d):
                cert = d.build()
                return cert, ca.certificate.canonical_dumps(cert.to_dict())
            res = it.op("build", d.name, build,
                        lambda r, d=d: d.pinned(r[0]) or self._same_bytes(d.name, r[1]))
            if res is not None:
                built[d.name] = res[1]
        for d in self.docs:
            if d.name not in built:
                continue
            data = built[d.name]
            with it.untraced():
                forged = self._forged(d.name, data)
            it.op("verify", d.name, lambda: d.verify(data),
                  lambda r: None if r.verdict else f"honest certificate FAILs: {r.notes}")
            self._inspect_round(it, built)
            it.op("verify", f"forged {d.name}", lambda: d.verify(forged),
                  lambda r: "forged certificate PASSes" if r.verdict else None)
            self._inspect_round(it, built)

    def _inspect_round(self, it: Iteration, built):
        """Inspect each document built so far. Rounds follow every verify,
        so the samples spread over the run instead of catching the machine
        in one moment's state."""
        for name in built:
            self.inspect(it, name)

    def documents(self) -> list[str]:
        return [d.name for d in self.docs if d.name in self.first]

    def inspect(self, it: Iteration, name: str):
        path = self.paths[name]
        needle = "digest: " + json.loads(self.first[name])["digest"]
        it.op("inspect", name, lambda: self._inspect(path),
              lambda r: (None if r[0] == 0 and needle in r[1]
                         else f"exit {r[0]}, output {r[1][:200]!r}"))

    def _same_bytes(self, name, data):
        if name not in self.first:
            self.first[name] = data
            path = os.path.join(self.workdir, name + ".uelat.json")
            with open(path, "wb") as fh:
                fh.write(data)
            self.paths[name] = path
            return None
        return None if data == self.first[name] else "rebuilt bytes differ"

    def _forged(self, name, data):
        if name not in self.forged:
            self.forged[name] = forge(self.ca, data)
        return self.forged[name]

    def _inspect(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ca.cli.main(["inspect", path])
        return code, out.getvalue()


def forge(ca, data: bytes) -> bytes:
    """Halve the reported error and reseal the digest."""
    doc = json.loads(data)
    doc["reported_error"] = doc["reported_error"] / 2.0
    doc["digest"] = ca.certificate.compute_digest(doc)
    return ca.certificate.canonical_dumps(doc)


def expect(actual, wanted, what):
    return None if actual == wanted else f"{what} is {actual}, pinned at {wanted}"


def approximation_verifier(ca, f):
    def verify(data):
        return ca.certificate.verify(ca.certificate.deserialize(data), f)
    return verify


def probe_workload(ca, rng, workdir):
    """Orthonormal sine probes on x + s*sin(j*pi*x) at eps=1e-2: N=2026."""
    j, s = rng.randint(1, 8), rng.uniform(-0.5, 0.5)
    f = ca.target.from_expression(f"x + {s!r}*sin({j}*pi*x)")
    settings = ca.approximate.ExtractionSettings(1e-2, max_terms=4096)
    doc = Doc("probe",
              lambda: ca.approximate.approximate_orthonormal(
                  f, ca.basis.fourier_sine_family(), settings),
              lambda c: expect(len(c.terms), 2026, "term count"),
              approximation_verifier(ca, f))
    return InProcess(ca, [doc], workdir), {"j": j, "s": s}


def gram_workload(ca, rng, workdir):
    """Cubic B-spline Gram route in W12 (98 interior elements, so 4851 Gram
    pairs) plus the degree-100 Chebyshev pipeline."""
    j, s = rng.randint(2, 4), rng.uniform(-0.5, 0.5)
    a = rng.uniform(20.0, 30.0)
    f = ca.target.from_expression(f"sin(pi*x) + {s!r}*sin({j}*pi*x)")
    g = ca.target.from_expression(f"1/(1+{a!r}*x^2)", (-1.0, 1.0))
    elements = ca.basis.cubic_bspline_family(100).interior_elements()
    spline = Doc("bspline",
                 lambda: ca.approximate.approximate_gram(
                     f, elements, ca.quadrature.w12_norm(),
                     ca.approximate.ExtractionSettings(1e-3)),
                 lambda c: expect(len(c.terms), 98, "element count"),
                 approximation_verifier(ca, f))
    cheb = Doc("chebyshev",
               lambda: ca.approximate.approximate_chebyshev(
                   g, 100, ca.approximate.ExtractionSettings(1e-6)),
               lambda c: expect(len(c.terms), 101, "term count"),
               approximation_verifier(ca, g))
    return InProcess(ca, [spline, cheb], workdir), {"j": j, "s": s, "a": a}


COMPOSE_EPS = 1e-2
COMPOSE_PATCHES = 20


def compose_workload(ca, rng, workdir):
    """Glue 20 patches of sin(pi*x) with every odd local bumped so that 10 of
    19 pairs reconcile, then the tent limit transfer at n*=26."""
    bump, at = rng.uniform(3e-5, 1.5e-4), rng.choice([1, 2])
    eps_limit = rng.uniform(6e-8, 1.19e-7)
    glue, limit = ca.glue, ca.limit
    f = ca.target.from_builtin("sinpi")

    def perturbed(lc):
        # reissued with one coefficient shifted, its error re-measured honestly
        terms = [(k, c + (bump if k == at else 0.0)) for k, c in lc.cert.terms]
        fam = glue.local_bspline_family(lc.patch, 8)
        g = ca.target.series(fam, terms)
        norm = ca.quadrature.w12_norm(lc.patch)
        rule = ca.quadrature.construction_rule(f, [g], interval=lc.patch).refined(4)
        err = ca.quadrature.norm_of_difference(f, g, norm, rule)
        cert = ca.certificate.assemble(
            f.descriptor, fam, terms, norm, 0.5 * COMPOSE_EPS, err,
            ca.certificate.Construction("gram_solve", "shifted for reconciliation"))
        return glue.LocalCertificate(lc.patch_index, lc.patch, cert)

    def build_glued():
        cover = glue.make_cover((0.0, 1.0), COMPOSE_PATCHES)
        settings = ca.approximate.ExtractionSettings(0.5 * COMPOSE_EPS)
        locals_ = [glue.extract_local(f, i, p, glue.local_bspline_family(p, 8), settings)
                   for i, p in enumerate(cover.patches)]
        locals_ = [perturbed(lc) if i % 2 else lc for i, lc in enumerate(locals_)]
        return glue.glue(f, locals_, glue.build_pou(cover), COMPOSE_EPS)

    def glued_pinned(c):
        adjusted = sum(r.adjusted for r in c.records)
        return expect((adjusted, len(c.records)), (10, 19), "reconciled pairs")

    glued = Doc("glued", build_glued, glued_pinned,
                lambda data: glue.verify_glued(glue.glued_from_dict(json.loads(data)), f))
    lim = Doc("limit",
              lambda: limit.transfer(limit.tent_sequence(), eps_limit),
              lambda c: expect((c.n_star, len(c.ladder)), (26, 8), "anchor and rungs"),
              lambda data: limit.verify_limit(limit.limit_from_dict(json.loads(data))))
    params = {"bump": bump, "at": at, "eps_limit": eps_limit}
    return InProcess(ca, [glued, lim], workdir), params


# ----------------------------------------------------------------------------
# the command line, one process per command
# ----------------------------------------------------------------------------

def _status(p, code, needle):
    """Failure message for a finished CLI process, or None."""
    if p.returncode != code:
        return f"exit {p.returncode}, stderr {p.stderr[-300:]!r}"
    if code == 0 and p.stderr:
        return f"stderr on success: {p.stderr[-300:]!r}"
    if needle not in p.stdout:
        return f"no {needle!r} in output"
    return None


class Cli:
    """approximate, glue and limit at README sizes; verify each document and
    one forged copy; inspect each document."""

    cpu = staticmethod(cpu_children)

    def __init__(self, ca, rng, workdir, env):
        self.ca = ca
        self.workdir = workdir
        self.env = env
        self.eps = {"approximate": rng.uniform(1e-3, 2e-3),
                    "glue": rng.uniform(1e-2, 2e-2),
                    "limit": rng.uniform(1e-3, 1.9e-3)}
        self.builds = [
            ("approximate", "spline.uelat.json",
             ["--target", "builtin:sinpi", "--basis", "cubic_bspline", "--knots", "10"],
             lambda d: expect(len(d["terms"]), 10, "term count")),
            ("glue", "glued.uelat.json",
             ["--target", "builtin:sinpi", "--patches", "3"],
             lambda d: expect((len(d["locals"]), sum(r["adjusted"] for r in d["reconciliation"])),
                              (3, 0), "patches and reconciled pairs")),
            ("limit", "limit.uelat.json", [],
             lambda d: expect((d["n_star"], len(d["ladder"])), (12, 8), "anchor and rungs")),
        ]
        self.first: dict[str, bytes] = {}
        self.params = dict(self.eps)

    def corpus(self) -> list[bytes]:
        return [self.first[out] for _, out, _, _ in self.builds if out in self.first]

    def iteration(self, it: Iteration, traced: bool) -> list:
        """Run one round of commands; returns each traced process's spans."""
        span_files = [] if traced else None
        for cmd, out, argv, pinned in self.builds:
            full = argv + ["--eps", repr(self.eps[cmd]), "--out", out]
            it.op("build", cmd, lambda: self._run(cmd, full, span_files),
                  lambda p, out=out, pinned=pinned: (_status(p, 0, "wrote: " + out)
                                                     or self._check_doc(out, pinned)))
        if "spline.uelat.json" in self.first:
            forged = os.path.join(self.workdir, "forged.uelat.json")
            if not os.path.exists(forged):
                with open(forged, "wb") as fh:
                    fh.write(forge(self.ca, self.first["spline.uelat.json"]))
        for _, out, _, _ in self.builds:
            it.op("verify", out, lambda: self._run("verify", [out], span_files),
                  lambda p: _status(p, 0, "verdict: PASS"))
            self.inspect(it, out, span_files)
        it.op("verify", "forged.uelat.json",
              lambda: self._run("verify", ["forged.uelat.json"], span_files),
              lambda p: _status(p, 3, "verdict: FAIL"))
        recorded = []
        for path in span_files or ():
            with open(path) as fh:
                recorded.append(json.load(fh))
            os.remove(path)
        return recorded

    def documents(self) -> list[str]:
        return [out for _, out, _, _ in self.builds if out in self.first]

    def inspect(self, it: Iteration, out: str, span_files=None):
        digest = ("digest: " + json.loads(self.first[out])["digest"]
                  if out in self.first else "digest: ")
        it.op("inspect", out, lambda: self._run("inspect", [out], span_files),
              lambda p: _status(p, 0, digest))

    def _run(self, cmd, argv, span_files):
        """One CLI process; traced when span_files collects its spans."""
        args = [sys.executable, "-c"]
        if span_files is None:
            args.append(PLAIN_CLI)
        else:
            path = os.path.join(self.workdir, f"spans-{len(span_files)}.json")
            span_files.append(path)
            args += [TRACED_CLI.format(bench=BENCH), path]
        return subprocess.run(args + [cmd] + argv, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=PROC_TIMEOUT_S)

    def _check_doc(self, out, pinned):
        with open(os.path.join(self.workdir, out), "rb") as fh:
            data = fh.read()
        if out not in self.first:
            self.first[out] = data
        elif data != self.first[out]:
            return "rebuilt bytes differ"
        return pinned(json.loads(data))


# ----------------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------------

def measure(workload, seconds, trace, cal, tracer, spans_out):
    """Iterate until the next iteration would overrun the budget; a traced
    run alternates traced and untraced iterations, at least one of each,
    and an untraced run spends the rest of the budget on inspects."""
    iterations, durations = [], []
    start = now()
    while True:
        traced = trace and len(iterations) % 2 == 0
        it = Iteration(traced, workload.cpu, cal, tracer if traced else None)
        t0 = now()
        if isinstance(workload, Cli):
            recorded = workload.iteration(it, traced)
        elif traced:
            tracer.install()
            try:
                workload.iteration(it)
            finally:
                tracer.uninstall()
            recorded = [tracer.take()]
        else:
            workload.iteration(it)
        durations.append(now() - t0)
        if traced:
            it.layers = spans.layer_sum(recorded)
            spans_out.extend(recorded)
        iterations.append(it)
        if trace and len(iterations) < 2:
            continue
        if now() - start + statistics.median(durations) > seconds:
            break
    if not trace:
        # the time too short for another iteration goes to more inspect
        # samples, which a long iteration would otherwise take at few moments
        docs = workload.documents()
        k = 0
        while docs and now() - start < seconds:
            workload.inspect(it, docs[k % len(docs)])
            k += 1
    return iterations


def cli_import_s(env, workdir, cal) -> float:
    samples = []
    for _ in range(CLI_IMPORT_SAMPLES):
        before = cal.last
        t0 = cpu_children()
        subprocess.run([sys.executable, "-c", "import certapprox"], cwd=workdir,
                       env=env, check=True, timeout=PROC_TIMEOUT_S)
        samples.append(cal.reference_s(cpu_children() - t0, before, []))
    return statistics.median(samples)


def provenance(ca, root) -> dict:
    import numpy
    import scipy
    lines = 0
    pkg = os.path.join(root, "src", "certapprox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "src_lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("probe", "gram", "compose", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    import certapprox as ca
    if not os.path.abspath(ca.__file__).startswith(src + os.sep):
        raise SystemExit(f"certapprox imported from {ca.__file__}, not from {src}")
    rng = random.Random(args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    env = dict(os.environ)
    if args.workload == "cli":
        workload = Cli(ca, rng, args.workdir, env)
        params = workload.params
    else:
        make = {"probe": probe_workload, "gram": gram_workload,
                "compose": compose_workload}[args.workload]
        workload, params = make(ca, rng, args.workdir)
    setup_cpu_s = cpu_self()  # interpreter start, imports and inputs
    cal = Calibration(SETUP_KERNEL_SAMPLES)
    setup_s = setup_cpu_s * REFERENCE_KERNEL_S / statistics.median(cal.kernel_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    spans_out: list = []
    wall0 = now()
    iterations = measure(workload, args.seconds, bool(args.trace), cal, tracer,
                         spans_out)
    wall = now() - wall0
    if args.workload == "cli":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "params": params,
        "iterations": [{"traced": it.traced, "op_s": it.op_s,
                        "attempted": it.attempted, "failures": it.failures,
                        "layers": it.layers}
                       for it in iterations],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "run": {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "kernel_s": statistics.median(cal.kernel_s),
                "reference_kernel_s": REFERENCE_KERNEL_S},
        "corpus_sha256": hashlib.sha256(b"".join(workload.corpus())).hexdigest(),
        "provenance": provenance(ca, root),
    }
    if args.trace:
        result["cli_import_s"] = cli_import_s(env, args.workdir, cal)
        if spans_out:
            path = os.path.join(os.path.dirname(args.workdir),
                                f"spans-{args.workload}-{args.seed}.json")
            spans.dump_spans(spans_out, path)
            result["spans_file"] = os.path.relpath(path, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
