"""Outside-in layer tracing for certapprox.

The tracer wraps the public functions of each certapprox module from the
outside: it replaces module attributes (every binding of the same function
object, so names imported with ``from ... import`` are caught too) and
methods on their classes, and restores them afterwards. Each wrapped call
records one span ``[name, start, end, parent, counts]`` in memory; a span's
self time is its duration minus the time covered by its child spans.

Span names are ``<layer>.<part>``; ``LAYER_METRICS`` maps them to the
per-layer metrics and names the end-to-end metric each should move.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

now = time.perf_counter

# (metric, unit, which end-to-end metric it should move, on which workloads)
LAYER_METRICS = [
    ("cli.import_s", "s", "inspect_s on cli; setup_s on all four"),
    ("cli.approximate_s", "s", "inspect_s on cli; setup_s on all four"),
    ("cli.verify_s", "s", "inspect_s on cli; setup_s on all four"),
    ("cli.glue_s", "s", "inspect_s on cli; setup_s on all four"),
    ("cli.limit_s", "s", "inspect_s on cli; setup_s on all four"),
    ("target.eval.calls", "count", "verify_s on probe"),
    ("target.eval.points", "count", "verify_s on probe"),
    ("target.eval.term_points", "count", "verify_s on probe"),
    ("target.eval.self_s", "s", "verify_s on probe"),
    ("basis.eval.calls", "count", "build_s on gram and probe"),
    ("basis.eval.points", "count", "build_s on gram and probe"),
    ("basis.eval.self_s", "s", "build_s on gram and probe"),
    ("quadrature.rule.calls", "count", "build_s on probe"),
    ("quadrature.rule.panels", "count", "build_s on probe"),
    ("quadrature.rule.self_s", "s", "build_s on probe"),
    ("quadrature.integrate.calls", "count", "build_s on probe and gram"),
    ("quadrature.integrate.nodes", "count", "build_s on probe and gram"),
    ("quadrature.integrate.self_s", "s", "build_s on probe and gram"),
    ("quadrature.sup.calls", "count", "verify_s on gram"),
    ("quadrature.sup.self_s", "s", "verify_s on gram"),
    ("approximate.gram.entries", "count", "build_s on gram; build_s on compose a little"),
    ("approximate.solve_s", "s", "build_s on gram; build_s on compose a little"),
    ("approximate.probes", "count", "build_s on gram; build_s on compose a little"),
    ("approximate.build.self_s", "s", "build_s on gram; build_s on compose a little"),
    ("certificate.encode.calls", "count", "verify_s on compose and cli"),
    ("certificate.encode.bytes", "count", "verify_s on compose and cli"),
    ("certificate.encode.self_s", "s", "verify_s on compose and cli"),
    ("certificate.digest.calls", "count", "verify_s on compose and cli"),
    ("certificate.parse.self_s", "s", "verify_s on compose and cli"),
    ("certificate.verify.self_s", "s", "verify_s on compose and cli"),
    ("glue.extract.self_s", "s", "build_s and verify_s on compose"),
    ("glue.reconcile.calls", "count", "build_s and verify_s on compose"),
    ("glue.reconcile.adjusted", "count", "build_s and verify_s on compose"),
    ("glue.overlap.calls", "count", "build_s and verify_s on compose"),
    ("glue.overlap.self_s", "s", "build_s and verify_s on compose"),
    ("glue.verify.self_s", "s", "build_s and verify_s on compose"),
    ("limit.pair_sup.calls", "count", "build_s and verify_s on compose; verify_s on cli"),
    ("limit.pair_sup.grid_points", "count", "build_s and verify_s on compose; verify_s on cli"),
    ("limit.pair_sup.self_s", "s", "build_s and verify_s on compose; verify_s on cli"),
    ("limit.transfer.self_s", "s", "build_s and verify_s on compose; verify_s on cli"),
    ("limit.verify.self_s", "s", "build_s and verify_s on compose; verify_s on cli"),
    ("trace.build_overhead", "ratio", "none: traced over untraced build_s"),
    ("trace.verify_overhead", "ratio", "none: traced over untraced verify_s"),
]

# metrics taken from spans; the cli.* timings and the overheads are measured
# around processes and iterations instead
SPAN_METRICS = [m for m, _, _ in LAYER_METRICS
                if not m.startswith(("cli.", "trace."))]


def _points(args, kwargs, result):
    return {"points": _size(args[1])}


def _target_points(args, kwargs, result):
    n = _size(args[1])
    terms = args[0].terms
    return {"points": n, "term_points": len(terms) * n if terms else 0}


def _size(x) -> int:
    return int(getattr(x, "size", 1))  # an array, or one float


def _panels(args, kwargs, result):
    return {"panels": result.n_panels}


def _nodes(args, kwargs, result):
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    return {"nodes": int(rule.nodes.size)}


def _adjusted(args, kwargs, result):
    return {"adjusted": int(result[1].adjusted)}


def _grid_points(args, kwargs, result):
    n, m = args[0], args[1]
    return {"grid_points": 2 ** (m - n) + 1}


def _encoded_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _targets():
    """(owner, attribute, span name, count function) for every wrapped call."""
    import numpy.linalg
    import scipy.linalg
    from certapprox import (approximate, basis, certificate, cli, glue, limit,
                            quadrature, target)

    def _pair_or_probe(args, kwargs, result):
        # element against element is a Gram entry; target against element a probe
        both = (isinstance(args[0], basis.BasisElement)
                and isinstance(args[1], basis.BasisElement))
        return {"pair": 1} if both else {"probe": 1}

    return [
        (target.TargetFunction, "evaluate", "target.eval", _target_points),
        (target.TargetFunction, "evaluate_deriv", "target.eval", _target_points),
        (basis.BasisElement, "evaluate", "basis.eval", _points),
        (basis.BasisElement, "evaluate_deriv", "basis.eval", _points),
        (quadrature, "construction_rule", "quadrature.rule", _panels),
        (quadrature, "integrate", "quadrature.integrate", _nodes),
        (quadrature, "inner_product", "quadrature.inner_product", _pair_or_probe),
        (quadrature, "sup_distance", "quadrature.sup", None),
        (approximate, "approximate_orthonormal", "approximate.build", None),
        (approximate, "approximate_gram", "approximate.build", None),
        (approximate, "approximate_raw_probe", "approximate.build", None),
        (approximate, "approximate_chebyshev", "approximate.build", None),
        (approximate, "approximate_greedy", "approximate.build", None),
        (approximate, "chebyshev_coefficients", "approximate.build", None),
        (scipy.linalg, "cho_factor", "linalg.solve", None),
        (scipy.linalg, "cho_solve", "linalg.solve", None),
        (numpy.linalg, "cond", "linalg.solve", None),
        (certificate, "canonical_dumps", "certificate.encode", _encoded_bytes),
        (certificate, "compute_digest", "certificate.digest", None),
        (certificate, "deserialize", "certificate.parse", None),
        (certificate, "certificate_from_dict", "certificate.parse", None),
        (glue, "glued_from_dict", "certificate.parse", None),
        (limit, "limit_from_dict", "certificate.parse", None),
        (certificate, "verify", "certificate.verify", None),
        (glue, "extract_local", "glue.extract", None),
        (glue, "reconcile", "glue.reconcile", _adjusted),
        (glue, "check_overlap", "glue.overlap", None),
        (glue, "glue", "glue.glue", None),
        (glue, "verify_glued", "glue.verify", None),
        (limit, "exact_pair_sup", "limit.pair_sup", _grid_points),
        (limit, "transfer", "limit.transfer", None),
        (limit, "verify_limit", "limit.verify", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Span recorder; the wrappers are in place between ``install()`` and
    ``uninstall()``, and record only while ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "certapprox" or k.startswith("certapprox.")]
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            # every binding of the same object, so from-imports go through it
            holders = [owner] if isinstance(owner, type) else [owner] + modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def _owner(spans, i, names):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return spans[p][0]
        p = spans[p][3]
    return None


def layer_values(spans) -> dict:
    """Per-layer counts and self times of one iteration's spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict = defaultdict(float)
    for i, (name, t0, t1, _parent, counts) in enumerate(spans):
        self_s = (t1 - t0) - child[i]
        if name == "linalg.solve":
            if _owner(spans, i, ("approximate.build",)):
                out["approximate.solve_s"] += self_s
            continue
        out[name + ".self_s"] += self_s
        out[name + ".calls"] += 1
        if name == "quadrature.inner_product":
            if _owner(spans, i, ("approximate.build",)):
                out["approximate.gram.entries"] += counts.get("pair", 0)
                out["approximate.probes"] += counts.get("probe", 0)
        elif counts:
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
    return {m: out.get(m, 0.0) if m.endswith("_s") else int(out.get(m, 0))
            for m in SPAN_METRICS}


def layer_sum(span_lists) -> dict:
    """Per-layer values summed over several processes' spans."""
    total = dict.fromkeys(SPAN_METRICS, 0)
    for recorded in span_lists:
        for metric, value in layer_values(recorded).items():
            total[metric] += value
    return total


def dump_spans(spans, path):
    """Write span lists as JSON: one list per traced iteration or process,
    each span ``[name, start_s, end_s, parent_index, counts]``."""
    with open(path, "w") as fh:
        json.dump(spans, fh, separators=(",", ":"))


def run_cli(spans_path: str) -> int:
    """Run ``certapprox.cli.main`` on ``sys.argv[1:]`` under the tracer and
    write the spans to ``spans_path``; used for traced CLI processes."""
    from certapprox import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main()
    finally:
        tracer.uninstall()
        dump_spans(tracer.take(), spans_path)
    return code
