r"""Deterministic quadrature, inner products, and norm measurements.

Two grades of accuracy run through everything built on top of this module.
Construction-grade rules are composite 16-point Gauss-Legendre rules whose
panel edges honor every structural breakpoint of the integrand factors
(knots, kinks, oscillation scales) on an interval the caller names.
Verification-grade rules refine each construction panel fourfold in
certificate.measure, so a verifier never evaluates at construction nodes
and cannot alias construction error. The Gauss-Chebyshev rule, weight
1/sqrt(1-x^2) folded in, serves the Chebyshev coefficient table alone.
L2 and W12 norms are integrated; the sup norm is sup_distance's.

All weighted sums go through math.fsum, which is exactly rounded and hence
independent of summation order and platform; this is what makes certificate
digests reproducible across machines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, EvaluationError, UnsupportedNormError


@lru_cache(maxsize=64)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(points)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w

L2 = "l2"
W12 = "w12"
SUP = "sup"

_NORM_KINDS = (L2, W12, SUP)

GAUSS_CHEBYSHEV = "gauss_chebyshev"
COMPOSITE_GAUSS_LEGENDRE = "composite_gauss_legendre"


@dataclass(frozen=True)
class NormTag:
    """Which norm a measurement or certificate refers to, and on what interval."""

    kind: str
    domain: tuple[float, float]

    def __post_init__(self):
        if self.kind not in _NORM_KINDS:
            raise ConfigurationError(f"unknown norm kind {self.kind!r}")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"invalid norm domain [{lo}, {hi}]")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "domain": [float(self.domain[0]), float(self.domain[1])]}

    @staticmethod
    def from_dict(d: dict) -> "NormTag":
        return NormTag(str(d["kind"]), (float(d["domain"][0]), float(d["domain"][1])))


def l2_norm(domain=(0.0, 1.0)) -> NormTag:
    return NormTag(L2, domain)


def w12_norm(domain=(0.0, 1.0)) -> NormTag:
    return NormTag(W12, domain)


def sup_norm(domain=(0.0, 1.0)) -> NormTag:
    return NormTag(SUP, domain)


# ----------------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights over a panel decomposition of an interval.

    edges holds the panel boundaries in ascending order; a single-panel
    rule has two edges. For Gauss-Chebyshev the weight function
    1/sqrt(1-x^2) is built into the weights and edges are fixed at +-1.
    """

    kind: str
    points: int
    edges: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in (GAUSS_CHEBYSHEV, COMPOSITE_GAUSS_LEGENDRE):
            raise ConfigurationError(f"unknown rule kind {self.kind!r}")
        # the Gauss-Chebyshev count scales with the requested degree
        if not (1 <= self.points <= 1_000_000):
            raise ConfigurationError(f"unreasonable node count {self.points}")
        e = np.asarray(self.edges, dtype=float)
        if e.size < 2 or np.any(np.diff(e) <= 0.0):
            raise ConfigurationError("panel edges must be strictly increasing")
        if self.kind == GAUSS_CHEBYSHEV and self.edges != (-1.0, 1.0):
            raise ConfigurationError("gauss_chebyshev lives on [-1, 1]")

    @property
    def n_panels(self) -> int:
        return len(self.edges) - 1

    @cached_property
    def nodes(self) -> np.ndarray:
        return self._nodes_weights[0]

    @cached_property
    def weights(self) -> np.ndarray:
        return self._nodes_weights[1]

    @cached_property
    def _nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == GAUSS_CHEBYSHEV:
            n = self.points
            k = np.arange(n, 0, -1)  # ascending nodes
            x = np.cos((2 * k - 1) * np.pi / (2 * n))
            w = np.full(n, np.pi / n)
            x.setflags(write=False)
            w.setflags(write=False)
            return x, w
        ref_x, ref_w = _leggauss(self.points)
        e = np.asarray(self.edges)
        a, b = e[:-1], e[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        x = (half[:, None] * ref_x[None, :] + mid[:, None]).reshape(-1)
        w = (half[:, None] * ref_w[None, :]).reshape(-1)
        x.setflags(write=False)
        w.setflags(write=False)
        return x, w

    def refined(self, factor: int) -> "QuadratureRule":
        """Verification-grade Gauss-Legendre companion: panels split `factor` ways.

        The refined node set is disjoint from the original's, so a
        verification measurement never reuses construction samples.
        """
        # np.linspace(a, b, factor + 1) for every panel at once, by its own
        # formula: a + i * ((b - a) / factor), with b itself as the stop
        e = np.asarray(self.edges)
        a, b = e[:-1, None], e[1:]
        fine = np.arange(1.0, factor + 1.0) * ((b[:, None] - a) / factor) + a
        fine[:, -1] = b
        return QuadratureRule(COMPOSITE_GAUSS_LEGENDRE, self.points,
                              (float(e[0]), *fine.reshape(-1).tolist()))

    def to_dict(self) -> dict:
        """Provenance record; the policy is "structural" or "pipeline" by kind."""
        policy = "structural" if self.kind == COMPOSITE_GAUSS_LEGENDRE else "pipeline"
        return {"kind": self.kind, "points": int(self.points),
                "panels": int(self.n_panels), "policy": policy}


def gauss_chebyshev_rule(points: int) -> QuadratureRule:
    return QuadratureRule(GAUSS_CHEBYSHEV, points, (-1.0, 1.0))


def construction_rule(f, elements, interval: tuple[float, float]) -> QuadratureRule:
    """Composite 16-point GL rule on interval (a norm's domain, a patch, an
    overlap) whose edges honor f's and every element's structure."""
    pieces = [np.asarray(f.panel_edges(), dtype=float)]
    for e in elements:
        pieces.append(np.asarray(e.panel_edges(), dtype=float))
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError(f"empty integration interval [{lo}, {hi}]")
    merged = np.unique(np.concatenate(pieces))
    merged = merged[(merged > lo) & (merged < hi)]
    merged = np.concatenate([[lo], merged, [hi]])
    # grids built from different rational spacings can land an ulp apart;
    # such slivers break panel refinement, so coalesce them
    keep = merged[:1].tolist()
    tol = (hi - lo) * 1e-13
    for v in merged[1:].tolist():
        if v - keep[-1] > tol:
            keep.append(v)
    keep[-1] = hi
    return QuadratureRule(COMPOSITE_GAUSS_LEGENDRE, 16, tuple(keep))


# ----------------------------------------------------------------------------
# integration and norms
# ----------------------------------------------------------------------------

FSUM_CHUNK = 4096


def integrate(fn, rule: QuadratureRule) -> float:
    """Weighted node sum of fn; exactly-rounded accumulation via fsum.

    fsum reads Python floats far faster than numpy scalars, so it is fed
    the products as lists of FSUM_CHUNK at a time: the sum is the same
    exactly rounded value, and no list of every node is held at once."""
    x = rule.nodes
    v = np.asarray(fn(x), dtype=float)
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape)
    bad = ~np.isfinite(v)
    if np.any(bad):
        raise EvaluationError(
            f"non-finite integrand value at node x = {x[bad][0]}", float(x[bad][0]))
    wv = rule.weights * v
    return math.fsum(itertools.chain.from_iterable(
        wv[i:i + FSUM_CHUNK].tolist() for i in range(0, wv.size, FSUM_CHUNK)))


def _values_and_derivatives(integrand, norm: NormTag, rule: QuadratureRule) -> float:
    """The integral of integrand(x, deriv=False), plus under W12 that of
    integrand(x, deriv=True): the one place that decides what a norm pairs.
    The sup norm pairs nothing."""
    if norm.kind == SUP:
        raise UnsupportedNormError("sup norm has no inner product; sup_distance measures it")
    val = integrate(lambda x: integrand(x, False), rule)
    if norm.kind != W12:
        return val
    return val + integrate(lambda x: integrand(x, True), rule)


def _at(fn, x, deriv: bool) -> np.ndarray:
    return np.asarray(fn.evaluate_deriv(x) if deriv else fn.evaluate(x), dtype=float)


def inner_product(f, e, norm: NormTag, rule: QuadratureRule) -> float:
    """<f, e> in the given norm's inner product, by the given rule; sup
    admits no inner product."""
    return _values_and_derivatives(lambda x, d: _at(f, x, d) * _at(e, x, d), norm, rule)


def norm_of_difference(f, g, norm: NormTag, rule: QuadratureRule) -> float:
    """||f - g|| in the given L2 or W12 norm, by the given rule; the sup
    norm is sup_distance's."""

    def squared(x, deriv):
        d = _at(f, x, deriv) - _at(g, x, deriv)
        return d * d

    return math.sqrt(max(_values_and_derivatives(squared, norm, rule), 0.0))


GRID_POINTS = 4097


def sup_distance(f, g, domain: tuple[float, float]):
    """Max of |f - g| over the interval, with the method used.

    When both operands expose linear breakpoints (piecewise-linear
    structure), the difference is piecewise linear and the max over merged
    breakpoints is exact. Otherwise a dense grid scan plus golden-section
    refinement around the best cell yields a flagged estimate.
    """
    lo, hi = domain

    def h(x):
        return np.abs(np.asarray(f.evaluate(x), dtype=float)
                      - np.asarray(g.evaluate(x), dtype=float))

    bf = f.linear_breakpoints()
    bg = g.linear_breakpoints()
    if bf is not None and bg is not None:
        pts = np.unique(np.concatenate([bf, bg, [lo, hi]]))
        pts = pts[(pts >= lo) & (pts <= hi)]
        vals = h(pts)
        return float(np.max(vals)), "breakpoint_sup"

    xs = np.linspace(lo, hi, GRID_POINTS)
    vals = h(xs)
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, GRID_POINTS - 1)]
    best = _golden_max(h, a, b, tol=(hi - lo) * 1e-12)
    return float(max(vals[i], best)), f"grid_{GRID_POINTS}+golden"


def _golden_max(h, a: float, b: float, tol: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1 = float(h(np.asarray([x1]))[0])
    f2 = float(h(np.asarray([x2]))[0])
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = float(h(np.asarray([x2]))[0])
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = float(h(np.asarray([x1]))[0])
    return max(f1, f2)
