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

Every weighted sum is exactly rounded, so it does not depend on summation
order, platform or BLAS kernel; this is what makes certificate digests
reproducible across machines. integrate gets there by error-free
extraction: each full slice of FSUM_CHUNK products is split, by exact
power-of-two scalings and truncations, into a few partials whose float sums
are exact, and one math.fsum rounds those partials together with the short
leftover slice. Its result is bit for bit math.fsum of every product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import basis
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


def gauss_chebyshev_rule(points: int) -> QuadratureRule:
    return QuadratureRule(GAUSS_CHEBYSHEV, points, (-1.0, 1.0))


def construction_rule(f, elements, interval: tuple[float, float]) -> QuadratureRule:
    """Composite 16-point GL rule on interval (a norm's domain, a patch, an
    overlap) whose edges honor f's and every element's structure. The
    B-spline elements of one family add their supports' knots in one piece
    (basis.support_knots), the edges their panel_edges would add."""
    pieces = [np.asarray(f.panel_edges(), dtype=float)]
    splines: dict[basis.BasisFamily, list[int]] = {}
    for e in elements:
        if isinstance(e, basis.BasisElement) and e.family.kind == basis.CUBIC_BSPLINE:
            splines.setdefault(e.family, []).append(e.index)
        else:
            pieces.append(np.asarray(e.panel_edges(), dtype=float))
    pieces += [basis.support_knots(fam, idx) for fam, idx in splines.items()]
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
# 2^_HEADROOM >= 2 * FSUM_CHUNK, so a slice's integer sum stays below 2^52
_HEADROOM = (2 * FSUM_CHUNK - 1).bit_length()


def integrate(fn, rule: QuadratureRule) -> float:
    """Weighted node sum of fn on the rule, exactly rounded: weighted_sum."""
    x = rule.nodes
    v = np.asarray(fn(x), dtype=float)
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape)
    return weighted_sum(rule.weights, v, x)


def weighted_sum(w: np.ndarray, v: np.ndarray, x: np.ndarray) -> float:
    """math.fsum of the products w_i * v_i at the nodes x_i, exactly rounded.

    The products must be finite. Each full slice r of FSUM_CHUNK of them
    is reduced by error-free extraction (ExtractVector of Rump, Ogita and
    Oishi, SIAM J. Sci. Comput. 31, 2008): while r has a nonzero entry,
    with max|r| < 2^e take s = e + _HEADROOM - 53 and

        h = trunc(r * 2^-s) * 2^s,   partial = sum(h * 2^-s) * 2^s,   r -= h.

    Every step is exact. Truncation keeps the bits of each entry at or
    above 2^s, so h and r - h keep bit subsets of r; r * 2^-s is exact but
    where it underflows, and there it is below 1 and truncates to 0 anyway.
    Each |h * 2^-s| is an integer below 2^(53 - _HEADROOM), so the sum
    of FSUM_CHUNK of them is an integer below 2^52 in whatever order numpy
    adds them, and the partial is exact too. The remainder of each entry
    is below 2^s, so each pass lowers e by at least 53 - _HEADROOM bits,
    and a pass with 2^s at or below the smallest subnormal empties r. The
    partials and the leftover slice (shorter than FSUM_CHUNK) therefore
    sum exactly to the sum of the products, and one math.fsum rounds that
    sum correctly: the value is bit for bit that of math.fsum over every
    product, and no order-dependent reduction reaches a digest. So leaving
    out products that are exact zeros does not change it either. A product
    that is not finite raises EvaluationError naming its node, and so does
    a sum that leaves the float range on the way. Under FSUM_CHUNK
    products go to math.fsum as floats alone, with no slice buffer, and the
    temporaries stay one slice in size.
    """
    with np.errstate(over="ignore"):
        wv = w * v
    if not np.isfinite(wv).all():
        at = float(x[~np.isfinite(wv)][0])
        raise EvaluationError(f"non-finite weighted integrand at node x = {at}", at)
    full = wv.size - wv.size % FSUM_CHUNK
    parts = wv[full:].tolist()
    ints = np.empty(FSUM_CHUNK) if full else None
    try:
        for i in range(0, full, FSUM_CHUNK):
            r = wv[i:i + FSUM_CHUNK]  # a view: wv is spent slice by slice
            top = max(r.max(), -r.min())
            while top:
                s = math.frexp(top)[1] + _HEADROOM - 53
                np.trunc(np.ldexp(r, -s, out=ints), out=ints)
                parts.append(math.ldexp(float(ints.sum()), s))
                r -= np.ldexp(ints, s, out=ints)
                top = max(r.max(), -r.min())
        return math.fsum(parts)
    except OverflowError:
        raise EvaluationError("weighted node sum overflows the float range") from None


def paired(norm: NormTag) -> tuple[bool, ...]:
    """The deriv flags a norm's inner product pairs: values under L2, values
    then first derivatives under W12; the one place that decides it. The
    sup norm pairs nothing."""
    if norm.kind == SUP:
        raise UnsupportedNormError("sup norm has no inner product; sup_distance measures it")
    return (False, True) if norm.kind == W12 else (False,)


def _values_and_derivatives(integrand, norm: NormTag, rule: QuadratureRule) -> float:
    """The integral of integrand(x, deriv) for each flag paired(norm) gives,
    added in that order."""
    val, *der = [integrate(lambda x, d=d: integrand(x, d), rule) for d in paired(norm)]
    return val + der[0] if der else val


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
