r"""Deterministic quadrature, inner products, and norm measurements.

Two grades of accuracy run through everything built on top of this module.
Construction-grade rules are composite 16-point Gauss-Legendre rules whose
panel edges honor every structural breakpoint of the integrand factors
(knots, kinks, oscillation scales), as basis.edge_pieces lists them, on
an interval the caller names.
Verification-grade rules refine each construction panel fourfold in
certificate.measure, so a verifier never evaluates at construction nodes
and cannot alias construction error. QuadratureRule is that rule and no
other: the 16-point table is frozen below, so no path here imports
numpy.polynomial. L2 and W12 norms are integrated; the sup norm is
sup_distance's.

Every weighted sum is exactly rounded, so it does not depend on summation
order, platform or BLAS kernel; this is what makes certificate digests
reproducible across machines. Each is math.fsum of every product, bit for
bit, where math.fsum does not overflow on the way. weighted_sum is the
one-row sum of integrate, inner_product and norm_of_difference: up to
FSUM_CHUNK // 4 products it is math.fsum itself, past that the one-row
row_sums. row_sums sums many rows at once, such as every B-spline Gram
pair or probe, by error-free extraction: each slice of FSUM_CHUNK
products of a row is split, by exact power-of-two scalings and
truncations, into a few partials whose float sums are exact, and one
math.fsum per row rounds its partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import basis
from .errors import ConfigurationError, EvaluationError, UnsupportedNormError
from .records import L2, SUP, W12, NormTag


# leggauss(16)'s nonnegative nodes and weights, bit for bit. It takes them from LAPACK's
# eigvalsh (Golub & Welsch 1969) and symmetrizes exactly, so their mirror is the table
_GL16 = ((0.09501250983763744, 0.18945061045506864), (0.2816035507792589, 0.18260341504492364),
         (0.45801677765722737, 0.16915651939500265), (0.6178762444026438, 0.1495959888165767),
         (0.755404408355003, 0.12462897125553407), (0.8656312023878318, 0.0951585116824926),
         (0.9445750230732326, 0.062253523938647456), (0.9894009349916499, 0.027152459411754176))
# the 16-point table on [-1, 1], ascending: _GL16 and its mirror, read-only
_X16, _W16 = np.array(_GL16).T
_X16, _W16 = np.concatenate((-_X16[::-1], _X16)), np.concatenate((_W16[::-1], _W16))
_X16.setflags(write=False)
_W16.setflags(write=False)


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
    """The composite 16-point Gauss-Legendre rule over a panel decomposition
    of an interval: edges holds the panel boundaries in ascending order; a
    single-panel rule has two edges."""

    edges: tuple[float, ...]

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.size < 2 or np.any(np.diff(e) <= 0.0):
            raise ConfigurationError("panel edges must be strictly increasing")

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
        e = np.asarray(self.edges)
        a, b = e[:-1], e[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        # clipped into its panel, which rounding leaves on a panel a few ulps wide
        x = np.clip(half[:, None] * _X16[None, :] + mid[:, None],
                    a[:, None], b[:, None]).reshape(-1)
        w = (half[:, None] * _W16[None, :]).reshape(-1)
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
        return QuadratureRule((float(e[0]), *fine.reshape(-1).tolist()))


def construction_rule(f, elements, interval: tuple[float, float]) -> QuadratureRule:
    """Composite 16-point GL rule on interval (a norm's domain, a patch, an
    overlap) whose edges honor f's and every element's structure, as
    basis.edge_pieces gives it."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError(f"empty integration interval [{lo}, {hi}]")
    merged = basis.distinct(np.concatenate(basis.edge_pieces([f, *elements])))
    # grids built from different rational spacings can land an ulp apart;
    # such slivers break panel refinement, so coalesce them
    keep, tol = [lo], (hi - lo) * 1e-13
    for v in [*merged[(merged > lo) & (merged < hi)].tolist(), hi]:
        if v - keep[-1] > tol:
            keep.append(v)
    keep[-1] = hi
    return QuadratureRule(tuple(keep))


# ----------------------------------------------------------------------------
# integration and norms
# ----------------------------------------------------------------------------

FSUM_CHUNK = 4096
# 2^_HEADROOM >= 2 * FSUM_CHUNK, so a slice's integer sum stays below 2^52
_HEADROOM = (2 * FSUM_CHUNK - 1).bit_length()


def integrate(fn, rule: QuadratureRule) -> float:
    """Weighted node sum of fn on the rule, exactly rounded: weighted_sum."""
    x = rule.nodes
    return weighted_sum(rule.weights, np.asarray(fn(x), dtype=float), x)


def weighted_sum(w: np.ndarray, v: np.ndarray, x: np.ndarray) -> float:
    """math.fsum of the products w_i * v_i at the nodes x_i, exactly
    rounded. Up to FSUM_CHUNK // 4 products, math.fsum over them as Python
    floats beats the numpy passes of row_sums; past that, or when math.fsum
    ends in a non-finite value or an overflow, the one-row row_sums sums
    them, so the value and the error are row_sums' either way."""
    with np.errstate(over="ignore"):
        wv = w * v
    if wv.size <= FSUM_CHUNK // 4:
        try:
            total = math.fsum(wv.tolist())
        except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
            total = math.nan
        if math.isfinite(total):
            return total
    return row_sums(1, x, lambda at: wv[None, at])[0]


def row_sums(rows: int, x: np.ndarray, products) -> list[float]:
    """math.fsum of each of `rows` rows of products, exactly rounded.

    products(at) gives the (rows, n) block of products at the nodes x[..., at]
    (x shared, or one row each), for the slices at of FSUM_CHUNK nodes in
    turn, and may be overwritten.
    Each block is reduced by error-free extraction (ExtractVector of Rump,
    Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008), row by row: while a
    row r has a nonzero entry, with max|r| < 2^e take s = e + _HEADROOM - 53
    and

        h = trunc(r * 2^-s) * 2^s,   partial = sum(h * 2^-s) * 2^s,   r -= h.

    Every step is exact. Truncation keeps the bits of each entry at or
    above 2^s, so h and r - h keep bit subsets of r; r * 2^-s is exact but
    where it underflows, and there it is below 1 and truncates to 0 anyway.
    Each |h * 2^-s| is an integer below 2^(53 - _HEADROOM), so the sum of
    at most FSUM_CHUNK of them is an integer below 2^52 in whatever order
    numpy adds them, and the partial is exact too. The remainder of each
    entry is below 2^s, so each pass lowers e by at least 53 - _HEADROOM
    bits, and a pass with 2^s at or below the smallest subnormal empties
    r. Each row has its own s and leaves the loop once it is empty. Its
    partials therefore sum exactly to the sum of its products, and one
    math.fsum over them rounds that sum correctly, so no order-dependent
    reduction reaches a digest. So leaving out products that are exact
    zeros does not change it either; a row of zeros has no partials, and
    math.fsum([]) is +0.0, as math.fsum of zeros of either sign is. A
    partial past the float range is kept as an int, and where math.fsum
    overflows, the partials' exact Fraction sum is rounded once: only a
    sum outside the float range raises EvaluationError, as does a product
    that is not finite, naming the first such node of its row (where the
    row's first max|r| is not finite). The temporaries stay one block.
    """
    parts: list[list] = [[] for _ in range(rows)]
    for i in range(0, x.shape[-1], FSUM_CHUNK):
        at = slice(i, i + FSUM_CHUNK)
        r = products(at)
        ints = np.empty(r.shape)
        top = np.maximum.reduce(np.abs(r, out=ints), axis=1)
        if not np.isfinite(top).all():
            bad = np.argmax(~np.isfinite(top))
            node = float(np.broadcast_to(x[..., at], r.shape)[bad][~np.isfinite(r[bad])][0])
            raise EvaluationError(f"non-finite weighted integrand at node x = {node}", node)
        live = np.arange(rows)
        while True:
            if not top.all():  # drop the rows that are empty
                keep = top != 0.0
                live, r, top = live[keep], r[keep], top[keep]
                if not live.size:
                    break
                ints = ints[:live.size]
            s = np.frexp(top)[1][:, None] + (_HEADROOM - 53)
            np.trunc(np.ldexp(r, -s, out=ints), out=ints)
            for k, total, e in zip(live.tolist(), np.add.reduce(ints, axis=1).tolist(),
                                   s.ravel().tolist()):
                try:
                    parts[k].append(math.ldexp(total, e))
                except OverflowError:  # e > 0 here, so the partial is an int
                    parts[k].append(int(total) << e)
            r -= np.ldexp(ints, s, out=ints)
            top = np.maximum.reduce(np.abs(r, out=ints), axis=1)
    try:
        return [math.fsum(p) for p in parts]
    except OverflowError:  # on the way, or at a partial past the float range
        try:
            return [float(sum(map(Fraction, p))) for p in parts]
        except OverflowError:
            raise EvaluationError("weighted node sum overflows the float range") from None


def paired(norm: NormTag) -> tuple[bool, ...]:
    """The deriv flags a norm's inner product pairs: values under L2, values
    then first derivatives under W12; the one place that decides it. An
    inner product or norm adds its flags' sums in this order by sum(),
    whose start 0 keeps the first sum's bits. The sup norm pairs nothing."""
    if norm.kind == SUP:
        raise UnsupportedNormError("sup norm has no inner product; sup_distance measures it")
    return (False, True) if norm.kind == W12 else (False,)


def _at(fn, x, deriv: bool) -> np.ndarray:
    """fn's values, or with deriv its slopes, at x as a float array: the
    one place a value-or-slope flag picks evaluate or evaluate_deriv."""
    return np.asarray(fn.evaluate_deriv(x) if deriv else fn.evaluate(x), dtype=float)


def inner_product(f, e, norm: NormTag, rule: QuadratureRule) -> float:
    """<f, e> in the given norm's inner product, by the given rule; sup
    admits no inner product."""
    x, w = rule.nodes, rule.weights
    return sum(weighted_sum(w, _at(f, x, d) * _at(e, x, d), x) for d in paired(norm))


def norm_of_difference(f, g, norm: NormTag, rule: QuadratureRule) -> float:
    """||f - g|| in the given L2 or W12 norm, by the given rule; the sup
    norm is sup_distance's."""
    x, w = rule.nodes, rule.weights
    diffs = (_at(f, x, d) - _at(g, x, d) for d in paired(norm))
    return math.sqrt(max(sum(weighted_sum(w, d * d, x) for d in diffs), 0.0))


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
        return np.abs(_at(f, x, False) - _at(g, x, False))

    bf = f.linear_breakpoints()
    bg = g.linear_breakpoints()
    if bf is not None and bg is not None:
        pts = basis.distinct(np.concatenate([bf, bg, [lo, hi]]))
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
