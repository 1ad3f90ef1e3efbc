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
bit, where math.fsum does not overflow on the way. row_sums alone takes
them, one row for integrate, inner_product and norm_of_difference
(weighted_sum), many at once for the B-spline Gram pairs and the probes,
and its docstring gives the one exactness argument.
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
# the bits an extraction pass takes from a row: its integers lie below 2^40
_PASS_BITS = 53 - _HEADROOM
# the most products of a block that row_sums hands to math.fsum as they are;
# past it extraction is faster (the two meet near 500-600 products)
FSUM_PRODUCTS = FSUM_CHUNK // 8


def integrate(fn, rule: QuadratureRule) -> float:
    """Weighted node sum of fn on the rule, exactly rounded: weighted_sum."""
    x = rule.nodes
    return weighted_sum(rule.weights, np.asarray(fn(x), dtype=float), x)


def weighted_sum(w: np.ndarray, v: np.ndarray, x: np.ndarray) -> float:
    """math.fsum of the products w_i * v_i at the nodes x_i, exactly
    rounded: the one-row row_sums, its value and its errors."""
    with np.errstate(over="ignore"):
        wv = w * v
    return row_sums(1, x, lambda at: wv[None, at])[0]


def row_sums(rows: int, x: np.ndarray, products) -> list[float]:
    """math.fsum of each of `rows` rows of products, exactly rounded.

    products(at) gives the (rows, n) block of products at the nodes x[..., at]
    (x shared, or one row each), for the slices at of FSUM_CHUNK nodes in
    turn, and may be overwritten. Each block adds partials to its rows whose
    exact sums are those of its rows' products. A block of at most
    FSUM_PRODUCTS products, all finite, adds the products themselves: the
    final math.fsum over a few hundred Python floats beats the passes below.
    A larger block is reduced by error-free extraction (ExtractVector of
    Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008). With k = _PASS_BITS,
    max|r| < 2^e for a row r and s = e - k, a row under 2^k (s <= 0) is
    scaled once to r * 2^-s, all rows in one ldexp, and then, while the
    block has a nonzero entry, each pass takes for every row at once

        h = trunc(r),   partial = sum(h) * 2^s,   r = (r - h) * 2^k,   s -= k.

    Every step is exact. Scaling a float up by a power of two is exact,
    subnormals too, and leaves the scaled r under 2^k, so each |h| is an
    integer below 2^k and the sum of at most FSUM_CHUNK of them an integer
    below 2^52 in whatever order numpy adds them. r - h keeps the bits of r
    below 1, so it lies in (-1, 1), and (r - h) * 2^k is exact and under
    2^k again. sum(h) * 2^s is exact: for s < -1074, r holds remainders of
    products, multiples of 2^-1074, times 2^-s, so sum(h) is a multiple of
    2^(-1074 - s) and the partial a multiple of 2^-1074 below 2^(52 + s);
    that pass empties r. A row at 2^k or more, which a scaling down would
    rob of its smallest entries, first takes unscaled passes, each with s
    from its top, until its top falls under 2^k:

        h = trunc(r * 2^-s) * 2^s,   partial = sum(h * 2^-s) * 2^s,   r -= h.

    These are exact too: r * 2^-s is exact but where it underflows, and
    there it is below 1 and truncates to 0 anyway. Their partials are kept
    as ints, as they may lie past the float range. Each row's partials sum
    exactly to the sum of its products, and one math.fsum over them rounds
    that sum correctly, so no order-dependent reduction reaches a digest,
    and products that are exact zeros do not change it: math.fsum of zeros
    of either sign is +0.0. Where math.fsum overflows, the partials' exact
    Fraction sum is rounded once: only a sum outside the float range raises
    EvaluationError, as does a product that is not finite, naming the first
    such node of its row (where the row's first max|r| is not finite). The
    temporaries stay one block.
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
        if r.size <= FSUM_PRODUCTS:
            for p, row in zip(parts, r.tolist()):
                p += row
            continue
        s = np.frexp(top)[1] - _PASS_BITS
        np.ldexp(r, -np.minimum(s, 0)[:, None], out=r)
        big, passes = np.flatnonzero(s > 0), []
        while True:
            if big.size:  # an unscaled pass, on the rows at 2^k or more
                b, e = r[big], s[big, None]
                h = np.trunc(np.ldexp(b, -e))
                b -= np.ldexp(h, e)
                for row, total, n in zip(big.tolist(), np.add.reduce(h, axis=1).tolist(),
                                         e.ravel().tolist()):
                    parts[row].append(int(total) << n)
                s[big] = np.frexp(np.maximum.reduce(np.abs(b), axis=1))[1] - _PASS_BITS
                r[big] = np.ldexp(b, -np.minimum(s[big], 0)[:, None])
                big = big[s[big] > 0]
                continue
            np.trunc(r, out=ints)
            r -= ints
            passes.append(np.ldexp(np.add.reduce(ints, axis=1), s).tolist())
            if not r.any():
                break
            r *= 2.0 ** _PASS_BITS
            s -= _PASS_BITS
        for p, *partials in zip(parts, *passes):
            p += partials
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
