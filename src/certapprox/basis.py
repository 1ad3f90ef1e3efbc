r"""Basis families on an interval: the one module that knows how each
family evaluates and where its structure lies.

Five families: Chebyshev polynomials T_j on [-1, 1], the orthonormal sine
system sqrt(2) sin(j pi x) on [0, 1], raw monomials x^j, the dyadic tent
hierarchy phi_{2^k} on [0, 1] (FIXED_DOMAINS), and clamped uniform cubic
B-splines on an arbitrary interval. An element evaluates pointwise or on
numpy arrays, differentiates (one-sided, right-hand convention at kinks),
and reports a support interval that is sound: the element vanishes
identically outside it. Every B-spline value and slope is read by one
SpanTable: per node, its knot span s and the four B-splines non-zero
there, N_{s-3..s,3}, from one pass up the Cox-de Boor triangle
(span_table); its sum adds each node's four columns, its gather reads
single elements, and a series' values and slopes at one node set read
one table (SplineSum). A sine series is summed by Reinsch's recurrence
(_sine_sum). Every other value and slope, of one element or of a series,
is a row of one term table (term_table): terms by nodes, each kind's
formula written once. series_sum picks a series' evaluator, which in
every family sums merged(terms), the one meaning of a term list, in
index order; series_edges, series_kinks and edge_pieces give where a
rule must break. A family itself, BasisFamily, is a sealed record.

Index conventions: chebyshev, monomial and tent start at 0 (T_0, x^0 and
phi_1 are all needed downstream), fourier_sine starts at 1, cubic_bspline
runs 1..M over the clamped family of M functions on M-3 uniform spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, DomainError
from .records import (CHEBYSHEV, CUBIC_BSPLINE, FIXED_DOMAINS, FOURIER_SINE, KINDS,
                      MAX_PANELS, MAX_TENT_LEVEL, MONOMIAL, TENT, BasisFamily, over_budget)


# ----------------------------------------------------------------------------
# families
# ----------------------------------------------------------------------------

def chebyshev_family() -> BasisFamily:
    return BasisFamily(CHEBYSHEV, FIXED_DOMAINS[CHEBYSHEV])


def fourier_sine_family() -> BasisFamily:
    return BasisFamily(FOURIER_SINE, FIXED_DOMAINS[FOURIER_SINE])


def monomial_family(domain: tuple[float, float] = (0.0, 1.0)) -> BasisFamily:
    return BasisFamily(MONOMIAL, domain)


def tent_family() -> BasisFamily:
    return BasisFamily(TENT, FIXED_DOMAINS[TENT])


def cubic_bspline_family(m: int, domain: tuple[float, float] = (0.0, 1.0)) -> BasisFamily:
    return BasisFamily(CUBIC_BSPLINE, domain, m)


@lru_cache(maxsize=256)
def _clamped_knots(lo: float, hi: float, m: int) -> np.ndarray:
    # m functions, m-3 spans, m-4 interior knots; ends carry multiplicity 4.
    # A series' rule has a panel per span, so the spans share the panel budget.
    if m - 3 > MAX_PANELS:
        raise over_budget(f"{CUBIC_BSPLINE} family of {m} functions")
    interior = np.linspace(lo, hi, m - 2)[1:-1]
    k = np.concatenate([[lo] * 4, interior, [hi] * 4])
    k.setflags(write=False)
    return k


# ----------------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """One element of a family. value and deriv map a float array inside the
    domain, unchecked; evaluate and evaluate_deriv add the domain check and
    the scalar-in, scalar-out rule."""

    family: BasisFamily
    index: int

    def __post_init__(self):
        self.family.check_index(self.index)

    def evaluate(self, x):
        return pointwise(self.family.domain, self.value, x)

    def evaluate_deriv(self, x):
        return pointwise(self.family.domain, self.deriv, x)

    def value(self, xs: np.ndarray) -> np.ndarray:
        return self._rows(xs, False)

    def deriv(self, xs: np.ndarray) -> np.ndarray:
        return self._rows(xs, True)

    def _rows(self, xs: np.ndarray, deriv: bool) -> np.ndarray:
        # the one-term case of the family's evaluator, in the shape of xs
        if self.family.kind == CUBIC_BSPLINE:
            return SplineSum(self.family, ((self.index, 1.0),))(xs, deriv)
        xs = np.asarray(xs, dtype=float)
        return term_table(self.family, (self.index,), xs.reshape(-1), deriv).reshape(xs.shape)

    def support(self) -> tuple[float, float]:
        fam = self.family
        if fam.kind == CUBIC_BSPLINE:
            t, j = fam.knots(), self.index
            return (float(t[j - 1]), float(t[j + 3]))
        return fam.domain

    def panel_edges(self) -> np.ndarray:
        """Breakpoints a composite quadrature rule should honor for this element.

        B-splines get their knots; the rest a uniform grid whose panel count,
        from the index alone, is ceil((j + 1) / 8) for Chebyshev T_j,
        ceil((j + 1) / 16) for x^j, j for sine j and 2^(j+1) for tent level j,
        checked against MAX_PANELS before any grid is built.
        """
        kind, j = self.family.kind, self.index
        if kind == CUBIC_BSPLINE:
            return distinct(support_knots(self.family, (j,)))
        panels = {CHEBYSHEV: j // 8 + 1, MONOMIAL: j // 16 + 1, FOURIER_SINE: j,
                  TENT: 2 ** (min(j, MAX_TENT_LEVEL + 1) + 1)}[kind]
        if panels > MAX_PANELS:
            raise over_budget(f"{kind} element {j}")
        return np.linspace(*self.family.domain, panels + 1)


def pointwise(domain: tuple[float, float], fn, x):
    """fn on x as a float array after the domain check; a scalar x gives a float."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = domain
    flat = xs.reshape(-1)
    bad = flat[~((flat >= lo) & (flat <= hi))]  # NaN fails both comparisons
    if bad.size:
        raise DomainError(f"x = {bad[0]} outside [{lo}, {hi}]")
    v = fn(xs)
    return v if np.ndim(x) else float(v[0])


def support_knots(family: BasisFamily, indices) -> np.ndarray:
    """The knots t[j-1..j+3] of the supports of B-spline elements j in
    indices, ascending, from one mask over the family's knot vector; an
    index range no support covers adds none, and the clamped ends repeat."""
    t = family.knots()
    cover = np.zeros(t.size + 1, dtype=int)
    j = np.asarray(indices, dtype=int)
    np.add.at(cover, j - 1, 1)
    np.add.at(cover, j + 4, -1)
    return t[np.cumsum(cover[:-1]) > 0]


def edge_pieces(items) -> list[np.ndarray]:
    """The panel edges a rule should honor for each item (an element, a
    target or a series), as arrays whose union is every item's
    panel_edges: the B-spline elements of one family give their supports'
    knots in one piece (support_knots), the rest their own edges."""
    pieces, splines = [], {}
    for e in items:
        if isinstance(e, BasisElement) and e.family.kind == CUBIC_BSPLINE:
            splines.setdefault(e.family, []).append(e.index)
        else:
            pieces.append(np.asarray(e.panel_edges(), dtype=float))
    return pieces + [support_knots(fam, idx) for fam, idx in splines.items()]


# ----------------------------------------------------------------------------
# the term table: every element of a series at a chunk of nodes
# ----------------------------------------------------------------------------

# term-node entries per table, so that a table and its temporaries stay a
# few hundred KB however many terms and nodes a caller has
TABLE_ENTRIES = 16384


def term_table(family: BasisFamily, indices, x: np.ndarray, deriv: bool = False) -> np.ndarray:
    """Values, or with deriv right-hand slopes, of the elements `indices`
    of a chebyshev, fourier_sine, monomial or tent family at the nodes x,
    1-D and inside the domain, as a (len(indices), x.size) array whose row
    k is element indices[k]; B-splines read their span table instead.

    Every entry gets the floating-point operations of its element alone,
    in the same order: T_j is cos(j arccos(x)) from one arccos per node,
    sqrt(2) sin(j pi x) scales its angle by the float j pi, a tent takes
    2^j x by ldexp, and x^j is x ** j row by row, because numpy picks its
    power loop by the exponent's type and layout (a scalar 2 squares), and
    np.power over an array of exponents can round x^2 otherwise. numpy's
    elementwise functions depend on the value alone, not on its neighbours
    or the array's length, so a row is bit for bit its element at any node
    count (tests/test_target.py checks that).
    """
    kind, js = family.kind, list(indices)
    if kind == CHEBYSHEV:
        if deriv:
            return _chebyshev_slopes(js, x)
        t = np.multiply.outer(np.asarray(js, dtype=float), np.arccos(np.clip(x, -1.0, 1.0)))
        return np.cos(t, out=t)
    if kind == FOURIER_SINE:
        t = np.multiply.outer(np.asarray([j * np.pi for j in js]), x)
        if deriv:
            scale = np.asarray([math.sqrt(2.0) * j * np.pi for j in js])[:, None]
            return np.multiply(scale, np.cos(t, out=t), out=t)
        return np.multiply(math.sqrt(2.0), np.sin(t, out=t), out=t)
    if kind == MONOMIAL:
        rows = np.zeros((len(js), x.size))
        for row, j in zip(rows, js):
            if not deriv:
                row[:] = x ** j
            elif j > 0:
                row[:] = j * x ** (j - 1)
        return rows
    if kind == TENT:
        frac = np.ldexp(x, np.asarray(js, dtype=int)[:, None])  # 2^j * x, exact
        frac -= np.floor(frac)  # exact, and in place
        if deriv:
            # right-hand derivative: rising on [0, 1/2), falling on [1/2, 1)
            up = np.asarray([2.0 ** (j + 1) for j in js])[:, None]
            return np.where(frac < 0.5, up, -up)
        return np.multiply(2.0, np.minimum(frac, 1.0 - frac, out=frac), out=frac)
    raise ConfigurationError(f"{kind} reads its span table, not a term table")


def _chebyshev_slopes(js: list, x: np.ndarray) -> np.ndarray:
    # j sin(j theta) / sin(theta) inside, and the limits j^2 and
    # (-1)^(j+1) j^2 within 1e-12 of the ends; T_0 is flat
    out = np.empty((len(js), x.size))
    near_hi = x > 1.0 - 1e-12
    near_lo = x < -1.0 + 1e-12
    mid = ~(near_hi | near_lo)
    theta = np.arccos(np.clip(x[mid], -1.0, 1.0))
    jf = np.asarray(js, dtype=float)[:, None]
    out[:, mid] = jf * np.sin(jf * theta) / np.sin(theta)
    out[:, near_hi] = np.asarray([float(j * j) for j in js])[:, None]
    out[:, near_lo] = np.asarray([float((-1) ** (j + 1) * j * j) for j in js])[:, None]
    out[np.asarray([j == 0 for j in js], dtype=bool)] = 0.0
    return out


# ----------------------------------------------------------------------------
# the span table: Cox-de Boor over the non-zero B-splines of each node
# ----------------------------------------------------------------------------

# nodes per pass up the triangle, so that its temporaries stay a few
# hundred KB however many nodes a rule has
SPAN_CHUNK = 1024


def span_table(t: np.ndarray, x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and right-hand slopes of the four B-splines N_{s-3..s,3} that
    may be non-zero at each node x in span s, as two (n, 4) arrays; column r
    holds N_{s-3+r,3}. One pass up the Cox-de Boor triangle over gathered
    knots (de Boor, A Practical Guide to Splines, rev. 2001): degree p
    fills N_{s-p+q,p}, q = 0..p, from +0.0 as

        (+0.0 + (x - t_k)/d1 N_{k,p-1}) + (t_{k+p+1} - x)/d2 N_{k+1,p-1},

    k = s - p + q, leaving out the two terms outside the triangle, which
    are exact zeros. Both widths are t[s+1+j] - t[s-p+1+j] for some j, so
    they are positive in a non-empty span and no division is masked. The
    slope of N_{k,3} is (+0.0 + 3/d1 N_{k,2}) + (-3/d2) N_{k+1,2}. Every
    entry is bit for bit that of the recursive formula, which computes the
    same terms in the same order and adds zeros for the rest.
    """
    xc = x[:, None]
    tk = t[s[:, None] + np.arange(-2, 4)]  # t[s-2], ..., t[s+3]
    row = np.ones((x.size, 1))
    for p in (1, 2, 3):
        left, right = tk[:, 3 - p:3], tk[:, 3:3 + p]  # t[s-p+1..s], t[s+1..s+p]
        d = right - left
        if p == 3:
            slopes = np.zeros((x.size, 4))
            slopes[:, 1:] += 3 / d * row
            slopes[:, :3] += -3 / d * row
        new = np.zeros((x.size, p + 1))
        new[:, 1:] += (xc - left) / d * row
        new[:, :p] += (right - xc) / d * row
        row = new
    return row, slopes


class SpanTable:
    """Elements of a B-spline family at nodes x inside its domain, unchecked:
    per node its span s and span_table rows (element j in column j + 2 - s).
    A node's span is the last s with t[s] <= x, so t[s] < t[s+1]; x == hi
    is closed into the last non-empty span."""

    def __init__(self, family: BasisFamily, x: np.ndarray):
        t = family.knots()
        last = int(np.searchsorted(t, t[-1])) - 1
        self.m = family.m
        self.s = np.minimum(np.searchsorted(t, x, side="right") - 1, last)
        self.rows = (np.empty((x.size, 4)), np.empty((x.size, 4)))
        for c in range(0, x.size, SPAN_CHUNK):
            at = slice(c, c + SPAN_CHUNK)
            self.rows[0][at], self.rows[1][at] = span_table(t, x[at], self.s[at])

    def sum(self, terms, deriv: bool) -> np.ndarray:
        """sum a N_{j-1,3}, or of the slopes, over merged(terms) at each node:
        +0.0 + coef[s-2+r] N_{s-3+r,3} for r = 0..3 in turn at a node in span
        s, with coef the dense coefficient vector. That is bit for bit the
        loop that adds each merged term on its own spans alone: an absent
        element adds +-0.0, and a sum that starts at +0.0 never becomes -0.0.
        """
        coef = np.zeros(self.m + 1)
        for j, a in merged(terms):
            coef[j] = a
        v = np.zeros(self.s.size)
        for r in range(4):
            v += coef[self.s + (r - 2)] * self.rows[deriv][:, r]
        return v

    def gather(self, index, nodes: np.ndarray, deriv: bool) -> np.ndarray:
        """Elements `index` or their slopes at the node positions `nodes`,
        broadcast together: column index + 2 - s of each node's row, or +0.0,
        bit for bit the one-term sum (no entry is -0.0: each sums from +0.0)."""
        r = index + 2 - self.s[nodes]  # one of the four iff r & ~3 == 0
        return np.where((r & ~3) == 0, self.rows[deriv].ravel().take(4 * nodes + (r & 3)), 0.0)


class SplineSum:
    """The (x, deriv=False) evaluator of sum a N_{j-1,3}(x), or of the
    slopes, over merged(terms), at x of any shape inside the domain,
    unchecked: a SpanTable over the nodes from the first support's start to
    the last one's end, +0.0 elsewhere, kept until nodes that differ in
    content come, so values and slopes at one node set read one table."""

    def __init__(self, family: BasisFamily, terms):
        self.family, self.terms, self.nodes, self.table = family, terms, None, None

    def __call__(self, x: np.ndarray, deriv: bool = False) -> np.ndarray:
        v = np.zeros(x.shape)
        if self.terms:
            t, flat = self.family.knots(), x.reshape(-1)
            lo, hi = t[min(j for j, _ in self.terms) - 1], t[max(j for j, _ in self.terms) + 3]
            inside = np.flatnonzero((flat >= lo) & (flat <= hi))
            nodes = flat[inside]
            if self.nodes is None or not np.array_equal(nodes, self.nodes):
                self.table = None  # freed before its successor is built
                self.nodes, self.table = nodes, SpanTable(self.family, nodes)
            v.reshape(-1)[inside] = self.table.sum(self.terms, deriv)
        return v


# ----------------------------------------------------------------------------
# series: each family's one evaluator, and where a series' structure lies
# ----------------------------------------------------------------------------

def merged(terms) -> tuple[tuple[int, float], ...]:
    """The one meaning of a term list: its indices in ascending order, each
    with the sum of its coefficients in term order, from +0.0."""
    coeffs: dict[int, float] = {}
    for j, a in terms:
        coeffs[j] = coeffs.get(j, 0.0) + a
    return tuple(sorted(coeffs.items()))


def series_sum(family: BasisFamily, terms):
    """The (x, deriv=False) evaluator of sum a e_j, or of the slopes, over
    merged(terms), at x of any shape inside the domain, unchecked: a sine
    series by Reinsch's recurrence (_sine_sum), a B-spline series by one
    span table per node set (SplineSum), every other family by one term
    table per chunk of nodes (_table_sum)."""
    if family.kind == FOURIER_SINE:
        return partial(_sine_sum, _sine_runs(terms))
    if family.kind == CUBIC_BSPLINE:
        return SplineSum(family, terms)
    terms = merged(terms)
    return partial(_table_sum, family, tuple(j for j, _ in terms),
                   np.asarray([a for _, a in terms]).reshape(-1, 1))


def distinct(a) -> np.ndarray:
    """np.unique(a) of NaN-free a, bit for bit (a run of +-0.0 keeps its zero), without
    the numpy.ma import of its first call: a sorted as np.unique sorts it, each value
    kept where it differs from its left neighbour."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def series_edges(family: BasisFamily, terms) -> np.ndarray:
    """The panel edges of a series over the (j, a) terms: the domain for
    none, every knot of a B-spline family, else the panel edges of the
    element of the highest index alone. That grid has the most panels of
    any term's, but need not contain the others' edges: T_16's thirds miss
    T_8's 0, and sine j's grid k/j holds sine i's only where i divides j."""
    if not terms:
        return np.asarray(family.domain)
    if family.kind == CUBIC_BSPLINE:
        return distinct(family.knots())
    return family.element(max(j for j, _ in terms)).panel_edges()


def series_kinks(family: BasisFamily, terms) -> np.ndarray | None:
    """The kinks of a tent series to level MAX_TENT_LEVEL, its top element's
    grid, or None. Deeper tent sums, which only a forged limit member reaches
    (an honest one measures as "same_series"), fall back to estimated sup norms."""
    if family.kind != TENT or (top := max((j for j, _ in terms), default=0)) > MAX_TENT_LEVEL:
        return None
    return family.element(top).panel_edges()


# Bridging a gap in the sine indices costs a multiply and three adds per
# node and missing index; starting a new run costs a sine and a cosine per
# node, about as much as bridging a gap of this width.
SINE_RUN_GAP = 16
# nodes per recurrence pass; its four working arrays stay in the L2 cache
SINE_CHUNK = 8192


def _sine_runs(terms) -> list[tuple[int, np.ndarray]]:
    """The sine coefficients as runs (j0, c), c[k] that of index j0 + k,
    for _sine_sum: merged(terms) split where two neighbouring indices lie
    more than SINE_RUN_GAP apart, the indices a run skips at zero, and the
    first run from index 0 when it can, so a series of low indices needs
    no shift."""
    runs: list[tuple[int, list[float]]] = [(0, [])]
    prev = 0
    for j, a in merged(terms):
        if j - prev > SINE_RUN_GAP:
            runs.append((j, []))
        j0, cs = runs[-1]
        cs.extend([0.0] * (j - j0 - len(cs)))
        cs.append(a)
        prev = j
    return [(j0, np.asarray(cs)) for j0, cs in runs if cs]


def _sine_sum(runs, x: np.ndarray, deriv: bool = False) -> np.ndarray:
    """sqrt(2) sum_j a_j sin(j pi x), or with deriv its derivative
    sqrt(2) pi sum_j j a_j cos(j pi x), over _sine_runs' runs. A node
    x > 1/2 is evaluated at y = 1 - x, which is exact there, with the
    reflected coefficients (-1)^(j+1) a_j, or (-1)^j j a_j for the
    derivative, so every angle pi y lies in [0, pi/2], where Reinsch's
    recurrence is stable (see _sine_chunk)."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    far = flat > 0.5
    for reflected in (False, True):
        at = np.flatnonzero(far == reflected)
        y = 1.0 - flat[at] if reflected else flat[at]
        passes = []
        for j0, c in runs:
            j = np.arange(j0, j0 + c.size)
            cs = j * c if deriv else c
            if reflected:
                cs = np.where(j % 2 == deriv, -cs, cs)
            passes.append((j0, cs.tolist()))
        for i in range(0, at.size, SINE_CHUNK):
            out[at[i:i + SINE_CHUNK]] = _sine_chunk(passes, y[i:i + SINE_CHUNK], deriv)
    scale = math.sqrt(2.0) * math.pi if deriv else math.sqrt(2.0)
    return (scale * out).reshape(x.shape)


def _cache_aligned(count: int, n: int) -> list[np.ndarray]:
    """count empty float arrays of n entries, each starting on a 64-byte
    boundary. _sine_chunk's loop runs up to 40% slower on arrays that
    straddle cache lines, and where the heap puts an array is otherwise
    down to every allocation made before it."""
    stride = -(-n // 8) * 8
    buf = np.empty(count * stride + 8)
    k = -(buf.ctypes.data // 8) % 8
    return [buf[k + i * stride:k + i * stride + n] for i in range(count)]


def _sine_chunk(passes, y: np.ndarray, deriv: bool) -> np.ndarray:
    """sum over the passes (j0, c) of sum_k c_k sin((j0 + k) theta), or with
    deriv cos((j0 + k) theta), at theta = pi y in [0, pi/2], by Reinsch's
    form of Clenshaw's recurrence (Stoer & Bulirsch, Introduction to
    Numerical Analysis, 2.3): with u = -4 sin^2(theta/2),
    d_k = c_k + u b_{k+1} + d_{k+1} and b_k = d_k + b_{k+1} give
    sum_k c_k sin(k theta) = sin(theta) b_1 and
    sum_k c_k cos(k theta) = c_0 + d_1 + (u/2) b_1. A pass that starts at
    j0 > 0 shifts both by the angle j0 theta. Only elementwise + - * run
    per term, so a node's value depends on neither its neighbours nor the
    chunking."""
    s = np.sin((0.5 * np.pi) * y)
    u, b, d, t = _cache_aligned(4, y.size)
    np.multiply(s, s, out=u)
    u *= -4.0
    sin_theta = 2.0 * s * np.sqrt(1.0 - s * s)
    theta = np.pi * y
    v = np.zeros_like(y)
    for j0, cs in passes:
        b.fill(0.0)
        d.fill(0.0)
        for c in reversed(cs[1:]):
            np.multiply(u, b, out=t)
            t += c
            d += t
            b += d
        sines = sin_theta * b
        cosines = cs[0] + d + 0.5 * u * b
        if j0:
            sj, cj = np.sin(j0 * theta), np.cos(j0 * theta)
            v += (cj * cosines - sj * sines) if deriv else (sj * cosines + cj * sines)
        else:
            v += cosines if deriv else sines
    return v


def _table_sum(family: BasisFamily, js: tuple[int, ...], coeffs: np.ndarray,
               x: np.ndarray, deriv: bool = False) -> np.ndarray:
    """sum_k coeffs[k] e_{js[k]}(x), or of the slopes, from one
    term_table per chunk of nodes of about TABLE_ENTRIES
    entries; js and the column coeffs are merged terms. Each node gets
    ((+0.0 + a_0 e_0) + a_1 e_1) + ..., bit for bit the term-by-term sum:
    add.accumulate adds each scaled row to the running sum of those before."""
    v = np.zeros(x.shape)
    if not js:
        return v
    into, flat = v.reshape(-1), x.reshape(-1)
    step = max(1, TABLE_ENTRIES // len(js))
    for c in range(0, flat.size, step):
        rows = term_table(family, js, flat[c:c + step], deriv)
        rows *= coeffs
        rows[0] += 0.0  # a product of -0.0 starts the sum at +0.0
        into[c:c + step] = np.add.accumulate(rows, out=rows)[-1]
    return v
