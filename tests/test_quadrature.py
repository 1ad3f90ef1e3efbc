import math
import warnings
from fractions import Fraction
from functools import partial
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certapprox import quadrature as q
from certapprox import glue, target
from certapprox.basis import (chebyshev_family, cubic_bspline_family,
                              fourier_sine_family, tent_family)
from certapprox.errors import (ConfigurationError, EvaluationError,
                               UnsupportedNormError)

GL_TOL = 1e-14
ZERO = target.piecewise_linear([0.0, 1.0], [0.0, 0.0])


class _Fn:
    """Bare-callable wrapper carrying the evaluation interface."""

    def __init__(self, fn, dfn=None, edges=(0.0, 1.0)):
        self._fn = fn
        self._dfn = dfn
        self._edges = np.asarray(edges, dtype=float)

    def evaluate(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def evaluate_deriv(self, x):
        return self._dfn(np.asarray(x, dtype=float))

    def panel_edges(self):
        return self._edges


# ----------------------------------------------------------------------------
# rule behavior
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("points,degree", [(16, 31)])
def test_gauss_legendre_polynomial_exactness(points, degree):
    # one panel of `points` nodes integrates degree 2 * points - 1 exactly
    rule = q.QuadratureRule((0.0, 2.0))
    assert rule.nodes.size == rule.weights.size == points
    got = q.integrate(lambda x: x ** degree, rule)
    want = 2.0 ** (degree + 1) / (degree + 1)
    assert got == pytest.approx(want, rel=GL_TOL)


def test_composite_rule_integrates_exp():
    rule = q.QuadratureRule(tuple(np.linspace(-1.0, 1.0, 5).tolist()))
    got = q.integrate(np.exp, rule)
    assert got == pytest.approx(math.e - 1.0 / math.e, rel=1e-15)


def test_the_frozen_16_point_table_is_leggauss_and_read_only():
    # one panel on [-1, 1] maps the table by 1.0 * t + 0.0, bit for bit
    rule = q.QuadratureRule((-1.0, 1.0))
    x, w = rule.nodes, rule.weights
    want_x, want_w = np.polynomial.legendre.leggauss(16)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    assert not x.flags.writeable and not w.flags.writeable


def test_the_frozen_16_point_table_against_mpmath():
    # the nodes are correctly rounded roots of P_16 to within 1 ulp (they
    # measure 0.32); the weights 2 / ((1 - x^2) P_16'(x)^2) are left as
    # leggauss computed them, up to 63 ulp (7.0e-15) off, since every
    # document's bytes rest on them
    rule = q.QuadratureRule((-1.0, 1.0))
    x, w = rule.nodes.tolist(), rule.weights.tolist()
    assert x == [-v for v in reversed(x)] and w == w[::-1]
    assert math.fsum(w) == 2.0
    with mpmath.workdps(50):
        p16 = partial(mpmath.legendre, 16)
        for node, weight in zip(x, w):
            root = mpmath.findroot(p16, node)
            assert abs(mpmath.mpf(node) - root) <= math.ulp(node)
            exact = 2 / ((1 - root ** 2) * mpmath.diff(p16, root) ** 2)
            assert abs(mpmath.mpf(weight) - exact) <= 1e-14 * exact


def test_gauss_chebyshev_weighted_moments(chebyshev_nodes):
    x, w = chebyshev_nodes(15)
    assert x.size == 32
    assert q.weighted_sum(w, np.ones_like(x), x) == pytest.approx(math.pi, rel=1e-14)
    t2 = np.asarray(chebyshev_family().element(2).evaluate(x))
    assert q.weighted_sum(w, t2 ** 2, x) == pytest.approx(math.pi / 2, rel=1e-13)


def test_large_chebyshev_rules_are_allowed(chebyshev_nodes):
    # up to 1,000,000 nodes, at degree 499,999
    assert chebyshev_nodes(2049)[0].size == 4100
    assert chebyshev_nodes(499_999)[0].size == 1_000_000


def test_edges_must_increase():
    with pytest.raises(ConfigurationError):
        q.QuadratureRule((0.0, 0.5, 0.5, 1.0))


def test_refined_nodes_disjoint_from_construction_nodes():
    f = target.from_builtin("sinpi")
    e = fourier_sine_family().element(3)
    rule = q.construction_rule(f, [e], (0.0, 1.0))
    fine = rule.refined(4)
    assert fine.n_panels == 4 * rule.n_panels
    assert not set(rule.nodes) & set(fine.nodes)


def _refined_edges_by_loop(edges, factor):
    fine = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        fine.extend(np.linspace(a, b, factor + 1)[1:])
    return np.asarray(fine)


@pytest.mark.parametrize("case", ["sine2026", "bspline", "tent"])
@pytest.mark.parametrize("factor", [4, 8])
def test_refined_edges_match_per_panel_linspace(case, factor):
    domain = (-0.3, 1.7) if case == "bspline" else (0.0, 1.0)
    f = target.from_expression("x", domain)
    els = {"sine2026": [fourier_sine_family().element(2026)],
           "bspline": list(cubic_bspline_family(12, domain).elements()),
           "tent": [tent_family().element(5)]}[case]
    rule = q.construction_rule(f, els, interval=domain)
    fine = np.asarray(rule.refined(factor).edges)
    assert fine.tobytes() == _refined_edges_by_loop(rule.edges, factor).tobytes()


# ----------------------------------------------------------------------------
# construction rules honor structure
# ----------------------------------------------------------------------------

def test_construction_rule_includes_tent_kinks():
    f = target.from_builtin("sinpi")
    e = tent_family().element(2)
    edges = q.construction_rule(f, [e], (0.0, 1.0)).edges
    for kink in np.linspace(0, 1, 9):
        assert min(abs(v - kink) for v in edges) < 1e-12


def test_construction_rule_coalesces_near_duplicate_edges():
    # 0.1 + 0.2 lands one ulp away from 0.3; the sliver must not survive
    f = _Fn(np.sin, np.cos, edges=(0.0, 0.1 + 0.2, 1.0))
    g = _Fn(np.cos, np.sin, edges=(0.0, 0.3, 1.0))
    rule = q.construction_rule(f, [g], (0.0, 1.0))
    widths = np.diff(rule.edges)
    assert np.all(widths > 1e-13)
    rule.refined(4)  # refinement must stay legal


class _OwnEdges:
    """A B-spline element's panel edges as each element found them alone:
    the knots inside its support interval, by value."""

    def __init__(self, e):
        self.e = e

    def panel_edges(self):
        a, b = self.e.support()
        t = self.e.family.knots()
        return np.unique(t[(t >= a) & (t <= b)])


def _patch_families(count, knots):
    cover = glue.make_cover((0.0, 1.0), count)
    return [(glue.local_bspline_family(p, knots), p) for p in cover.patches]


_SPLINE_SUBSETS = {
    "interior": lambda: [(cubic_bspline_family(100).interior_elements(), (0.0, 1.0))],
    "all": lambda: [(cubic_bspline_family(12, (-0.5, 2.0)).elements(), (-0.5, 2.0))],
    "contiguous": lambda: [(cubic_bspline_family(40).elements()[5:17], (0.0, 1.0))],
    "greedy_picks": lambda: [(tuple(cubic_bspline_family(40).element(j)
                                    for j in (31, 3, 9, 10, 9, 40, 1)), (0.0, 1.0))],
    "patches": lambda: [(fam.elements(), patch) for fam, patch in _patch_families(5, 9)],
}


@pytest.mark.parametrize("subset", sorted(_SPLINE_SUBSETS))
def test_construction_rule_takes_spline_edges_from_one_knot_mask(subset):
    # the per-family knot mask gives the edges of each element's own merge
    for elements, interval in _SPLINE_SUBSETS[subset]():
        for f in (target.from_builtin("sinpi"),
                  target.series(elements[0].family, [(elements[-1].index, 1.0)])):
            rule = q.construction_rule(f, elements, interval)
            own = q.construction_rule(f, [_OwnEdges(e) for e in elements], interval)
            assert rule.edges == own.edges


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(range(3)), st.integers(1, 29)), min_size=1,
                max_size=12), st.sampled_from(range(3)))
def test_construction_rule_spline_edges_of_mixed_patches(picks, on):
    # elements of overlapping patch families in any order, some picked
    # again, with a series among them, as an overlap's rule gets them
    fams = _patch_families(3, 27)
    elements = [fams[i][0].element(j) for i, j in picks]
    series = target.series(fams[2][0], [(4, 0.5)])
    lo, hi = fams[on][1]
    f = target.from_builtin("sinpi")
    rule = q.construction_rule(f, [*elements, series], (lo, hi))
    own = q.construction_rule(f, [*(_OwnEdges(e) for e in elements), series], (lo, hi))
    assert rule.edges == own.edges


def test_construction_rule_interval_restriction():
    f = target.from_builtin("sinpi")
    rule = q.construction_rule(f, [], interval=(0.25, 0.75))
    assert rule.edges[0] == 0.25 and rule.edges[-1] == 0.75


def test_empty_interval_rejected():
    f = target.from_builtin("sinpi")
    with pytest.raises(ConfigurationError):
        q.construction_rule(f, [], interval=(0.7, 0.7))


# ----------------------------------------------------------------------------
# inner products and norms
# ----------------------------------------------------------------------------

def test_sine_family_orthonormal_in_l2():
    fam = fourier_sine_family()
    norm = q.l2_norm()
    for i in (1, 2, 5):
        for j in (1, 2, 5):
            ei, ej = fam.element(i), fam.element(j)
            rule = q.construction_rule(ei, [ei, ej], (0.0, 1.0))
            ip = q.inner_product(ei, ej, norm, rule)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_projection_of_identity_on_first_sine_mode():
    f = target.from_builtin("linear")
    e = fourier_sine_family().element(1)
    rule = q.construction_rule(f, [e], (0.0, 1.0))
    ip = q.inner_product(f, e, q.l2_norm(), rule)
    assert ip == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-15)


def test_sobolev_norm_of_sine():
    f = target.from_builtin("sinpi")
    rule = q.construction_rule(f, [], (0.0, 1.0)).refined(4)
    got = q.norm_of_difference(f, ZERO, q.w12_norm(), rule)
    assert got == pytest.approx(math.sqrt((1.0 + math.pi ** 2) / 2.0), rel=1e-14)


def test_sup_norm_has_no_inner_product():
    f = target.from_builtin("sinpi")
    e = fourier_sine_family().element(1)
    with pytest.raises(UnsupportedNormError):
        q.inner_product(f, e, q.sup_norm(),
                        q.QuadratureRule((0.0, 1.0)))


def test_norm_of_difference_refuses_the_sup_norm():
    # the sup norm is sup_distance's, which certificate.measure calls
    f = target.piecewise_linear([0.0, 0.25, 1.0], [0.0, 2.0, 0.0])
    rule = q.construction_rule(f, [], (0.0, 1.0))
    with pytest.raises(UnsupportedNormError):
        q.norm_of_difference(f, ZERO, q.sup_norm(), rule)


def test_non_finite_integrand_is_reported():
    with pytest.raises(EvaluationError):
        q.integrate(lambda x: np.full_like(x, np.inf),
                    q.QuadratureRule((0.0, 1.0)))


@pytest.mark.parametrize("measure", [q.inner_product, q.norm_of_difference],
                         ids=["inner_product", "norm_of_difference"])
def test_the_values_are_summed_before_the_slopes_are_evaluated(measure):
    # under W12 a non-finite value product raises its own error before
    # the slopes, which would raise another, are evaluated
    def slopes(x):
        raise EvaluationError("slopes evaluated", 0.5)
    f = _Fn(lambda x: np.full_like(x, np.inf), slopes)
    one = _Fn(np.ones_like, np.zeros_like)
    rule = q.QuadratureRule((0.0, 1.0))
    with pytest.raises(EvaluationError, match="non-finite weighted integrand"):
        measure(f, one, q.w12_norm(), rule)


@pytest.mark.parametrize("alternate", [False, True], ids=["constant", "alternating"])
def test_overflowing_weighted_products_are_reported(alternate):
    # finite values, but a weight of 94.7 lifts 1e308 past the float range
    rule = q.QuadratureRule((0.0, 1000.0))
    assert rule.weights.max() > 1.8  # and 1.8e308 overflows
    sign = (-1.0) ** np.arange(rule.nodes.size) if alternate else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite weighted integrand"):
            q.integrate(lambda x: sign * np.full_like(x, 1e308), rule)


@pytest.mark.parametrize("points", [q.FSUM_CHUNK - 1, q.FSUM_CHUNK])
def test_a_sum_past_the_float_range_is_reported(points):
    # every product is finite, their sum is not
    x = np.linspace(-1.0, 1.0, points)
    with pytest.raises(EvaluationError, match="overflows"):
        q.weighted_sum(np.full(points, math.pi / points), np.full(points, 1.7e308), x)


CHUNK_LENGTHS = [k * q.FSUM_CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@given(points=st.sampled_from(CHUNK_LENGTHS),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       low=st.integers(min_value=-1062, max_value=1010),
       span=st.integers(min_value=0, max_value=2072),
       zeros=st.floats(min_value=0.0, max_value=1.0),
       planted=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        max_size=8),
       reach=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_integrate_is_fsum_of_every_product_bit_for_bit(points, seed, low, span,
                                                         zeros, planted, reach):
    # equal weights pi/n, as Gauss-Chebyshev's, so v[j] = -v[i] cancels the
    # products exactly; v's exponents in [-1062, 1011] put the products
    # between the smallest subnormal 2^-1074 and about 2^1000
    w, nodes = np.full(points, math.pi / points), np.linspace(-1.0, 1.0, points)
    rng = np.random.default_rng(seed)
    exps = rng.integers(low, min(low + span, 1010) + 1, points)
    v = rng.choice([-1.0, 1.0], points) * np.ldexp(rng.uniform(1.0, 2.0, points), exps)
    v[rng.random(points) < zeros] = 0.0
    v[rng.random(points) < zeros / 2] = -0.0
    for x in planted:
        v[rng.integers(points)] = x
    for b in range(q.FSUM_CHUNK, points, q.FSUM_CHUNK):
        left, right = b - rng.integers(1, reach + 1), b + rng.integers(0, reach)
        v[min(right, points - 1)] = -v[left]
    want = math.fsum((w * v).tolist())
    assert q.weighted_sum(w, v, nodes).hex() == want.hex()


# each row draws its own exponent range (lowest exponent, span, share of
# zeros), so one block holds rows that take one extraction pass, some fifty
# (subnormals up to 2^1023) or none (a share of 1.0 zeros the row); rows
# whose products come within 2^_HEADROOM of the float maximum may overflow
ROW_SPEC = st.tuples(st.integers(min_value=-1074, max_value=1023),
                     st.integers(min_value=0, max_value=2097),
                     st.floats(min_value=0.0, max_value=1.0))


def _row(rng, cols, low, span, zeros):
    exps = rng.integers(low, min(low + span, 1023) + 1, cols)
    r = rng.choice([-1.0, 1.0], cols) * np.ldexp(rng.uniform(1.0, 2.0, cols), exps)
    r[rng.random(cols) < zeros] = 0.0
    r[rng.random(cols) < zeros / 2] = -0.0
    return r


@given(spec=st.lists(ROW_SPEC, min_size=1, max_size=4),
       cols=st.sampled_from([1, q.FSUM_CHUNK - 1, q.FSUM_CHUNK, 2 * q.FSUM_CHUNK + 1]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(spec=[(0, 0, 0.0), (-1074, 2074, 0.0), (-1074, 2074, 1.0), (-1074, 30, 0.5)],
         cols=q.FSUM_CHUNK, seed=1)
@example(spec=[(1023, 0, 0.0), (1010, 13, 0.5), (-1074, 2097, 0.0)], cols=1, seed=2)
@example(spec=[(1010, 13, 0.0)], cols=q.FSUM_CHUNK, seed=3)
@example(spec=[(1022, 1, 0.0)], cols=q.FSUM_CHUNK - 1, seed=69)
@settings(max_examples=60, deadline=None)
def test_row_sums_are_fsum_of_each_row_bit_for_bit(spec, cols, seed):
    # where math.fsum overflows on the way, row_sums returns the exact sum
    # rounded, which weighted_sum's fallback uses, and raises its overflow
    # error only when the exact sum leaves the float range
    rng = np.random.default_rng(seed)
    p = np.array([_row(rng, cols, *r) for r in spec])
    x = np.linspace(0.0, 1.0, cols)
    try:
        want = [math.fsum(row.tolist()).hex() for row in p]
    except OverflowError:
        exact = [sum(map(Fraction, row.tolist()), Fraction(0)) for row in p]
        try:
            want = [float(v).hex() for v in exact]
        except OverflowError:
            with pytest.raises(EvaluationError, match="overflows the float range"):
                q.row_sums(len(p), x, lambda at: p[:, at])
            return
        assert [v.hex() for v in q.row_sums(len(p), x, lambda at: p[:, at])] == want
        return
    got = q.row_sums(len(p), x, lambda at: p[:, at])
    assert [v.hex() for v in got] == want


def _near_max(seed, rows, cols, cancel):
    """Products with exponents 990 to 1023. With cancel, the second half of
    each row is its first half negated and shuffled, two of it halved, so
    the exact sum is a float while partial sums leave the float range."""
    rng = np.random.default_rng(seed)
    p = rng.choice([-1.0, 1.0], (rows, cols)) * np.ldexp(
        rng.uniform(1.0, 2.0, (rows, cols)), rng.integers(990, 1024, (rows, cols)))
    if cancel:
        half = cols // 2
        for row in p:
            row[half:2 * half] = -rng.permutation(row[:half])
            row[rng.integers(half, 2 * half, 2)] *= 0.5
    return p


# three products past a slice's float partial, whose exact sum is 1.7e308
OVERFLOWING_PARTIAL = np.zeros((1, 2 * q.FSUM_CHUNK))
OVERFLOWING_PARTIAL[0, [0, 1, q.FSUM_CHUNK]] = 1.7e308, 1.7e308, -1.7e308


@pytest.mark.parametrize("p", [
    OVERFLOWING_PARTIAL,
    *(_near_max(seed, 3, cols, True) for seed, cols in
      enumerate([q.FSUM_CHUNK // 2, 2 * q.FSUM_CHUNK, 2 * q.FSUM_CHUNK + 7] * 2)),
    *(_near_max(seed, 1, cols, False) for seed in range(6) for cols in (2, 3, 40)),
])
def test_row_sums_round_the_exact_sum_near_the_float_maximum(p):
    # the oracle: each row's exact Fraction sum, rounded once; a block with
    # a row outside the float range raises row_sums' overflow error
    x = np.linspace(0.0, 1.0, p.shape[1])
    try:
        want = [float(sum(map(Fraction, row.tolist()), Fraction(0))).hex() for row in p]
    except OverflowError:
        want = "overflows the float range"
    try:
        got = [v.hex() for v in q.row_sums(len(p), x, lambda at: p[:, at].copy())]
    except EvaluationError as e:
        got = str(e)[-len("overflows the float range"):]
    assert got == want


def test_fsum_of_zeros_of_either_sign_is_positive_zero():
    # row_sums drops a row once it is empty, so a row of zeros has no
    # partials; that math.fsum([]) is math.fsum over zeros of either sign
    # is what makes the dropped rows and zero padding exact
    for zeros in ([], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]):
        assert math.fsum(zeros).hex() == "0x0.0p+0"
    p = np.array([[-0.0] * 5, [0.0, -0.0, 0.0, 0.0, -0.0], [1.0, -0.0, -1.0, 0.0, 0.0]])
    got = q.row_sums(3, np.linspace(0.0, 1.0, 5), lambda at: p[:, at])
    assert [v.hex() for v in got] == ["0x0.0p+0"] * 3


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("row,col", [(1, 0), (2, 17), (3, q.FSUM_CHUNK + 5),
                                     (1, 2 * q.FSUM_CHUNK)])
def test_row_sums_name_the_first_non_finite_node_of_a_row(row, col, bad):
    cols = 2 * q.FSUM_CHUNK + 3
    x = np.linspace(0.0, 1.0, cols)
    p = np.ones((4, cols))
    p[row, col], p[row, col + 1] = bad, math.nan
    with pytest.raises(EvaluationError, match="non-finite weighted integrand") as e:
        q.row_sums(4, x, lambda at: p[:, at])
    assert e.value.x == x[col]


# the most products weighted_sum hands to math.fsum; past it the one-row row_sums
CUT_OFF = q.FSUM_CHUNK // 4
# products planted at k, k + 1, ... (mod the count), each of weight 1: a
# non-finite one, two of 1.5e308 whose sum leaves the float range, or those
# two and then two of -1.5e308, which overflow math.fsum on the way to 0.0
PLANTS = {"inf": [math.inf], "-inf": [-math.inf], "nan": [math.nan],
          "overflow": [1.5e308] * 2, "cancel": [1.5e308] * 2 + [-1.5e308] * 2}


@given(v=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=80),
       size=st.sampled_from([None, CUT_OFF - 1, CUT_OFF, CUT_OFF + 1, q.FSUM_CHUNK + 1]),
       planted=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(sorted(PLANTS))),
                        max_size=2),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(v=[1.0] * 4, size=None, planted=[(0, "cancel")], seed=0)
@example(v=[1.0], size=CUT_OFF, planted=[(CUT_OFF - 1, "overflow")], seed=0)
@settings(max_examples=100, deadline=None)
def test_weighted_sum_is_fsum_on_both_sides_of_the_cut_off(v, size, planted, seed):
    # as drawn (1 to 80 products) or repeated to a count around the cut-off:
    # the value is math.fsum's, by math.fsum itself up to CUT_OFF products,
    # and a non-finite product or an overflowing sum raises the one-row
    # row_sums' error, naming the same node
    v = np.resize(np.array(v), size or len(v))
    w = np.random.default_rng(seed).uniform(0.0, 2.0, v.size)
    for k, kind in planted:
        at = (k % v.size + np.arange(len(PLANTS[kind]))) % v.size
        v[at], w[at] = PLANTS[kind], 1.0
    x = np.linspace(0.0, 1.0, v.size)
    with np.errstate(over="ignore"):
        wv = w * v
    try:
        fsum = math.fsum(wv.tolist())
    except (OverflowError, ValueError):
        fsum = math.nan

    def outcome(fn):
        try:
            return fn().hex()
        except EvaluationError as e:
            return str(e), e.x
    with mock.patch.object(q, "row_sums", wraps=q.row_sums) as extraction:
        got = outcome(lambda: q.weighted_sum(w, v, x))
    assert extraction.called == (v.size > CUT_OFF or not math.isfinite(fsum))
    assert got == outcome(lambda: q.row_sums(1, x, lambda at: wv[None, at])[0])
    if math.isfinite(fsum):
        assert got == fsum.hex()


# ----------------------------------------------------------------------------
# sup distance
# ----------------------------------------------------------------------------

def test_sup_distance_exact_for_piecewise_linear():
    f = target.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    g = target.piecewise_linear([0.0, 1.0], [0.0, 0.0])
    value, method = q.sup_distance(f, g, (0.0, 1.0))
    assert method == "breakpoint_sup"
    assert value == 1.0


def test_sup_distance_grid_estimate_for_smooth_targets():
    f = target.from_builtin("sinpi")
    value, method = q.sup_distance(f, ZERO, (0.0, 1.0))
    assert method.startswith("grid_")
    assert value == pytest.approx(1.0, abs=1e-9)


def test_sup_distance_interior_peak_not_on_grid():
    # peak of x(1-x) at 1/2 is on every grid; shift it off with a cubic
    f = target.from_expression("x*x*(1-x)")
    value, _ = q.sup_distance(f, ZERO, (0.0, 1.0))
    assert value == pytest.approx(4.0 / 27.0, rel=1e-9)


def test_fsum_accumulation_is_permutation_stable():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, size=4096)
    v = rng.uniform(-1, 1, size=4096)
    ref = math.fsum(w * v)
    for _ in range(5):
        p = rng.permutation(4096)
        assert math.fsum(w[p] * v[p]) == ref


def test_integrate_streams_one_exactly_rounded_sum():
    # 1/1024-wide panels share their weights, so +-1e308 at one local node
    # of two neighbouring panels cancel exactly across the chunk boundary;
    # only one fsum over every product keeps the tiny terms
    rule = q.QuadratureRule(tuple(np.linspace(0.0, 1.0, 1025)))
    v = np.random.default_rng(11).uniform(-1e-300, 1e-300, rule.nodes.size)
    edge = q.FSUM_CHUNK - 1
    v[edge], v[edge + 16] = 1e308, -1e308
    v[3 * q.FSUM_CHUNK - 2], v[3 * q.FSUM_CHUNK + 14] = -1e308, 1e308
    assert rule.nodes.size > 3 * q.FSUM_CHUNK + 16
    got = q.integrate(lambda x: v, rule)
    assert got == math.fsum((rule.weights * v).tolist())
    assert got != 0.0 and abs(got) < 1e-300
