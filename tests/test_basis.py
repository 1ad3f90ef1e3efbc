import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certapprox import basis
from certapprox.basis import (BasisFamily, chebyshev_family, cubic_bspline_family,
                              fourier_sine_family, monomial_family, tent_family)
from certapprox.errors import ConfigurationError, DomainError

UNIT_X = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SYM_X = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


# ----------------------------------------------------------------------------
# family construction and index bounds
# ----------------------------------------------------------------------------

def test_fourier_index_zero_rejected():
    with pytest.raises(ConfigurationError):
        fourier_sine_family().element(0)


def test_bspline_index_bounds():
    fam = cubic_bspline_family(12)
    with pytest.raises(ConfigurationError):
        fam.element(0)
    with pytest.raises(ConfigurationError):
        fam.element(13)
    fam.element(1)
    fam.element(12)


@pytest.mark.parametrize("kind,domain", [
    ("chebyshev", (0.0, 1.0)),
    ("fourier_sine", (-1.0, 1.0)),
    ("tent", (0.0, 2.0)),
])
def test_fixed_domain_families_reject_other_intervals(kind, domain):
    with pytest.raises(ConfigurationError):
        BasisFamily(kind, domain)


def test_bspline_needs_at_least_four_functions():
    with pytest.raises(ConfigurationError):
        cubic_bspline_family(3)


def test_interior_subset_size_and_vanishing():
    fam = cubic_bspline_family(12)
    interior = fam.interior_elements()
    assert len(interior) == 10
    assert [e.index for e in interior] == list(range(2, 12))
    for e in interior:
        assert e.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
        assert e.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)
    # the boundary functions do not vanish
    assert fam.element(1).evaluate(0.0) == pytest.approx(1.0)
    assert fam.element(12).evaluate(1.0) == pytest.approx(1.0)


def test_knot_vector_shape():
    fam = cubic_bspline_family(9, (2.0, 5.0))
    t = fam.knots()
    assert len(t) == 13
    assert list(t[:4]) == [2.0] * 4
    assert list(t[-4:]) == [5.0] * 4
    assert np.allclose(np.diff(t[3:-3]), (5.0 - 2.0) / 6)


def test_infinite_families_have_no_element_listing():
    with pytest.raises(ConfigurationError):
        fourier_sine_family().elements()
    assert len(cubic_bspline_family(7).elements()) == 7


# ----------------------------------------------------------------------------
# pointwise values
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("j,x,val", [
    (0, 0.5, 1.0),
    (1, -1.0, -1.0),
    (2, 0.0, -1.0),
    (3, 1.0, 1.0),
    (4, -1.0, 1.0),
    (5, -1.0, -1.0),
])
def test_chebyshev_values(j, x, val):
    assert chebyshev_family().element(j).evaluate(x) == pytest.approx(val, abs=1e-14)


@given(x=SYM_X, j=st.integers(min_value=1, max_value=20))
@settings(max_examples=200, deadline=None)
def test_chebyshev_three_term_recurrence(x, j):
    fam = chebyshev_family()
    tj = fam.element(j).evaluate(x)
    tj1 = fam.element(j + 1).evaluate(x)
    tjm = fam.element(j - 1).evaluate(x)
    assert tj1 == pytest.approx(2.0 * x * tj - tjm, abs=1e-10)


@pytest.mark.parametrize("j,x,val", [
    (5, 1.0, 25.0),
    (5, -1.0, 25.0),
    (4, -1.0, -16.0),
    (3, 1.0, 9.0),
    (1, 0.3, 1.0),
])
def test_chebyshev_derivative_endpoints_and_interior(j, x, val):
    assert chebyshev_family().element(j).evaluate_deriv(x) == pytest.approx(val, abs=1e-10)


def test_chebyshev_derivative_matches_difference_quotient():
    e = chebyshev_family().element(7)
    for x in (-0.73, -0.2, 0.41, 0.88):
        h = 1e-7
        fd = (e.evaluate(x + h) - e.evaluate(x - h)) / (2 * h)
        assert e.evaluate_deriv(x) == pytest.approx(fd, rel=1e-5)


def test_sine_family_normalization():
    e = fourier_sine_family().element(1)
    assert e.evaluate(0.5) == pytest.approx(np.sqrt(2.0))
    assert e.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
    assert e.evaluate_deriv(0.0) == pytest.approx(np.sqrt(2.0) * np.pi)


def test_monomials():
    fam = monomial_family()
    assert fam.element(0).evaluate(0.37) == 1.0
    assert fam.element(0).evaluate_deriv(0.9) == 0.0
    assert fam.element(3).evaluate(0.5) == pytest.approx(0.125)
    assert fam.element(3).evaluate_deriv(0.5) == pytest.approx(0.75)


# ----------------------------------------------------------------------------
# tent hierarchy
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_tent_peaks_and_zeros(k):
    e = tent_family().element(k)
    for i in range(2 ** k + 1):
        assert e.evaluate(i / 2 ** k) == pytest.approx(0.0, abs=1e-15)
    for i in range(2 ** k):
        assert e.evaluate((2 * i + 1) / 2 ** (k + 1)) == pytest.approx(1.0)


def test_tent_right_hand_derivative_convention():
    e = tent_family().element(2)
    assert e.evaluate_deriv(0.0) == 8.0
    assert e.evaluate_deriv(0.1) == 8.0
    # at the peak the falling branch owns the derivative
    assert e.evaluate_deriv(0.125) == -8.0
    assert e.evaluate_deriv(0.2) == -8.0


@given(x=UNIT_X, k=st.integers(min_value=0, max_value=10))
@settings(max_examples=200, deadline=None)
def test_tent_range(x, k):
    v = tent_family().element(k).evaluate(x)
    assert 0.0 <= v <= 1.0 + 1e-15


# ----------------------------------------------------------------------------
# B-spline analysis
# ----------------------------------------------------------------------------

@given(x=UNIT_X)
@settings(max_examples=150, deadline=None)
def test_bspline_family_sums_to_one(x):
    fam = cubic_bspline_family(12)
    total = sum(e.evaluate(x) for e in fam.elements())
    assert total == pytest.approx(1.0, abs=5e-15)


@given(x=UNIT_X, j=st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_bspline_support_is_sound(x, j):
    fam = cubic_bspline_family(10)
    e = fam.element(j)
    lo, hi = e.support()
    if not lo <= x <= hi:
        assert e.evaluate(x) == 0.0


FAMILIES = [chebyshev_family(), fourier_sine_family(), monomial_family((-0.5, 2.0)),
            tent_family(), cubic_bspline_family(10, (-0.5, 2.0))]


@given(fam=st.sampled_from(FAMILIES), j=st.integers(min_value=1, max_value=10),
       u=st.floats(min_value=0.0, max_value=1.0), left=st.booleans())
@settings(max_examples=300, deadline=None)
def test_support_is_sound_for_every_family(fam, j, u, left):
    # sums and Gram assembly skip an element off its support; that needs a
    # value and a derivative of exactly 0.0 there
    e = fam.element(j)
    lo, hi = e.support()
    assert fam.domain[0] <= lo < hi <= fam.domain[1]
    # a point of [domain lo, support lo] or [support hi, domain hi]
    a, b = (fam.domain[0], lo) if left else (hi, fam.domain[1])
    x = min(max(a + u * (b - a), a), b)
    if lo <= x <= hi:
        return
    assert e.evaluate(x) == 0.0
    assert e.evaluate_deriv(x) == 0.0


def test_bspline_right_endpoint_belongs_to_last_element():
    fam = cubic_bspline_family(8)
    assert fam.element(8).evaluate(1.0) == pytest.approx(1.0)
    assert fam.element(7).evaluate(1.0) == pytest.approx(0.0, abs=1e-15)


def test_bspline_derivative_matches_difference_quotient():
    fam = cubic_bspline_family(9, (0.0, 2.0))
    e = fam.element(4)
    for x in (0.31, 0.8, 1.1, 1.73):
        h = 1e-6
        fd = (e.evaluate(x + h) - e.evaluate(x - h)) / (2 * h)
        assert e.evaluate_deriv(x) == pytest.approx(fd, rel=2e-5, abs=1e-7)


def test_bspline_nonnegative_on_grid():
    fam = cubic_bspline_family(11)
    xs = np.linspace(0.0, 1.0, 801)
    for e in fam.elements():
        assert np.all(e.evaluate(xs) >= -1e-15)


# ----------------------------------------------------------------------------
# structure reporting
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("family,last,over", [
    (chebyshev_family(), 8 * (basis.MAX_PANELS - 1), 8 * basis.MAX_PANELS),
    (monomial_family(), 16 * (basis.MAX_PANELS - 1), 16 * basis.MAX_PANELS),
    (fourier_sine_family(), basis.MAX_PANELS, basis.MAX_PANELS + 1),
    (tent_family(), 16, 17),
], ids=["chebyshev", "monomial", "fourier_sine", "tent"])
def test_panel_edges_stop_at_the_panel_budget(family, last, over):
    # `last` is the highest index whose grid has at most MAX_PANELS panels
    edges = family.element(last).panel_edges()
    assert edges.tobytes() == np.linspace(*family.domain, basis.MAX_PANELS + 1).tobytes()
    for index in (over, 10 ** 30):  # the count comes from the index, not a grid
        with pytest.raises(ConfigurationError, match=f"{family.kind} element {index} needs"
                           f" a rule of more than {basis.MAX_PANELS} panels"):
            family.element(index).panel_edges()


def test_a_bspline_family_stops_at_the_panel_budget():
    # m functions have m - 3 spans, and a series' rule a panel per span
    widest = cubic_bspline_family(basis.MAX_PANELS + 3)
    assert basis.distinct(widest.knots()).size == basis.MAX_PANELS + 1
    for m in (basis.MAX_PANELS + 4, 10 ** 30):
        with pytest.raises(ConfigurationError, match=f"cubic_bspline family of {m} functions"
                           f" needs a rule of more than {basis.MAX_PANELS} panels"):
            cubic_bspline_family(m).knots()


def test_panel_edges_counts():
    assert len(fourier_sine_family().element(7).panel_edges()) == 8
    assert len(tent_family().element(3).panel_edges()) == 17
    assert len(chebyshev_family().element(16).panel_edges()) == 4
    assert len(monomial_family().element(16).panel_edges()) == 3


def test_series_structure_is_the_top_element_grid():
    tents, sines = tent_family(), fourier_sine_family()
    for top in (3, 16):
        grid = tents.element(top).panel_edges()
        assert len(grid) == 2 ** (top + 1) + 1
        for kinks in (basis.series_kinks, basis.series_edges):
            assert kinks(tents, [(top, 1.0), (1, 0.5)]).tobytes() == grid.tobytes()
    assert basis.series_kinks(tents, [(17, 1.0)]) is None
    assert basis.series_kinks(sines, [(3, 1.0)]) is None
    assert basis.series_edges(sines, [(9, 1.0), (2, 1.0)]).tobytes() == \
        sines.element(9).panel_edges().tobytes()
    assert basis.series_edges(sines, []).tolist() == [0.0, 1.0]
    splines = cubic_bspline_family(12)
    assert basis.series_edges(splines, [(5, 1.0)]).tolist() == \
        np.unique(splines.knots()).tolist()


# arrays past numpy's small-array sort cutoff, drawn from a few values and
# both zeros, so most values repeat and +-0.0 meet in either order
_REPEATS = st.lists(st.floats(allow_nan=False), max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from([0.0, -0.0, *pool]), max_size=200))


@given(values=_REPEATS)
@settings(max_examples=300, deadline=None)
def test_distinct_is_np_unique_bit_for_bit(values):
    a = np.asarray(values, dtype=float)
    got = basis.distinct(a)
    assert got.dtype == np.float64 and got.tobytes() == np.unique(a).tobytes()
    assert a.tobytes() == np.asarray(values, dtype=float).tobytes()  # a is not sorted in place


def test_bspline_panel_edges_stay_inside_support():
    fam = cubic_bspline_family(12)
    e = fam.element(5)
    lo, hi = e.support()
    edges = e.panel_edges()
    assert edges[0] >= lo and edges[-1] <= hi
    assert np.all(np.diff(edges) > 0)


def test_domain_violation_raises():
    with pytest.raises(DomainError):
        tent_family().element(1).evaluate(1.5)
    with pytest.raises(DomainError):
        chebyshev_family().element(2).evaluate_deriv(np.array([0.0, -1.01]))
    with pytest.raises(DomainError):
        fourier_sine_family().element(2).evaluate(float("nan"))
    with pytest.raises(DomainError):
        tent_family().element(1).evaluate(np.array([0.5, np.nan]))


def test_scalar_in_scalar_out():
    v = fourier_sine_family().element(2).evaluate(0.25)
    assert isinstance(v, float)
    arr = fourier_sine_family().element(2).evaluate(np.array([0.25, 0.5]))
    assert arr.shape == (2,)


# ----------------------------------------------------------------------------
# the Cox-de Boor triangle against the memoised recursion it replaced
# ----------------------------------------------------------------------------

def _recursive_value(t, i, p, x, memo):
    """N_{i,p}(x) by the recursive Cox-de Boor formula; memo holds the
    (i, p) sub-results the recursion shares."""
    if (i, p) in memo:
        return memo[i, p]
    if p == 0:
        if t[i] >= t[i + 1]:
            v = np.zeros_like(x)
        elif t[i + 1] == t[-1]:
            v = np.where((x >= t[i]) & (x <= t[i + 1]), 1.0, 0.0)
        else:
            v = np.where((x >= t[i]) & (x < t[i + 1]), 1.0, 0.0)
    else:
        v = np.zeros_like(x)
        d1 = t[i + p] - t[i]
        if d1 > 0.0:
            v = v + (x - t[i]) / d1 * _recursive_value(t, i, p - 1, x, memo)
        d2 = t[i + p + 1] - t[i + 1]
        if d2 > 0.0:
            v = v + (t[i + p + 1] - x) / d2 * _recursive_value(t, i + 1, p - 1, x, memo)
    memo[i, p] = v
    return v


def _recursive_deriv(t, i, x):
    memo = {}
    v = np.zeros_like(x)
    d1 = t[i + 3] - t[i]
    if d1 > 0.0:
        v = v + 3 / d1 * _recursive_value(t, i, 2, x, memo)
    d2 = t[i + 4] - t[i + 1]
    if d2 > 0.0:
        v = v - 3 / d2 * _recursive_value(t, i + 1, 2, x, memo)
    return v


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(m=st.integers(min_value=4, max_value=40),
       lo=st.floats(min_value=-1e6, max_value=1e6),
       width=st.floats(min_value=1e-6, max_value=1e6),
       us=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=16))
@settings(max_examples=120, deadline=None)
def test_bspline_triangle_matches_the_recursion_bit_for_bit(m, lo, width, us):
    hi = lo + width
    fam = cubic_bspline_family(m, (lo, hi))
    t = fam.knots()
    # every knot, both endpoints and points in between
    xs = np.clip(np.concatenate([t, [lo, hi], lo + np.asarray(us) * width]), lo, hi)
    for e in fam.elements():
        i = e.index - 1
        assert _same_bits(e.value(xs), _recursive_value(t, i, 3, xs, {}))
        assert _same_bits(e.deriv(xs), _recursive_deriv(t, i, xs))


def test_merged_sorts_the_indices_and_sums_each_in_term_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit
    assert basis.merged([(3, 0.1), (1, -0.0), (3, 0.2), (3, 0.3)]) == \
        ((1, 0.0), (3, 0.1 + 0.2 + 0.3))
    assert basis.merged([(3, 0.3), (3, 0.2), (3, 0.1)]) == ((3, 0.3 + 0.2 + 0.1),)
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
    assert basis.merged([]) == ()


def _per_term_sum(t, terms, xs, deriv):
    """The per-term loop over the recursion: +0.0, then each term in term
    order at every node. Over merged terms, the oracle SpanTable's sums
    are held to."""
    v = np.zeros_like(xs)
    for j, a in terms:
        v = v + a * (_recursive_deriv(t, j - 1, xs) if deriv
                     else _recursive_value(t, j - 1, 3, xs, {}))
    return v


@given(m=st.integers(min_value=4, max_value=40),
       lo=st.floats(min_value=-1e6, max_value=1e6),
       width=st.floats(min_value=1e-6, max_value=1e6),
       picks=st.lists(st.integers(min_value=0, max_value=39), max_size=12),
       nodes=st.integers(min_value=0, max_value=2 * basis.SPAN_CHUNK + 40),
       shuffled=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_span_table_sums_match_the_per_term_loop_bit_for_bit(m, lo, width, picks, nodes,
                                                             shuffled, seed):
    # a partial series, its indices unsorted and repeated as greedy picks
    # them, at every knot, both ends and random nodes over up to three
    # chunks, ascending or shuffled; summed over the nodes its terms reach
    # and over a table of every node, each bit for bit the loop over its
    # merged terms, and each element gathered at a range of nodes and at
    # random node positions
    hi = lo + width
    fam = cubic_bspline_family(m, (lo, hi))
    t = fam.knots()
    rng = np.random.default_rng(seed)
    xs = np.clip(np.concatenate([t, [lo, hi], lo + rng.uniform(0.0, 1.0, nodes) * width]),
                 lo, hi)
    if shuffled:
        rng.shuffle(xs)
    else:
        xs.sort()
    terms = [(1 + p % m, float(rng.normal())) for p in picks]
    start, stop = np.sort(rng.integers(0, xs.size + 1, 2))
    anywhere = rng.integers(0, xs.size, (2, 5))
    table, total = basis.SpanTable(fam, xs), basis.series_sum(fam, terms)
    for deriv in (False, True):
        want = _per_term_sum(t, basis.merged(terms), xs, deriv)
        assert _same_bits(total(xs, deriv), want)
        assert _same_bits(table.sum(terms, deriv), want)
        for j, _ in terms[:3]:
            column = _per_term_sum(t, [(j, 1.0)], xs, deriv)
            assert _same_bits(table.gather(j, np.arange(start, stop), deriv), column[start:stop])
            assert _same_bits(table.gather(j, anywhere, deriv), column[anywhere])


def test_a_bspline_series_reads_each_node_set_afresh():
    # one evaluator, whose terms reach the whole domain, at two node sets
    # of the same size, back and forth, and at the second set's nodes
    # changed in place: each value and slope is bit for bit a fresh one's
    fam = cubic_bspline_family(12)
    terms = ((2, 0.5), (12, -1.25), (4, 3.0), (1, 0.75))
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.0, 1.0, (2, 300))
    total = basis.series_sum(fam, terms)
    for xs in (a, b, a, b):
        for deriv in (False, True, False):
            assert _same_bits(total(xs, deriv), basis.series_sum(fam, terms)(xs, deriv))
    b[::2] = a[::2]
    for deriv in (True, False):
        assert _same_bits(total(b, deriv), basis.series_sum(fam, terms)(b, deriv))


def test_tent_value_matches_the_distance_to_the_nearest_integer():
    xs = np.concatenate([np.linspace(0.0, 1.0, 4097),
                         np.random.default_rng(3).uniform(0.0, 1.0, 20000)])
    for j in range(30):
        u = np.ldexp(xs, j)
        assert _same_bits(tent_family().element(j).value(xs), 2.0 * np.abs(u - np.round(u)))
