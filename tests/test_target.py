import math
import time
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certapprox import approximate, basis, quadrature, target
from certapprox.basis import cubic_bspline_family, fourier_sine_family
from certapprox.errors import (ConfigurationError, DomainError,
                               EvaluationError, ExpressionSyntaxError,
                               SampleFormatError)
from certapprox.target import differentiate_ast, evaluate_ast, parse_expression


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("text,x,val", [
    ("2+3*4", 0.0, 14.0),
    ("(2+3)*4", 0.0, 20.0),
    ("2^3^2", 0.0, 512.0),        # right-associative
    ("-x^2", 2.0, -4.0),          # unary minus below the power
    ("2^-3", 0.0, 0.125),
    ("x/4", 2.0, 0.5),
    ("sin(pi/2)", 0.0, 1.0),
    ("sqrt(abs(0-x))", 4.0, 2.0),
    ("exp(0)", 1.0, 1.0),
    ("1/(1+25*x^2)", 0.2, 0.5),
    ("  x  +  1 ", 2.5, 3.5),
    ("1.5e2", 0.0, 150.0),
    (".5*x", 1.0, 0.5),
])
def test_expression_values(text, x, val):
    ast = parse_expression(text)
    got = evaluate_ast(ast, np.asarray([float(x)]))[0]
    assert got == pytest.approx(val, rel=1e-15)


def test_unicode_minus_is_accepted():
    ast = parse_expression("x − 1")
    assert evaluate_ast(ast, np.asarray([3.0]))[0] == 2.0


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("sin(pi*", 7),
    ("2+*3", 2),
    ("foo(x)", 0),
    ("x)", 1),
    ("1..2", 2),
])
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression(text)
    assert e.value.offset == offset
    assert e.value.expected


_LEAVES = st.sampled_from(["x", "pi", "2", "0.5", "3.25"])


@st.composite
def expressions(draw, depth=3):
    if depth == 0:
        return draw(_LEAVES)
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return draw(_LEAVES)
    if kind == 1:
        a = draw(expressions(depth=depth - 1))
        b = draw(expressions(depth=depth - 1))
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"({a}{op}{b})"
    if kind == 2:
        a = draw(expressions(depth=depth - 1))
        fn = draw(st.sampled_from(["sin", "cos", "exp", "abs"]))
        return f"{fn}({a})"
    if kind == 3:
        a = draw(expressions(depth=depth - 1))
        return f"(-{a})"
    if kind == 4:
        a = draw(expressions(depth=depth - 1))
        return f"({a})^2"
    return draw(_LEAVES)


@given(text=expressions())
@settings(max_examples=100, deadline=None)
def test_derivative_trees_evaluate_or_raise_cleanly(text):
    ast = parse_expression(text)
    d = differentiate_ast(ast)
    xs = np.asarray([0.3, 0.7])
    try:
        with np.errstate(all="ignore"):
            v = evaluate_ast(d, xs)
        assert v.shape == xs.shape
    except EvaluationError:
        pass


def test_symbolic_derivative_against_difference_quotient():
    f = target.from_expression("sin(pi*x)*exp(x) + x^3")
    for x in (0.1, 0.45, 0.8):
        h = 1e-7
        fd = (f.evaluate(x + h) - f.evaluate(x - h)) / (2 * h)
        assert f.evaluate_deriv(x) == pytest.approx(fd, rel=1e-6)


def test_abs_derivative_uses_sign():
    f = target.from_expression("abs(x-0.5)")
    assert f.evaluate_deriv(0.75) == 1.0
    assert f.evaluate_deriv(0.25) == -1.0


# ----------------------------------------------------------------------------
# evaluation guards
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("text,x", [
    ("1/x", 0.0),
    ("log(x)", 0.0),
    ("sqrt(0-x)", 0.5),
    ("(0-1)^x", 0.5),
    ("x/(x-0.5)", 0.5),
    ("log(0-x)", 0.5),
    ("0^(0-x)", 0.5),
    ("10^(400*x)", 1.0),
])
def test_evaluation_errors_name_the_point(text, x):
    f = target.from_expression(text)
    with pytest.raises(EvaluationError) as e:
        f.evaluate(np.asarray([x]))
    assert e.value.x == x
    assert str(e.value).endswith(f" at x = {x}")


@pytest.mark.parametrize("text,x,what", [
    ("sqrt(x)", 0.0, "division by zero"),
    ("log(x)", 0.0, "division by zero"),
    ("x^0.5", 0.0, "non-finite power"),
    ("x^x", 0.0, "log of non-positive value"),
    ("0^x", 0.5, "log of non-positive value"),
])
def test_derivative_refusals_name_the_point(text, x, what):
    f = target.from_expression(text)
    with pytest.raises(EvaluationError) as e:
        f.evaluate_deriv(np.asarray([0.5, x]))
    assert e.value.x == x
    assert str(e.value) == f"{what} at x = {x}"


# ----------------------------------------------------------------------------
# the op table against numpy written out
# ----------------------------------------------------------------------------

XS = np.concatenate([np.linspace(0.01, 0.99, 33), [0.5, 1.0 / 3.0, 0.1, 0.7]])


def _c(v):
    return np.full_like(XS, v)


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("text,direct", [
    ("-x", lambda x: -x),
    ("x+0.3", lambda x: x + _c(0.3)),
    ("x-0.3", lambda x: x - _c(0.3)),
    ("x*3.7", lambda x: x * _c(3.7)),
    ("x/3.7", lambda x: x / _c(3.7)),
    ("x^2.5", lambda x: x ** _c(2.5)),
    ("x^2", lambda x: x ** _c(2.0)),
    ("pi*x", lambda x: _c(np.pi) * x),
    ("sin(x)", np.sin),
    ("cos(x)", np.cos),
    ("exp(x)", np.exp),
    ("log(x)", np.log),
    ("sqrt(x)", np.sqrt),
    ("abs(x-0.5)", lambda x: np.abs(x - _c(0.5))),
], ids=lambda v: v if isinstance(v, str) else "")
def test_each_op_is_its_numpy_expression(text, direct):
    assert _same_bits(evaluate_ast(parse_expression(text), XS), direct(XS))


@pytest.mark.parametrize("text,direct", [
    # d/dx abs(u) = sign(u) u'
    ("abs(x-0.5)", lambda x: np.sign(x - _c(0.5)) * (_c(1.0) - _c(0.0))),
    ("sin(3*x)", lambda x: np.cos(_c(3.0) * x) * (_c(0.0) * x + _c(3.0) * _c(1.0))),
    ("-exp(x)", lambda x: -(np.exp(x) * _c(1.0))),
    ("sqrt(x)", lambda x: _c(1.0) / (_c(2.0) * np.sqrt(x))),
    ("log(x)", lambda x: _c(1.0) / x),
    ("1/x", lambda x: (_c(0.0) * x - _c(1.0) * _c(1.0)) / x ** _c(2.0)),
    ("x^3", lambda x: _c(3.0) * x ** _c(2.0) * _c(1.0)),
    ("2^x", lambda x: _c(2.0) ** x * _c(math.log(2.0)) * _c(1.0)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_derivative_trees_are_their_numpy_expressions(text, direct):
    d = differentiate_ast(parse_expression(text))
    assert _same_bits(evaluate_ast(d, XS), direct(XS))


def _direct(node, x):
    """The tree by numpy operators, one branch per op."""
    op = node[0]
    if op == "num":
        return np.full_like(x, node[1])
    if op == "pi":
        return np.full_like(x, np.pi)
    if op == "x":
        return x.copy()
    if op == "neg":
        return -_direct(node[1], x)
    if op == "call":
        return getattr(np, node[1])(_direct(node[2], x))
    a, b = _direct(node[1], x), _direct(node[2], x)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[op]


@given(text=expressions())
@settings(max_examples=150, deadline=None)
def test_random_trees_and_their_derivatives_are_numpy_expressions(text):
    ast = parse_expression(text)
    for tree in (ast, differentiate_ast(ast)):
        with np.errstate(all="ignore"):
            want = _direct(tree, XS)
            try:
                got = evaluate_ast(tree, XS)
            except EvaluationError:
                continue
        assert _same_bits(got, want)


def test_domain_check_on_targets():
    f = target.from_builtin("sinpi")
    with pytest.raises(DomainError):
        f.evaluate(1.2)
    with pytest.raises(DomainError):
        f.evaluate(float("nan"))
    with pytest.raises(DomainError):
        f.evaluate_deriv(np.array([0.25, np.nan, 0.75]))


# ----------------------------------------------------------------------------
# builtins, samples, series
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("name,domain,x,val", [
    ("exp", (-1.0, 1.0), 1.0, math.e),
    ("sinpi", (0.0, 1.0), 0.5, 1.0),
    ("linear", (0.0, 1.0), 0.3, 0.3),
    ("runge", (-1.0, 1.0), 0.2, 0.5),
])
def test_builtins(name, domain, x, val):
    f = target.from_builtin(name)
    assert f.domain == domain
    assert f.descriptor == f"builtin:{name}"
    assert f.evaluate(x) == pytest.approx(val, rel=1e-15)


def test_builtin_tent_series_form():
    f = target.from_builtin("tent_series(3)")
    assert f.descriptor == "series:tent:n=3"
    assert len(f.terms) == 4


def test_a_builtin_tent_series_past_the_panel_budget_is_refused_unbuilt():
    assert len(target.from_builtin("tent_series(16)").terms) == 17
    with pytest.raises(ConfigurationError, match="tent element 17 needs a rule of more"):
        target.from_builtin("tent_series(17)")


def test_unknown_builtin():
    with pytest.raises(ConfigurationError):
        target.from_builtin("gauss")


def test_sample_files_round_trip(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("# comment line\n0 1.5\n0.5 2.0  # inline\n1 0.25\n")
    f = target.load_samples(str(p))
    assert f.descriptor.startswith("data:sha256:")
    assert f.evaluate(0.25) == pytest.approx(1.75)
    assert f.evaluate_deriv(0.1) == pytest.approx(1.0)


@pytest.mark.parametrize("body,lineno", [
    ("0 1\n0 2\n", 2),          # non-increasing
    ("0 1 7\n", 1),             # three columns
    ("0 one\n", 1),             # unparseable
    ("0 1\n", 2),               # too short
    ("0 inf\n", 1),             # non-finite
])
def test_sample_format_errors_name_lines(tmp_path, body, lineno):
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(SampleFormatError) as e:
        target.load_samples(str(p))
    assert e.value.line == lineno


def test_piecewise_linear_derivative_convention():
    f = target.piecewise_linear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert f.evaluate_deriv(0.5) == -2.0   # right-hand side owns the kink
    assert f.evaluate_deriv(1.0) == -2.0   # left limit at the end
    assert f.evaluate_deriv(0.0) == 2.0


def test_series_panel_edges_use_finest_term():
    f = target.series(fourier_sine_family(), [(1, 0.5), (4, 0.25)])
    assert len(f.panel_edges()) == 5


def test_bspline_series_on_supports_matches_full_evaluation():
    # each term runs only on its closed support; the sum must not move a bit
    # from the loop over the merged terms, in term order, shuffled or with
    # an index picked again, as greedy does
    rng = np.random.default_rng(3)
    fam = cubic_bspline_family(30, (-0.5, 2.0))
    ordered = [(j, float(rng.normal())) for j in range(1, 31)]
    shuffled = [ordered[i] for i in rng.permutation(30)]
    repeated = shuffled + [(int(j), float(rng.normal())) for j in rng.integers(1, 31, 12)]
    rule = quadrature.construction_rule(target.series(fam, ordered), [], (-0.5, 2.0)).refined(4)
    x = np.concatenate([[-0.5], rule.nodes, [2.0]])  # x == hi is in the last span
    for terms in (ordered, shuffled, repeated):
        s = target.series(fam, terms)
        for xs in (x, rng.permutation(x)):
            for restricted, full in ((s.evaluate, "evaluate"),
                                     (s.evaluate_deriv, "evaluate_deriv")):
                want = np.zeros_like(xs)
                for j, a in basis.merged(terms):
                    want = want + a * getattr(fam.element(j), full)(xs)
                assert restricted(xs).tobytes() == want.tobytes()
    assert target.series(fam, ordered).evaluate(2.0) == ordered[-1][1]


def _direct_sine_sum(terms, x, deriv):
    """The per-term sum over the basis elements: the reference the sine
    recurrence is held to."""
    fam = fourier_sine_family()
    v = np.zeros_like(x)
    for j, a in terms:
        e = fam.element(j)
        v = v + a * (e.evaluate_deriv(x) if deriv else e.evaluate(x))
    return v


def _sine_oracle(terms, x, deriv):
    with mpmath.workprec(113):
        X = mpmath.mpf(float(x))
        if deriv:
            return mpmath.sqrt(2) * mpmath.pi * mpmath.fsum(
                j * mpmath.mpf(a) * mpmath.cos(j * mpmath.pi * X) for j, a in terms)
        return mpmath.sqrt(2) * mpmath.fsum(
            mpmath.mpf(a) * mpmath.sin(j * mpmath.pi * X) for j, a in terms)


@st.composite
def _sine_terms(draw):
    """Up to 2100 as the top index: a contiguous run below it, scattered
    indices with gaps either side of the run-splitting width, and repeats."""
    top = draw(st.integers(1, 2100))
    dense = draw(st.integers(0, min(top, 200)))
    idx = list(range(top - dense + 1, top + 1))
    idx += draw(st.lists(st.integers(1, top), max_size=40)) or [top]
    idx += draw(st.lists(st.sampled_from(idx), max_size=5))
    coeff = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    coeffs = draw(st.lists(coeff, min_size=len(idx), max_size=len(idx)))
    return list(zip(draw(st.permutations(idx)), coeffs))


_SINE_POINTS = [0.0, 1e-9, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 1.0 - 1e-9, 1.0]


@settings(max_examples=50, deadline=None)
@given(_sine_terms(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_sine_series_recurrence_against_oracle_and_direct_sum(terms, extra):
    s = target.series(fourier_sine_family(), terms)
    x = np.asarray(_SINE_POINTS + extra)
    top = max(j for j, _ in terms)
    u = 2.0 ** -53
    for deriv, fn in ((False, s.evaluate), (True, s.evaluate_deriv)):
        # each |a_j| scaled by the size of its term's contribution
        scale = math.fsum(abs(a) * (math.sqrt(2.0) * j * math.pi if deriv else 1.0)
                          for j, a in terms)
        got = fn(x)
        for xi, g in zip(x, got):
            assert abs(mpmath.mpf(float(g)) - _sine_oracle(terms, xi, deriv)) \
                <= 16 * top * u * scale, (xi, deriv)
        # the direct sum rounds each angle j pi x, which alone moves a term
        # by up to about 1.5 sqrt(2) pi j u |a_j|: 1.5e-12 |a_j| at j = 2100
        direct = _direct_sine_sum(terms, x, deriv)
        assert np.max(np.abs(got - direct)) <= 2e-12 * scale
        assert np.asarray([fn(float(xi)) for xi in x]).tobytes() == got.tobytes()
        with mock.patch.object(basis, "SINE_CHUNK", 2):
            assert fn(x).tobytes() == got.tobytes()


def test_sine_recurrence_arrays_start_on_cache_lines():
    for n in (1, 7, 8, 8191, basis.SINE_CHUNK):
        rows = basis._cache_aligned(4, n)
        assert [r.size for r in rows] == [n] * 4
        assert all(r.ctypes.data % 64 == 0 for r in rows)
        assert all(a.ctypes.data + 8 * n <= b.ctypes.data for a, b in zip(rows, rows[1:]))


def test_sparse_sine_series_costs_its_terms_not_its_top_index():
    terms = [(1, 0.75), (10 ** 6, -0.25)]
    s = target.series(fourier_sine_family(), terms)
    x = np.linspace(0.0, 1.0, 16)
    t0 = time.perf_counter()
    got = s.evaluate(x), s.evaluate_deriv(x)
    assert time.perf_counter() - t0 < 0.5
    # index 10^6 rounds its angle to about 10^6 pi u
    for deriv, g in zip((False, True), got):
        want = _direct_sine_sum(terms, x, deriv)
        assert np.max(np.abs(g - want)) < 1e-8 * (1e6 * math.pi if deriv else 1.0)


def test_deep_tent_series_declines_breakpoint_listing():
    f = target.series(target.tent_partial_sum(20).family,
                      [(20, 1.0)], descriptor="series:tent:n=20")
    assert f.linear_breakpoints() is None
    shallow = target.tent_partial_sum(3)
    assert len(shallow.linear_breakpoints()) == 17


def _element_oracle(family, j, x, deriv):
    """An element on a float array, by the per-element formulas the term
    table replaced: the reference its rows are held to bit for bit."""
    kind = family.kind
    if kind == basis.CHEBYSHEV and not deriv:
        return np.cos(j * np.arccos(np.clip(x, -1.0, 1.0)))
    if kind == basis.CHEBYSHEV:
        if j == 0:
            return np.zeros_like(x)
        out = np.empty_like(x)
        near_hi = x > 1.0 - 1e-12
        near_lo = x < -1.0 + 1e-12
        mid = ~(near_hi | near_lo)
        theta = np.arccos(np.clip(x[mid], -1.0, 1.0))
        out[mid] = j * np.sin(j * theta) / np.sin(theta)
        out[near_hi] = float(j * j)
        out[near_lo] = float((-1) ** (j + 1) * j * j)
        return out
    if kind == basis.FOURIER_SINE:
        if deriv:
            return math.sqrt(2.0) * j * np.pi * np.cos(j * np.pi * x)
        return math.sqrt(2.0) * np.sin(j * np.pi * x)
    if kind == basis.MONOMIAL:
        if deriv:
            return j * x ** (j - 1) if j > 0 else np.zeros_like(x)
        return x ** j
    frac = np.ldexp(x, j)
    frac -= np.floor(frac)
    if deriv:
        return np.where(frac < 0.5, 2.0 ** (j + 1), -(2.0 ** (j + 1)))
    return 2.0 * np.minimum(frac, 1.0 - frac)


def _loop_sum(family, terms, x, deriv):
    """The per-term loop the term table replaced: +0.0, then each term in
    term order."""
    v = np.zeros_like(x)
    for j, a in terms:
        v = v + a * _element_oracle(family, j, x, deriv)
    return v


# family, top index drawn, points the table must get right
_TABLE_FAMILIES = {
    "chebyshev": (basis.chebyshev_family(), 300,
                  [-1.0, -1.0 + 1e-12, -1.0 + 5e-13, 0.0, 0.5, 1.0 - 5e-13, 1.0 - 1e-12, 1.0]),
    "fourier_sine": (basis.fourier_sine_family(), 300,
                     [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]),
    "monomial": (basis.monomial_family((-1.0, 1.0)), 60,
                 [-1.0, -1.0 + 1e-12, 0.0, 0.5, 1.0 - 1e-12, 1.0]),
    "tent": (basis.tent_family(), 40, [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]),
}


@st.composite
def _table_case(draw):
    """A family, terms with unsorted and repeated indices, and nodes from
    one to three chunks of the series' term table, the points above among
    them."""
    fam, top, points = _TABLE_FAMILIES[draw(st.sampled_from(sorted(_TABLE_FAMILIES)))]
    idx = draw(st.lists(st.integers(fam.min_index, top), min_size=1, max_size=60))
    idx += draw(st.lists(st.sampled_from(idx), max_size=5))
    coeff = st.floats(-1e3, 1e3, allow_subnormal=False)
    terms = list(zip(draw(st.permutations(idx)),
                     draw(st.lists(coeff, min_size=len(idx), max_size=len(idx)))))
    step = basis.TABLE_ENTRIES // len(terms)
    n = draw(st.integers(1, 3 * step))
    lo, hi = fam.domain
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x = np.random.default_rng(seed).uniform(lo, hi, n)
    picked = draw(st.lists(st.sampled_from(points), max_size=len(points)))
    x[:len(picked)] = picked[:n]
    return fam, terms, x


@settings(max_examples=60, deadline=None)
@given(_table_case())
def test_term_table_rows_and_series_match_the_per_term_loop_bit_for_bit(case):
    fam, terms, x = case
    js = [j for j, _ in terms]
    s = target.series(fam, terms)
    for deriv, fn in ((False, s.evaluate), (True, s.evaluate_deriv)):
        rows = basis.term_table(fam, js, x, deriv)
        for j, row in zip(js, rows):
            assert row.tobytes() == _element_oracle(fam, j, x, deriv).tobytes(), (j, deriv)
            e = fam.element(j)
            one = e.evaluate_deriv(float(x[0])) if deriv else e.evaluate(float(x[0]))
            assert np.float64(one).tobytes() == row[0].tobytes()
        if fam.kind == basis.FOURIER_SINE:
            continue  # a sine series sums by Reinsch's recurrence instead
        got = fn(x)  # the series of the merged terms, in index order
        assert got.tobytes() == _loop_sum(fam, basis.merged(terms), x, deriv).tobytes(), deriv
        assert np.asarray(fn(x[::-1].copy())[::-1]).tobytes() == got.tobytes()
        assert np.float64(fn(float(x[-1]))).tobytes() == got[-1].tobytes()
        square = x[:x.size - x.size % 2].reshape(2, -1)
        assert fn(square).tobytes() == _loop_sum(fam, basis.merged(terms), square,
                                                 deriv).tobytes()


@pytest.mark.parametrize("name", sorted(_TABLE_FAMILIES))
def test_an_empty_series_is_positive_zero_everywhere(name):
    fam, _, points = _TABLE_FAMILIES[name]
    s = target.series(fam, [])
    for fn in (s.evaluate, s.evaluate_deriv):
        got = fn(np.asarray(points))
        assert got.tobytes() == np.zeros(len(points)).tobytes()
        assert math.copysign(1.0, fn(points[0])) == 1.0 and fn(points[0]) == 0.0


def test_negative_zero_products_start_the_sum_at_positive_zero():
    # ((+0.0 + -0.0) + -0.0) is +0.0, though -0.0 + -0.0 is -0.0
    fam = basis.monomial_family((-1.0, 1.0))
    s = target.series(fam, [(1, 1.0), (3, 1.0)])
    assert math.copysign(1.0, s.evaluate(-0.0)) == 1.0
    assert math.copysign(1.0, _loop_sum(fam, [(1, 1.0), (3, 1.0)],
                                        np.asarray([-0.0]), False)[0]) == 1.0


@pytest.mark.parametrize("fn", [np.cos, np.sin, np.exp, np.arccos],
                         ids=["cos", "sin", "exp", "arccos"])
def test_elementwise_functions_round_each_value_alone(fn):
    # the term table and the byte-identical digests rest on this: numpy's
    # elementwise loop gives a value the same bits whether it comes alone,
    # in a long array, in a 2-D table or in a strided view
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, 20000) * (1.0 if fn is np.arccos else 300.0)
    whole = fn(x)
    alone = np.asarray([fn(x[i:i + 1])[0] for i in range(x.size)])
    assert alone.tobytes() == whole.tobytes()
    assert fn(x.reshape(100, 200)).tobytes() == whole.tobytes()
    assert fn(x[::3]).tobytes() == whole[::3].tobytes()


def test_a_series_builds_one_term_table_per_node_chunk(tables):
    s = target.series(basis.chebyshev_family(), [(j, 1.0 / (j + 1)) for j in range(101)])
    step = basis.TABLE_ENTRIES // 101
    s.evaluate(np.linspace(-1.0, 1.0, 4097))
    assert step == 162 and tables["tables"] == [step] * 25 + [4097 - 25 * step]
    tables["tables"].clear()
    s.evaluate_deriv(0.25)
    assert tables["tables"] == [1] and tables["value"] == tables["deriv"] == 0


def test_degree_2000_tables_stay_a_few_megabytes():
    # an unchunked table of 2001 terms by 4002 Gauss-Chebyshev nodes would
    # take 64 MB, and by the 4097 grid nodes 66 MB
    f = target.from_builtin("runge")
    exact = approximate.chebyshev_coefficients(f, 2000)
    tracemalloc.start()
    try:
        coeffs = approximate.chebyshev_coefficients(f, 2000)
        _, coeff_peak = tracemalloc.get_traced_memory()
        s = target.series(basis.chebyshev_family(), list(enumerate(exact.tolist())))
        x = np.linspace(-1.0, 1.0, 4097)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        v = s.evaluate(x)
        _, series_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coeffs.tobytes() == exact.tobytes()
    assert coeff_peak < 2_000_000
    assert series_peak - before < 2_000_000
    assert np.max(np.abs(v - f.evaluate(x))) < 1e-10


# ----------------------------------------------------------------------------
# spec resolution
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("spec,descriptor", [
    ("builtin:exp", "builtin:exp"),
    ("expr:x+1", "x+1"),
    ("x+1", "x+1"),
])
def test_resolve_spec_forms(spec, descriptor):
    assert target.resolve_spec(spec).descriptor == descriptor


def test_resolve_spec_reads_sample_files(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("0 0\n1 1\n")
    f = target.resolve_spec(f"data:{p}")
    assert f.descriptor.startswith("data:sha256:")


def test_resolve_spec_domain_applies_to_expressions():
    f = target.resolve_spec("x^2", domain=(-2.0, 2.0))
    assert f.domain == (-2.0, 2.0)
    assert target.resolve_spec("builtin:exp", domain=(0.0, 1.0)).domain == (-1.0, 1.0)
