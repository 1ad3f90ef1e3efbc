import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from certapprox import approximate, basis, quadrature, target
from certapprox.approximate import (ExtractionSettings, _probes,
                                    approximate_chebyshev, approximate_gram,
                                    approximate_greedy, approximate_orthonormal,
                                    approximate_raw_probe,
                                    chebyshev_coefficients, envelope_cholesky,
                                    gram_matrix, solve_normal_equations)
from certapprox.basis import (chebyshev_family, cubic_bspline_family,
                              fourier_sine_family, monomial_family)
from certapprox.certificate import verify
from certapprox.errors import (ConfigurationError, DomainError, EvaluationError,
                               IllConditionedBasisError, NoProgressError, ToleranceViolated)


# ----------------------------------------------------------------------------
# orthonormal probes
# ----------------------------------------------------------------------------

def test_probe_recovers_a_pure_mode_in_one_term():
    f = target.from_builtin("sinpi")
    cert = approximate_orthonormal(f, fourier_sine_family(),
                                   ExtractionSettings(1e-6))
    assert len(cert.terms) == 1
    j, a = cert.terms[0]
    assert j == 1
    assert a == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    assert cert.reported_error < 1e-14
    assert cert.construction.method == "orthonormal_probe"
    assert "parseval" in cert.construction.stopping


def test_probe_sawtooth_tail_reaches_eighty_one_terms():
    """Closed form a_j = sqrt(2) (-1)^(j+1) / (j pi); the Parseval ledger for
    the identity target crosses 0.05 exactly between N=80 and N=81."""
    f = target.from_builtin("linear")
    cert = approximate_orthonormal(f, fourier_sine_family(),
                                   ExtractionSettings(0.05, max_terms=200))
    assert len(cert.terms) == 81
    assert cert.reported_error == pytest.approx(0.04986359615804239, rel=1e-10)
    for j, a in cert.terms[:6]:
        want = math.sqrt(2.0) * (-1.0) ** (j + 1) / (j * math.pi)
        assert a == pytest.approx(want, rel=1e-12), j


def _identity_remainder(n):
    """The exact L2 remainder of the identity after n sine terms,
    sqrt(2/pi^2 * psi'(n+1)), as in criterion 4."""
    return math.sqrt(2.0 / math.pi ** 2 * float(scipy.special.polygamma(1, n + 1)))


def _between(n):
    """A tolerance the identity's ledger first meets at N = n."""
    return 0.5 * (_identity_remainder(n - 1) + _identity_remainder(n))


@pytest.mark.parametrize("n", [64, 65, 128, 129])
def test_probe_rank_is_minimal_at_block_boundaries(n):
    # probes n in (M/2, M] share the rule of e_M; a block capped at
    # max_terms = n must stop at the same rank as an uncapped one
    eps = _between(n)
    assert _identity_remainder(n - 1) >= eps > _identity_remainder(n)
    f = target.from_builtin("linear")
    for max_terms in (n, 512):
        cert = approximate_orthonormal(f, fourier_sine_family(),
                                       ExtractionSettings(eps, max_terms=max_terms))
        assert len(cert.terms) == n, max_terms
        assert cert.reported_error == pytest.approx(_identity_remainder(n), rel=1e-9)
        assert verify(cert, f).verdict


def _probes_one_at_a_time(f, family, settings):
    """The probe loop as it was before batching, kept as an oracle: each
    coefficient is math.fsum of w * (f * e_n) on its block's rule, in turn.
    Returns the terms and the stopping text, or the terms and the achieved
    error when the budget runs out."""
    norm = quadrature.l2_norm(family.domain)
    f2_rule = quadrature.construction_rule(f, [], interval=family.domain).refined(4)
    f2 = quadrature.integrate(lambda x: np.asarray(f.evaluate(x)) ** 2, f2_rule)
    acc, terms, direct, parseval, block_end = 0.0, [], math.inf, math.inf, 0
    for n in range(1, settings.max_terms + 1):
        if n > block_end:
            block_end = min(max(2 * block_end, 1), settings.max_terms)
            rule = quadrature.construction_rule(f, [family.element(block_end)],
                                                interval=family.domain)
            fx = np.asarray(f.evaluate(rule.nodes), dtype=float)
        a = math.fsum((rule.weights * (fx * family.element(n).value(rule.nodes))).tolist())
        terms.append((n, a))
        acc += a * a
        parseval = math.sqrt(max(f2 - acc, 0.0))
        if parseval < settings.epsilon:
            g = target.series(family, terms)
            last_rule = quadrature.construction_rule(f, [g], interval=family.domain)
            direct = quadrature.norm_of_difference(f, g, norm, last_rule)
            if direct < settings.epsilon:
                return terms, (f"parseval remainder {parseval:.6e} at N={len(terms)}; "
                               f"direct recheck {direct:.6e}")
    return terms, min(parseval, direct)


@pytest.mark.parametrize("eps,max_terms", [
    (0.05, 200),                       # N = 81, the first row of its batch
    (_between(67), 512),               # N = 67, the third
    (_between(64), 64), (_between(65), 65),    # blocks capped at max_terms
    (_between(128), 128), (_between(129), 129),
    (0.05, 40),                        # the budget runs out
])
def test_batched_probes_match_one_probe_at_a_time(eps, max_terms):
    f = target.from_builtin("linear")
    fam = fourier_sine_family()
    settings = ExtractionSettings(eps, max_terms=max_terms)
    terms, end = _probes_one_at_a_time(f, fam, settings)
    want = [(j, a.hex()) for j, a in terms]
    if isinstance(end, str):
        cert = approximate_orthonormal(f, fam, settings)
        assert [(j, a.hex()) for j, a in cert.terms] == want
        assert cert.construction.stopping == end
        return
    assert [(j, a.hex()) for j, a in approximate._sine_probes(f, fam, max_terms)] == want
    with pytest.raises(ToleranceViolated) as e:
        approximate_orthonormal(f, fam, settings)
    assert e.value.achieved == end


def test_probes_read_one_term_table_per_batch_and_node_slice(tables):
    # blocks up to (256, 512], whose rule has two node slices; a block's
    # batches take TABLE_ENTRIES // min(nodes, FSUM_CHUNK) indices, so the
    # blocks up to e_32's rule of 512 nodes take one batch each
    f = target.from_builtin("linear")
    fam = fourier_sine_family()
    cert = approximate_orthonormal(f, fam, ExtractionSettings(0.025, max_terms=1024))
    n, chunk = len(cert.terms), quadrature.FSUM_CHUNK
    assert 256 < n < 512
    want, start, end = [], 1, 1
    while start <= n:
        nodes = quadrature.construction_rule(f, [fam.element(end)], fam.domain).nodes.size
        batch = basis.TABLE_ENTRIES // min(nodes, chunk)
        slices = [min(chunk, nodes - i) for i in range(0, nodes, chunk)]
        want += slices * len(range(start, min(end, n) + 1, batch))
        start, end = end + 1, 2 * end
    assert want[:10] == [16, 32, 64, 128, 256, 512, 1024, 1024, 2048, 2048]
    assert want.count(2048) == 8 and want.count(chunk) == 32 + 2 * -(-(n - 256) // 4)
    assert tables["tables"] == want
    assert tables["value"] == tables["deriv"] == 0


def test_probe_temporaries_stay_one_table_in_size():
    # the 2026 probes of the identity at 1e-2 end on the rule of e_2048, of
    # 32,768 nodes, built by n = 1025. Over that block a batch's term table,
    # its extraction buffer and the rows left after a pass take 0.4 MB;
    # one probe at a time took 0.6 MB, and a table over every node 1.3 MB,
    # which lifts the whole probe to 2.4 MB
    f = target.from_builtin("linear")
    fam = fourier_sine_family()
    list(approximate._sine_probes(f, fam, 2))  # first-use imports
    tracemalloc.start()
    try:
        for n, _ in approximate._sine_probes(f, fam, 4096):
            if n == 1025:
                base, first = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
            if n == 2026:
                break
        _, last = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(first, last) < 2_000_000
    assert last - base < 500_000


def test_probe_rejects_non_orthonormal_families():
    f = target.from_builtin("exp")
    with pytest.raises(ConfigurationError):
        approximate_orthonormal(f, chebyshev_family(), ExtractionSettings(0.1))


def test_probe_raises_when_budget_runs_out():
    f = target.from_builtin("linear")
    with pytest.raises(ToleranceViolated) as e:
        approximate_orthonormal(f, fourier_sine_family(),
                                ExtractionSettings(0.05, max_terms=40))
    assert e.value.achieved > 0.05


# ----------------------------------------------------------------------------
# gram solve
# ----------------------------------------------------------------------------

def test_gram_solve_hits_frozen_spline_error():
    f = target.from_builtin("sinpi")
    fam = cubic_bspline_family(12)
    cert = approximate_gram(f, fam.interior_elements(), quadrature.w12_norm(),
                            ExtractionSettings(1e-3))
    assert cert.reported_error == pytest.approx(5.595343593589852e-4, rel=1e-10)
    assert len(cert.terms) == 10
    assert [j for j, _ in cert.terms] == list(range(2, 12))
    assert verify(cert, f).verdict


def test_gram_solve_orders_terms_by_index():
    f = target.from_builtin("sinpi")
    fam = cubic_bspline_family(8)
    els = list(fam.interior_elements())[::-1]
    cert = approximate_gram(f, els, quadrature.w12_norm(),
                            ExtractionSettings(0.1))
    idx = [j for j, _ in cert.terms]
    assert idx == sorted(idx)


def test_gram_solve_refuses_a_singular_dictionary():
    f = target.from_builtin("sinpi")
    fam = cubic_bspline_family(8)
    e = fam.element(3)
    with pytest.raises(IllConditionedBasisError) as exc:
        approximate_gram(f, [e, e], quadrature.w12_norm(),
                         ExtractionSettings(0.1))
    assert exc.value.condition > 1e12 or math.isinf(exc.value.condition)
    assert str(exc.value) == f"gram condition estimate {exc.value.condition:.3e} exceeds 1.0e+12"


def test_gram_solve_condition_gate_on_monomials():
    """High-degree monomials on a short interval blow past the threshold."""
    f = target.from_builtin("exp")
    fam = monomial_family((0.0, 0.1))
    els = [fam.element(j) for j in range(0, 14)]
    with pytest.raises(IllConditionedBasisError):
        approximate_gram(f, els, quadrature.l2_norm((0.0, 0.1)),
                         ExtractionSettings(1e-10))


def _normal_equations(case):
    f = target.from_builtin("sinpi")
    if case == "banded":
        els, norm = cubic_bspline_family(12).interior_elements(), quadrature.w12_norm()
    else:
        els, norm = [monomial_family().element(j) for j in range(7)], quadrature.l2_norm()
    return gram_matrix(els, norm), _probes(f, els, norm)


def _exact_solve(G, rhs):
    # Gauss-Jordan over the rationals the floats stand for
    k = len(G)
    rows = [[Fraction(v) for v in G[i].tolist()] + [Fraction(float(rhs[i]))]
            for i in range(k)]
    for c in range(k):
        for r in range(k):
            if r != c and rows[r][c]:
                m = rows[r][c] / rows[c][c]
                rows[r] = [a - m * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


@pytest.mark.parametrize("case", ["banded", "dense"])
def test_cholesky_solution_is_near_the_exact_one(case):
    G, rhs = _normal_equations(case)
    x = solve_normal_equations(G, rhs)
    cond = np.linalg.cond(G)
    exact = _exact_solve(G, rhs)
    got = [Fraction(v) for v in x.tolist()]
    u = Fraction(2) ** -53
    # backward: every row of rhs - G x is within a few ulps of |G| |x|
    for i in range(len(G)):
        row = [Fraction(v) for v in G[i].tolist()]
        resid = Fraction(float(rhs[i])) - sum(g * c for g, c in zip(row, got))
        assert abs(resid) <= 4 * u * sum(abs(g * c) for g, c in zip(row, got))
    # forward: the banded W12 Gram (condition 12) leaves every coefficient
    # within 4 ulps; the dense degree-6 monomial Gram (condition 4.7e8) only
    # admits the error its conditioning allows
    if case == "banded":
        assert cond < 20.0
        for c, e in zip(got, exact):
            assert abs(c - e) <= 4 * Fraction(math.ulp(float(e)))
    else:
        assert cond > 1e8
        scale = max(abs(e) for e in exact)
        assert max(abs(c - e) for c, e in zip(got, exact)) <= Fraction(cond) * u * scale


@pytest.mark.parametrize("case", ["banded", "dense"])
def test_cholesky_factor_keeps_the_envelope(case):
    G, _ = _normal_equations(case)
    L, _ = envelope_cholesky(G)
    for i in range(len(G)):
        first = int(np.flatnonzero(G[i, :i + 1])[0])
        assert not np.any(L[i, :first]) and not np.any(L[i, i + 1:])
        assert L[i, first] != 0.0
    if case == "banded":
        assert [int(np.flatnonzero(G[i])[0]) for i in range(len(G))] == \
            [max(0, i - 3) for i in range(len(G))]
    np.testing.assert_allclose(L @ L.T, G, rtol=1e-14, atol=1e-14 * np.abs(G).max())


def test_cholesky_refuses_an_indefinite_matrix():
    G = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert np.linalg.cond(G) < 4.0
    with pytest.raises(IllConditionedBasisError) as exc:
        solve_normal_equations(G, np.array([1.0, 1.0]))
    # the pivot 1 - 2^2, in row 1, is the cause; the estimate is under the limit
    assert exc.value.condition == np.linalg.cond(G)
    assert str(exc.value) == (
        "gram matrix is not positive definite: non-positive pivot -3.000e+00 in row 1,"
        f" though its condition estimate {exc.value.condition:.3e} is under 1.0e+12")


def _every_pair_gram(elements, norm, rule_for):
    # the reference: integrate all k(k+1)/2 pairs, overlapping or not
    k = len(elements)
    G = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            a, b = elements[i], elements[j]
            G[i, j] = G[j, i] = quadrature.inner_product(a, b, norm, rule_for(a, b))
    return G


@pytest.mark.parametrize("kind", [quadrature.W12, quadrature.L2], ids=["w12", "l2"])
@given(m=st.integers(min_value=4, max_value=60),
       lo=st.floats(min_value=-1e6, max_value=1e6),
       width=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=15, deadline=None)
def test_banded_gram_is_byte_identical_to_every_pair(kind, m, lo, width):
    # the shared span rule leaves out only exact-zero products, so each
    # entry keeps the bits of its pair's own rule over the whole domain
    domain = (lo, lo + width)
    els = cubic_bspline_family(m, domain).elements()
    norm = quadrature.NormTag(kind, domain)
    G = gram_matrix(els, norm)
    want = _every_pair_gram(els, norm, lambda a, b: quadrature.construction_rule(
        a, [b], norm.domain))
    assert G.tobytes() == want.tobytes()
    assert np.count_nonzero(G) == 7 * m - 12  # the band |i - j| <= 3


def test_banded_gram_is_byte_identical_on_an_overlap_rule():
    # the reconcile shape: one rule on a patch overlap for every pair
    fam = cubic_bspline_family(30, (0.25, 0.75))
    lo, hi = 0.25, 0.45
    els = [e for e in fam.elements() if e.support()[0] < hi and e.support()[1] > lo]
    s = target.series(fam, [(e.index, 0.1 * e.index) for e in els])
    rule = quadrature.construction_rule(s, els, interval=(lo, hi))
    norm = quadrature.w12_norm((lo, hi))
    G = gram_matrix(els, norm, rule)
    assert G.tobytes() == _every_pair_gram(els, norm, lambda u, v: rule).tobytes()
    assert np.count_nonzero(G) < len(els) ** 2


def test_pairs_that_share_no_rule_node_are_zero_on_an_overlap_rule():
    # every element of the family on one patch overlap's rule: pairs past the
    # overlap meet in supports but share no node, and sum to +0.0
    fam = cubic_bspline_family(30, (0.25, 0.75))
    lo, hi = 0.25, 0.45
    els = fam.elements()
    s = target.series(fam, [(e.index, 0.1 * e.index) for e in els])
    rule = quadrature.construction_rule(s, els, interval=(lo, hi))
    norm = quadrature.w12_norm((lo, hi))
    G = gram_matrix(els, norm, rule)
    assert G.tobytes() == _every_pair_gram(els, norm, lambda u, v: rule).tobytes()
    x, ends = rule.nodes, [e.support() for e in els]
    apart = [(a, b) for a in range(len(els)) for b in range(a, len(els))
             if (start := max(ends[a][0], ends[b][0])) < (stop := min(ends[a][1], ends[b][1]))
             and not np.any((x >= start) & (x <= stop))]
    assert len(apart) > 20 and {G[a, b].hex() for a, b in apart} == {"0x0.0p+0"}


def _band_gram(elements, norm):
    # the reference at bench scale: the band |i - j| <= 3 of elements in
    # index order, each pair on its own rule, +0.0 elsewhere
    k = len(elements)
    G = np.zeros((k, k))
    for i in range(k):
        for j in range(i, min(i + 4, k)):
            a, b = elements[i], elements[j]
            G[i, j] = G[j, i] = quadrature.inner_product(
                a, b, norm, quadrature.construction_rule(a, [b], norm.domain))
    return G


@pytest.mark.parametrize("kind", [quadrature.W12, quadrature.L2], ids=["w12", "l2"])
@pytest.mark.parametrize("m", [100, 200])
def test_bench_scale_gram_and_probes_keep_their_own_rules_bits(kind, m):
    fam = cubic_bspline_family(m)
    els, norm = fam.elements(), quadrature.NormTag(kind, fam.domain)
    G = gram_matrix(els, norm)
    assert G.tobytes() == _band_gram(els, norm).tobytes()
    f = _probe_target("expression", fam)
    assert _probes(f, els, norm).tobytes() == _own_rule_probes(f, els, norm).tobytes()
    # a greedy dictionary's shape: the elements in any order give the same
    # matrix, permuted
    perm = np.random.default_rng(m).permutation(len(els))
    assert gram_matrix([els[p] for p in perm], norm).tobytes() == G[np.ix_(perm, perm)].tobytes()


def test_an_overflowing_probe_fails_where_its_own_sums_fail_first():
    # f' e' overflows on the slopes of the first elements: the EvaluationError,
    # message and node, is the one the per-element sums, each element's values
    # before its slopes, raise first; no RuntimeWarning is raised
    fam = cubic_bspline_family(8)
    els, norm = fam.elements(), quadrature.w12_norm()
    f = target.from_expression("1e308*x")
    rule = quadrature.construction_rule(f, els, norm.domain)
    with pytest.raises(EvaluationError) as got:
        _probes(f, els, norm)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as want:
        for e in els:
            quadrature.inner_product(f, e, norm, rule)
    assert (str(got.value), got.value.x) == (str(want.value), want.value.x)
    assert "non-finite weighted integrand" in str(want.value)


def test_banded_gram_integrates_only_the_band(monkeypatch):
    # a work count, not a timer: k interior cubic B-splines overlap in 4k - 6
    # pairs, each one row of the values' row_sums and one of the slopes'
    els = cubic_bspline_family(200).interior_elements()
    rows = []
    row_sums = quadrature.row_sums

    def counting(n, x, products):
        rows.append(n)
        return row_sums(n, x, products)

    monkeypatch.setattr(quadrature, "row_sums", counting)
    G = gram_matrix(els, quadrature.w12_norm())
    k = len(els)
    assert k == 198 and sum(rows[0::2]) == sum(rows[1::2]) == 4 * k - 6 == 786
    # each pair integrated once, and only within the band
    r, c = np.nonzero(G)
    assert np.all(np.abs(r - c) <= 3)
    assert np.count_nonzero(G) == 2 * 786 - k


def test_bspline_gram_route_evaluates_each_element_once_per_rule(tables):
    # a work count, not a timer: the span tables one W12 Gram fit builds.
    # The Gram's span rule and the fit rule, which the probes and the
    # series' measurement share, both have 1,552 nodes, two chunks of 1,024
    # and 528: one table each for the Gram, the probes and the series'
    # values and slopes, each table holding both. A table per element and
    # flag would build 392 for the first two.
    els = cubic_bspline_family(100).interior_elements()
    approximate_gram(target.from_builtin("sinpi"), els, quadrature.w12_norm(),
                     ExtractionSettings(1e-3))
    assert tables["spans"] == [1024 + 528] * 3


def test_a_fit_built_twice_builds_its_span_tables_twice(tables):
    # no table outlives the series that built it: a second, identical W12
    # fit does all the work of the first
    els = cubic_bspline_family(40).interior_elements()
    counts = []
    for _ in range(2):
        tables["spans"].clear()
        approximate_gram(target.from_builtin("sinpi"), els, quadrature.w12_norm(),
                         ExtractionSettings(1e-3))
        counts.append(list(tables["spans"]))
    assert counts[0] == counts[1] and len(counts[0]) == 3


def test_each_bspline_reader_builds_one_span_table(tables):
    # a work count: the SpanTable builds, by node count, behind a series'
    # values and slopes, a single element, the Gram and the probes. The
    # series and the element read only the nodes their terms reach, and
    # the series' values and slopes at one node set read one table
    builds = tables["spans"]
    fam = cubic_bspline_family(20)
    t, x = fam.knots(), np.linspace(0.0, 1.0, 3001)
    s = target.series(fam, [(5, 1.0), (3, -2.0), (5, 0.5), (8, 0.25)])
    s.evaluate(x), s.evaluate_deriv(x)
    reach = np.count_nonzero((x >= t[2]) & (x <= t[11]))  # supports of 3 to 8
    assert builds == [reach] and 0 < reach < x.size
    builds.clear()
    fam.element(7).evaluate(x)
    assert builds == [np.count_nonzero((x >= t[6]) & (x <= t[10]))]
    els, norm = fam.interior_elements(), quadrature.w12_norm()
    rule = quadrature.construction_rule(els[0], els, norm.domain)
    for build in (lambda: gram_matrix(els, norm),
                  lambda: approximate._probes(target.from_builtin("sinpi"), els, norm, rule)):
        builds.clear()
        build()
        assert builds == [rule.nodes.size]


def _own_rule_probes(f, elements, norm):
    # the reference: each element probed on its own construction rule over
    # the whole domain, f evaluated anew on each
    return np.array([quadrature.inner_product(
        f, e, norm, quadrature.construction_rule(f, [e], norm.domain)) for e in elements])


def _probe_target(shape, fam):
    lo, hi = fam.domain
    width = hi - lo
    if shape == "expression":  # negative on part of the domain
        return target.from_expression(f"sin(5*(x - {lo!r})/{width!r}) - 0.3", fam.domain)
    t = np.unique(fam.knots())
    kinks = {"on_knots": t, "near_knots": t + 3e-14 * width * (-1.0) ** np.arange(t.size),
             "between_knots": 0.5 * (t[:-1] + t[1:])}[shape]
    xs = np.unique(np.concatenate([[lo], kinks[(kinks > lo) & (kinks < hi)], [hi]]))
    return target.piecewise_linear(xs, np.cos(3.0 * np.arange(xs.size)) - 0.2)


@pytest.mark.parametrize("kind", [quadrature.W12, quadrature.L2], ids=["w12", "l2"])
@pytest.mark.parametrize("shape", ["expression", "on_knots", "near_knots", "between_knots"])
@given(m=st.integers(min_value=4, max_value=60),
       lo=st.floats(min_value=-1e6, max_value=1e6),
       width=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=10, deadline=None)
def test_span_table_probes_are_byte_identical_to_own_rule_probes(kind, shape, m, lo, width):
    # one shared rule drops only exact-zero products off each support, so
    # every probe keeps the bits of its own rule's; the data targets (what
    # a data: file loads) put kinks on knots, within 3e-14 of the width
    # from them, where construction_rule coalesces slivers, and between
    fam = cubic_bspline_family(m, (lo, lo + width))
    els = fam.elements()
    norm = quadrature.NormTag(kind, fam.domain)
    f = _probe_target(shape, fam)
    want = _own_rule_probes(f, els, norm).tobytes()
    assert approximate._probes(f, els, norm).tobytes() == want
    # and on the rule approximate_gram's measurement shares
    zero = target.series(fam, [(e.index, 0.0) for e in els])
    fit = quadrature.construction_rule(f, [*els, zero], norm.domain)
    assert approximate._probes(f, els, norm, fit).tobytes() == want


@pytest.mark.parametrize("route", [approximate_gram, approximate_raw_probe])
@pytest.mark.parametrize("kind", [quadrature.W12, quadrature.L2], ids=["w12", "l2"])
def test_elements_probed_off_their_domain_are_refused(route, kind):
    # a norm domain wider than the family's: e.evaluate's DomainError, which
    # the shared span table raises before it finds any span
    f = target.from_builtin("sinpi")
    els = cubic_bspline_family(8, (0.0, 0.5)).elements()
    norm = quadrature.NormTag(kind, (0.0, 1.0))
    with pytest.raises(DomainError, match=r"outside \[0.0, 0.5\]"):
        approximate._probes(f, els, norm)
    with pytest.raises(DomainError, match=r"outside \[0.0, 0.5\]"):
        route(f, els, norm, ExtractionSettings(1e-3))


def test_mixed_families_are_rejected():
    f = target.from_builtin("sinpi")
    a = cubic_bspline_family(8).element(3)
    b = fourier_sine_family().element(1)
    with pytest.raises(ConfigurationError):
        approximate_gram(f, [a, b], quadrature.l2_norm(),
                         ExtractionSettings(0.1))
    with pytest.raises(ConfigurationError):
        approximate_gram(f, [], quadrature.l2_norm(), ExtractionSettings(0.1))


# ----------------------------------------------------------------------------
# raw probes
# ----------------------------------------------------------------------------

def test_raw_probe_misses_on_correlated_elements():
    """Splines overlap, so probe coefficients without the gram correction
    land far from the best fit; the violation reports the achieved error."""
    f = target.from_builtin("sinpi")
    fam = cubic_bspline_family(12)
    with pytest.raises(ToleranceViolated) as e:
        approximate_raw_probe(f, fam.interior_elements(), quadrature.w12_norm(),
                              ExtractionSettings(1e-3))
    assert e.value.achieved == pytest.approx(0.3906005470835479, rel=1e-10)


def test_raw_probe_matches_gram_on_an_orthonormal_family():
    f = target.from_builtin("linear")
    fam = fourier_sine_family()
    els = [fam.element(j) for j in range(1, 4)]
    raw = approximate_raw_probe(f, els, quadrature.l2_norm(),
                                ExtractionSettings(0.5))
    grm = approximate_gram(f, els, quadrature.l2_norm(),
                           ExtractionSettings(0.5))
    for (ja, a), (jb, b) in zip(raw.terms, grm.terms):
        assert ja == jb
        assert a == pytest.approx(b, abs=1e-13)


# ----------------------------------------------------------------------------
# weighted chebyshev pipeline
# ----------------------------------------------------------------------------

def test_chebyshev_coefficients_match_bessel_oracle():
    """For exp on [-1, 1] the weighted coefficients are modified Bessel
    values: a_0 = I_0(1), a_j = 2 I_j(1). scipy supplies the oracle."""
    f = target.from_builtin("exp")
    got = chebyshev_coefficients(f, 6)
    want = [float(scipy.special.iv(0, 1.0))] + [
        float(2.0 * scipy.special.iv(j, 1.0)) for j in range(1, 7)]
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("degree", [0, 6, 20, 100])
def test_chebyshev_coefficients_use_the_gauss_chebyshev_nodes(degree, chebyshev_nodes):
    # n = 2(degree + 1) ascending nodes cos((2k - 1) pi / (2n)), k = n..1,
    # each weighted pi / n, bit for bit
    x, w = chebyshev_nodes(degree)
    n = 2 * (degree + 1)
    k = np.arange(n, 0, -1)
    assert x.tobytes() == np.cos((2 * k - 1) * np.pi / (2 * n)).tobytes()
    assert w.tobytes() == np.full(n, np.pi / n).tobytes()
    assert np.all(np.diff(x) > 0.0)


def test_chebyshev_coefficients_of_t_k_are_the_unit_vectors():
    # exact on the 42 nodes up to rounding: T_j = cos(j arccos x) carries an
    # absolute error that grows with j, 3.2e-15 at worst here, not 1e-15
    fam = chebyshev_family()
    for k in range(21):
        got = chebyshev_coefficients(fam.element(k), 20)
        assert np.max(np.abs(got - np.eye(21)[k])) <= 1e-14, k


@pytest.mark.parametrize("degree", [-1, 500_000])
def test_chebyshev_node_count_bounds(degree, chebyshev_nodes):
    # 2(degree + 1) nodes must lie in 1..1,000,000
    with pytest.raises(ConfigurationError, match=f"unreasonable node count {2 * degree + 2}$"):
        chebyshev_nodes(degree)


def test_chebyshev_pipeline_exp_degree_four():
    f = target.from_builtin("exp")
    cert = approximate_chebyshev(f, 4, ExtractionSettings(5e-3))
    assert len(cert.terms) == 5
    assert cert.reported_error == pytest.approx(0.0011826257944279272, rel=1e-10)
    assert cert.norm.kind == quadrature.SUP
    assert verify(cert, f).verdict


def test_chebyshev_report_upper_bounds_a_fine_scan():
    f = target.from_builtin("exp")
    cert = approximate_chebyshev(f, 4, ExtractionSettings(5e-3))
    g = target.series(chebyshev_family(), list(cert.terms))
    xs = np.linspace(-1.0, 1.0, 20001)
    fine = float(np.max(np.abs(f.evaluate(xs) - g.evaluate(xs))))
    assert fine <= cert.reported_error


def test_chebyshev_degree_gate():
    f = target.from_builtin("exp")
    with pytest.raises(ToleranceViolated):
        approximate_chebyshev(f, 1, ExtractionSettings(1e-4))
    with pytest.raises(ConfigurationError):
        approximate_chebyshev(f, -1, ExtractionSettings(1e-4))


# ----------------------------------------------------------------------------
# matching pursuit
# ----------------------------------------------------------------------------

def test_greedy_breaks_ties_toward_the_lowest_index():
    fam = fourier_sine_family()
    mix = target.series(fam, [(1, 0.5), (2, 0.5)])
    cert = approximate_greedy(mix, [fam.element(i) for i in range(1, 5)],
                              quadrature.l2_norm(), ExtractionSettings(1e-8))
    assert [j for j, _ in cert.terms] == [1, 2]
    assert cert.terms[0][1] == pytest.approx(0.5, abs=1e-12)
    assert cert.reported_error < 1e-12


def test_greedy_stalls_outside_the_span():
    """One orthogonal dictionary element cannot reduce the residual, so the
    stall counter trips instead of looping to the term budget."""
    fam = fourier_sine_family()
    f = target.from_builtin("linear")
    with pytest.raises(NoProgressError):
        approximate_greedy(f, [fam.element(2)], quadrature.l2_norm(),
                           ExtractionSettings(1e-6, max_terms=50))


def test_greedy_reaches_a_loose_tolerance():
    fam = fourier_sine_family()
    f = target.from_builtin("linear")
    cert = approximate_greedy(f, [fam.element(i) for i in range(1, 9)],
                              quadrature.l2_norm(), ExtractionSettings(0.16))
    assert cert.reported_error < 0.16
    assert cert.construction.method == "greedy"
    assert verify(cert, f).verdict


def test_greedy_seals_its_picks_merged():
    # 104 picks over the 10 interior B-splines, most of them repeats, seal
    # one term per index in ascending order, the series every step measured
    fam = cubic_bspline_family(12)
    f = target.from_builtin("sinpi")
    cert = approximate_greedy(f, fam.interior_elements(), quadrature.l2_norm(),
                              ExtractionSettings(1e-2))
    assert [j for j, _ in cert.terms] == list(range(2, 12))
    assert cert.construction.stopping == "matching pursuit, 104 picks"
    assert verify(cert, f).verdict


# ----------------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
def test_settings_reject_bad_tolerances(eps):
    with pytest.raises(ConfigurationError):
        ExtractionSettings(eps)


def test_settings_reject_empty_budget():
    with pytest.raises(ConfigurationError):
        ExtractionSettings(1e-3, max_terms=0)
