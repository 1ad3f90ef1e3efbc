import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certapprox import basis, certificate, glue, limit, quadrature, target
from certapprox.approximate import ExtractionSettings, approximate_chebyshev
from certapprox.basis import (chebyshev_family, cubic_bspline_family,
                              fourier_sine_family, monomial_family, tent_family)
from certapprox.certificate import (Construction, assemble,
                                    bound_is_honored, canonical_dumps,
                                    certificate_from_dict, compute_digest,
                                    deserialize, measure, serialize, verify)
from certapprox.errors import (CertificateParseError, ConfigurationError,
                               ToleranceViolated)


def _simple_cert(reported=0.01, tolerance=0.05, genealogy=()):
    fam = fourier_sine_family()
    norm = quadrature.l2_norm()
    c = Construction("raw_probe", "fixed for tests")
    return assemble("builtin:sinpi", fam, [(1, 0.45), (2, -0.1)], norm,
                    tolerance, reported, c, genealogy=genealogy)


# ----------------------------------------------------------------------------
# canonical bytes
# ----------------------------------------------------------------------------

def test_canonical_form_is_sorted_and_compact():
    got = canonical_dumps({"b": 1, "a": [0.1, True, "s"], "n": 0.5}).decode()
    assert got == '{"a":[0.10000000000000001,true,"s"],"b":1,"n":0.5}'


def test_floats_carry_seventeen_significant_digits():
    v = 0.27149533953967436
    assert canonical_dumps(v).decode() == "0.27149533953967436"
    assert canonical_dumps(1.0).decode() == "1"


def test_non_finite_floats_are_rejected():
    with pytest.raises(ConfigurationError):
        canonical_dumps({"v": float("nan")})
    with pytest.raises(ConfigurationError):
        canonical_dumps([float("inf")])


def test_nesting_past_the_recursion_limit_is_refused():
    value = []
    for _ in range(5000):
        value = [value]
    with pytest.raises(ConfigurationError, match="nests too deeply"):
        canonical_dumps(value)
    with pytest.raises(CertificateParseError, match="nests too deeply"):
        deserialize("[" * 5000 + "]" * 5000)


def test_a_lone_surrogate_is_refused_as_a_string_or_key():
    # json.loads reads the escape \ud800 as a str no UTF-8 text holds
    with pytest.raises(ConfigurationError, match="not UTF-8 text"):
        canonical_dumps({"target": "sin\ud800"})
    with pytest.raises(ConfigurationError, match="not UTF-8 text"):
        canonical_dumps({"\ud800": 1})
    doc = json.loads(serialize(_simple_cert()).replace(b'"builtin:sinpi"',
                                                       b'"builtin:sinpi\\ud800"'))
    with pytest.raises(CertificateParseError, match=r"^\$\.target: not UTF-8 text$"):
        certificate_from_dict(doc)


def test_bools_are_not_confused_with_ints():
    assert canonical_dumps({"t": True, "n": 1}).decode() == '{"n":1,"t":true}'


json_scalars = st.one_of(
    st.text(max_size=12),
    st.booleans(),
    st.integers(min_value=-2 ** 53, max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20)


@given(value=json_values)
@settings(max_examples=300, deadline=None)
def test_canonical_encoding_round_trips_through_json(value):
    """Parsing canonical bytes and re-encoding them must be a fixed point."""
    data = canonical_dumps(value)
    reparsed = json.loads(data.decode("utf-8"))
    assert canonical_dumps(reparsed) == data


@given(value=json_values)
@settings(max_examples=150, deadline=None)
def test_digest_ignores_only_the_digest_field(value):
    doc = {"payload": value, "digest": "aa"}
    assert compute_digest(doc) == compute_digest({**doc, "digest": "bb"})
    assert compute_digest(doc) == compute_digest({"payload": value})


# ----------------------------------------------------------------------------
# assembly gates
# ----------------------------------------------------------------------------

def test_assemble_seals_a_digest():
    cert = _simple_cert()
    assert len(cert.digest) == 64
    assert cert.digest == compute_digest(cert.to_dict())


def test_assemble_rejects_report_at_tolerance():
    with pytest.raises(ToleranceViolated):
        _simple_cert(reported=0.05, tolerance=0.05)


@pytest.mark.parametrize("tolerance,reported,coefficient,refusal", [
    (math.nan, 0.01, 0.45, "invalid tolerance nan"),
    (0.0, 0.0, 0.45, "invalid tolerance 0.0"),
    (0.05, -0.01, 0.45, "invalid reported error -0.01"),
    (0.05, math.nan, 0.45, "invalid reported error nan"),
    (0.05, 0.01, math.nan, "non-finite coefficient for index 1"),
], ids=["tolerance-nan", "tolerance-0", "reported-negative", "reported-nan",
        "coefficient-nan"])
def test_assemble_refuses_a_claim_it_cannot_state(tolerance, reported, coefficient, refusal):
    with pytest.raises(ConfigurationError, match=f"^{refusal}$"):
        assemble("t", fourier_sine_family(), [(1, coefficient)], quadrature.l2_norm(),
                 tolerance, reported, Construction("raw_probe", "s"))


def test_assemble_rejects_empty_terms():
    fam = fourier_sine_family()
    with pytest.raises(ConfigurationError):
        assemble("t", fam, [], quadrature.l2_norm(), 0.1, 0.0,
                 Construction("raw_probe", "s"))


def test_assemble_rejects_unsorted_indices():
    fam = fourier_sine_family()
    with pytest.raises(ConfigurationError):
        assemble("t", fam, [(2, 0.1), (1, 0.2)], quadrature.l2_norm(), 0.1, 0.0,
                 Construction("raw_probe", "s"))


def test_a_greedy_claim_with_repeated_or_reordered_indices_is_refused():
    # the route is not read: greedy seals merged picks like any other claim
    fam = fourier_sine_family()
    for terms in ([(1, 0.2), (3, 0.1), (3, 0.05)], [(3, 0.1), (1, 0.2)]):
        with pytest.raises(ConfigurationError, match="term indices not strictly increasing"):
            assemble("t", fam, terms, quadrature.l2_norm(), 0.1, 0.0,
                     Construction("greedy", "s"))


def test_assemble_validates_indices_against_family():
    fam = cubic_bspline_family(6)
    with pytest.raises(ConfigurationError):
        assemble("t", fam, [(7, 0.1)], quadrature.w12_norm(), 0.1, 0.0,
                 Construction("raw_probe", "s"))


def test_assemble_refuses_a_norm_domain_wider_than_the_basis():
    fam = cubic_bspline_family(6, (0.0, 0.5))
    with pytest.raises(ConfigurationError, match="norm domain exceeds basis domain"):
        assemble("t", fam, [(2, 0.1)], quadrature.w12_norm((0.0, 1.0)), 0.1, 0.0,
                 Construction("gram_solve", "s"))


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def test_round_trip_is_byte_identical():
    cert = _simple_cert(genealogy=("ab" * 32,))
    data = serialize(cert)
    again = deserialize(data)
    assert serialize(again) == data
    assert again == cert


def test_deserialize_keeps_claimed_digest():
    """A wrong digest is a verification finding, not a parse failure."""
    doc = _simple_cert().to_dict()
    doc["digest"] = "0" * 64
    cert = deserialize(json.dumps(doc))
    assert cert.digest == "0" * 64
    report = verify(cert, target.from_builtin("sinpi"))
    assert not report.structural_ok
    assert any("digest" in n for n in report.notes)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("terms"), "terms"),
    (lambda d: d.update(terms=[]), "terms"),
    (lambda d: d.update(terms=[[1.5, 0.3]]), "terms[0]"),
    (lambda d: d.update(schema_version="9"), "schema_version"),
    (lambda d: d.update(kind="poem"), "kind"),
    (lambda d: d.update(genealogy="xyz"), "genealogy"),
    (lambda d: d.pop("digest"), "digest"),
    (lambda d: d.update(norm=3), "$.norm: not an object"),
    (lambda d: d["basis"].update(domain=[0.0, 0.5, 1.0]), "$.basis.domain: not a pair"),
    (lambda d: d["basis"].update(m=5), "$.basis: fourier_sine takes no size parameter"),
])
def test_parse_errors_name_the_field(mutate, fragment):
    doc = _simple_cert().to_dict()
    mutate(doc)
    with pytest.raises(CertificateParseError) as e:
        certificate_from_dict(doc)
    assert fragment in str(e.value)


def test_deserialize_rejects_non_json():
    with pytest.raises(CertificateParseError):
        deserialize(b"{nope")


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_deserialize_refuses_non_finite_numbers(text):
    # refused at parse time, so verify never meets a float it cannot encode
    data = serialize(_simple_cert()).decode().replace('"tolerance":0.05',
                                                        f'"tolerance":{text}')
    assert text in data
    with pytest.raises(CertificateParseError, match="non-finite number"):
        deserialize(data)


# ----------------------------------------------------------------------------
# verification semantics
# ----------------------------------------------------------------------------

def test_bound_slack_formula():
    assert bound_is_honored(1.0, 1.0, 2.0)
    assert bound_is_honored(1.0 + 9e-7, 1.0, 2.0)
    assert not bound_is_honored(1.0 + 2e-6, 1.0, 2.0)
    assert not bound_is_honored(0.5, 1.0, 1.0)   # reported must beat tolerance
    assert bound_is_honored(0.0, 0.0, 1e-15)


def test_verify_passes_an_honest_certificate():
    f = target.from_builtin("sinpi")
    from certapprox.approximate import ExtractionSettings, approximate_gram
    fam = cubic_bspline_family(12)
    cert = approximate_gram(f, fam.interior_elements(),
                            quadrature.w12_norm(), ExtractionSettings(1e-3))
    report = verify(cert, f)
    assert report.verdict
    assert report.bound_honored and report.structural_ok
    assert report.notes == ()
    assert abs(report.recomputed_error - cert.reported_error) < 1e-9


def test_verify_flags_understated_error():
    f = target.from_builtin("sinpi")
    fam = fourier_sine_family()
    cert = assemble("builtin:sinpi", fam, [(1, 0.9)], quadrature.l2_norm(),
                    1.0, 1e-6, Construction("raw_probe", "understated"))
    report = verify(cert, f)
    assert not report.bound_honored
    assert not report.verdict
    assert report.structural_ok      # the lie is numeric, not structural


def test_verify_never_raises_on_unmeasurable_targets():
    cert = _simple_cert()
    class Broken:
        def evaluate(self, x):
            raise RuntimeError("no data")
        def evaluate_deriv(self, x):
            raise RuntimeError("no data")
        def panel_edges(self):
            return np.asarray([0.0, 1.0])
    report = verify(cert, Broken())
    assert not report.verdict
    assert report.method == "unmeasurable"
    assert math.isinf(report.recomputed_error)


def test_verify_resolves_genealogy_through_store():
    parent = _simple_cert()
    child = _simple_cert(genealogy=(parent.digest,))
    f = target.from_builtin("sinpi")
    assert verify(child, f, {parent.digest: parent}).structural_ok
    dangling = verify(child, f, {})
    assert not dangling.structural_ok
    assert any("does not resolve" in n for n in dangling.notes)


def test_report_serializes():
    f = target.from_builtin("sinpi")
    report = verify(_simple_cert(), f)
    d = report.to_dict()
    assert set(d) >= {"digest", "verdict", "bound_honored", "structural_ok"}
    canonical_dumps(d)


# ----------------------------------------------------------------------------
# two series with equal terms over one family: the same_series rule
# ----------------------------------------------------------------------------

NORM_KINDS = (quadrature.L2, quadrature.W12, quadrature.SUP)
# coefficients and domains small enough that no family's values overflow
coefficients = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
domains = st.tuples(st.floats(min_value=-2.0, max_value=2.0),
                    st.floats(min_value=0.5, max_value=3.0)).map(
                        lambda lw: (lw[0], lw[0] + lw[1]))


@st.composite
def families(draw):
    """A family of each kind, with the indices its series may draw from; the
    tent levels stay low, as each level doubles the rules' panels."""
    kind = draw(st.sampled_from(("sine", "chebyshev", "monomial", "tent", "bspline")))
    if kind == "sine":
        return fourier_sine_family(), (1, 40)
    if kind == "chebyshev":
        return chebyshev_family(), (0, 40)
    if kind == "monomial":
        return monomial_family(draw(domains)), (0, 12)
    if kind == "tent":
        return tent_family(), (0, 8)
    m = draw(st.integers(min_value=4, max_value=30))
    return cubic_bspline_family(m, draw(domains)), (1, m)


@st.composite
def term_series(draw):
    fam, (lo, hi) = draw(families())
    terms = draw(st.lists(st.tuples(st.integers(lo, hi), coefficients),
                          min_size=1, max_size=8))
    return fam, tuple(terms)


def scanned(f, g, norm):
    """The measurement the same_series rule stands in for: sup_distance, or
    the refined construction rule of f and g."""
    if norm.kind == quadrature.SUP:
        return quadrature.sup_distance(f, g, norm.domain)
    rule = quadrature.construction_rule(f, [g], norm.domain).refined(4)
    return (quadrature.norm_of_difference(f, g, norm, rule),
            f"composite_gl16x{rule.n_panels}")


@given(case=term_series(), kind=st.sampled_from(NORM_KINDS))
@settings(max_examples=60, deadline=None)
def test_same_series_rule_is_what_the_measurement_gives(case, kind):
    fam, terms = case
    norm = quadrature.NormTag(kind, fam.domain)
    f, g = target.series(fam, terms), target.series(fam, terms)
    assert measure(f, g, norm) == (0.0, "same_series")
    value, _ = scanned(f, g, norm)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@given(case=term_series(), kind=st.sampled_from(NORM_KINDS),
       at=st.integers(min_value=0, max_value=7), reorder=st.booleans())
@settings(max_examples=60, deadline=None)
def test_differing_terms_are_measured(case, kind, at, reorder):
    fam, terms = case
    moved = terms[1:] + terms[:1]
    if not reorder or moved == terms:
        # the least change there is: one coefficient one ulp up
        i = at % len(terms)
        j, a = terms[i]
        moved = terms[:i] + ((j, math.nextafter(a, math.inf)),) + terms[i + 1:]
    norm = quadrature.NormTag(kind, fam.domain)
    f, g = target.series(fam, terms), target.series(fam, moved)
    assert measure(f, g, norm) == scanned(f, g, norm)


@pytest.mark.parametrize("ours,theirs", [
    (monomial_family((0.0, 1.0)), monomial_family((0.0, 2.0))),
    (cubic_bspline_family(8), cubic_bspline_family(9)),
    (cubic_bspline_family(8, (0.0, 1.0)), cubic_bspline_family(8, (0.0, 1.5))),
    (tent_family(), fourier_sine_family()),
], ids=["monomial-domain", "bspline-m", "bspline-domain", "tent-sine"])
@given(terms=st.lists(st.tuples(st.integers(1, 8), coefficients),
                      min_size=1, max_size=8).map(tuple),
       kind=st.sampled_from(NORM_KINDS))
@settings(max_examples=15, deadline=None)
def test_equal_terms_over_other_families_are_measured(ours, theirs, terms, kind):
    norm = quadrature.NormTag(kind, ours.domain)
    f, g = target.series(ours, terms), target.series(theirs, terms)
    assert measure(f, g, norm) == scanned(f, g, norm)


def test_verifying_a_chebyshev_certificate_reads_one_term_table_per_node_chunk(tables):
    # a work count, not a timer: the degree-100 sup verify sums the series
    # on the 4097-point grid, then at one point per golden-section step
    f = target.from_builtin("runge")
    cert = approximate_chebyshev(f, 100, ExtractionSettings(1e-1))
    tables["sums"].clear()
    tables["tables"].clear()
    assert verify(cert, f).verdict
    assert tables["value"] == tables["deriv"] == 0
    step = basis.TABLE_ENTRIES // 101
    sums = tables["sums"]
    assert sums[0] == 4097 and len(sums) > 2 and set(sums[1:]) == {1}
    assert tables["tables"] == [step] * (4097 // step) + [4097 % step] + [1] * (len(sums) - 1)


# ----------------------------------------------------------------------------
# the one checker
# ----------------------------------------------------------------------------

PACKAGE = Path(certificate.__file__).parent


def test_the_builders_bind_the_checkers_own_facts():
    moved = [(glue, "verify_glued"), (glue, "check_overlap"), (glue, "premise_faults"),
             (glue, "compositional_bound"), (limit, "verify_limit"), (limit, "exact_pair_sup")]
    for module, name in moved:
        assert getattr(module, name) is getattr(certificate, name), name


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text())


def test_certificate_alone_decides_a_verdict():
    names = sorted(p.name for p in PACKAGE.glob("*.py"))
    assert {"certificate.py", "glue.py", "limit.py"} <= set(names)
    called = {name: {getattr(node.func, "id", getattr(node.func, "attr", None))
                     for node in ast.walk(_tree(name)) if isinstance(node, ast.Call)}
              for name in names}
    assert [n for n in names if called[n] & {"verdict", "envelope_findings"}] == \
        ["certificate.py"]


def test_certificate_imports_no_builder():
    imported = {node.module or alias.name for node in ast.walk(_tree("certificate.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"glue", "limit", "approximate"}, imported
