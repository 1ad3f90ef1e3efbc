import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certapprox import approximate, cli, glue as glue_mod, quadrature, target
from certapprox.approximate import ExtractionSettings
from certapprox.certificate import (Construction, assemble, canonical_dumps,
                                    check_overlap, compositional_bound, compute_digest,
                                    from_dict, measure, premise_faults, seal, serialize,
                                    to_dict, verify_glued)
from certapprox.errors import (CertificateParseError, ConfigurationError,
                               ReconciliationFailureError, TopologyError)
from certapprox.glue import (Cover, GluedCertificate, LocalCertificate,
                             ReconciliationRecord, build_pou, extract_local, glue,
                             local_bspline_family, make_cover, ramp, reconcile)
from certapprox.records import glued_from_dict
from certapprox.limit import tent_sequence, transfer

EPS = 1e-2
LOCAL_SETTINGS = ExtractionSettings(0.5 * EPS)


@pytest.fixture(scope="module")
def sinpi():
    return target.from_builtin("sinpi")


@pytest.fixture(scope="module")
def cover3():
    return make_cover((0.0, 1.0), 3)


@pytest.fixture(scope="module")
def locals3(sinpi, cover3):
    return [extract_local(sinpi, i, p, local_bspline_family(p, 8), LOCAL_SETTINGS)
            for i, p in enumerate(cover3.patches)]


@pytest.fixture(scope="module")
def glued3(sinpi, cover3, locals3):
    return glue(sinpi, list(locals3), cover3, EPS)


def _perturbed_local(f, lc, bump=4e-4, at=2, eps=EPS):
    """Reissue a local certificate with one coefficient shifted, the patch
    error re-measured honestly so the document itself stays valid."""
    new_terms = [(j, a + (bump if j == at else 0.0)) for j, a in lc.cert.terms]
    fam = local_bspline_family(lc.patch, 8)
    g = target.series(fam, new_terms)
    norm = quadrature.w12_norm(lc.patch)
    rule = quadrature.construction_rule(f, [g], interval=lc.patch).refined(4)
    err = quadrature.norm_of_difference(f, g, norm, rule)
    cert = assemble(f.descriptor, fam, new_terms, norm, 0.5 * eps, err,
                    Construction("gram_solve", "shifted for mismatch tests"))
    return LocalCertificate(lc.patch_index, lc.patch, cert)


# ----------------------------------------------------------------------------
# covers
# ----------------------------------------------------------------------------

def test_three_patch_cover_geometry(cover3):
    want = [(0.0, 11.0 / 30.0), (0.3, 0.7), (19.0 / 30.0, 1.0)]
    for (lo, hi), (wlo, whi) in zip(cover3.patches, want):
        assert lo == pytest.approx(wlo, abs=1e-15)
        assert hi == pytest.approx(whi, abs=1e-15)
    s, e = cover3.overlap(0)
    assert e - s == pytest.approx(1.0 / 15.0, abs=1e-15)


def test_single_patch_cover_is_the_domain():
    c = make_cover((0.0, 1.0), 1)
    assert c.patches == ((0.0, 1.0),)
    assert c.m == 1


def test_consecutive_patches_must_overlap():
    with pytest.raises(TopologyError):
        Cover(((0.0, 0.4), (0.5, 1.0))).overlap(0)


@pytest.mark.parametrize("domain,m,frac", [
    ((0.0, 1.0), 0, 0.2),
    ((0.0, 1.0), 3, 0.0),
    ((0.0, 1.0), 3, 0.51),
    ((1.0, 0.0), 3, 0.2),
    ((0.0, float("inf")), 3, 0.2),
])
def test_make_cover_rejects_bad_requests(domain, m, frac):
    with pytest.raises((ConfigurationError, TopologyError)):
        make_cover(domain, m, overlap_fraction=frac)


def test_every_record_round_trips_through_its_dict(sinpi, locals3, cover3):
    shifted = _perturbed_local(sinpi, locals3[1])
    g = glue(sinpi, [locals3[0], shifted, locals3[2]], cover3, EPS)
    lim = transfer(tent_sequence(), 0.125)
    member = lim.members[0]
    records = [g, g.cover, *g.locals, *g.parents, *g.records, lim, *lim.ladder,
               lim.modulus_record, member, member.basis, member.norm]
    assert len({type(r) for r in records}) == 10
    assert any(r.deltas for r in g.records)
    for r in records:
        assert from_dict(type(r), to_dict(r)) == r
    # how a certificate was built is no part of its record
    assert member.construction is not None
    assert from_dict(type(member), to_dict(member)).construction is None


# a cover whose patches 0 and 2 meet, so the ramps do not sum to one
NON_CHAIN = Cover(((0.0, 0.6), (0.3, 0.8), (0.5, 1.0)))


@pytest.mark.parametrize("cover,fault", [
    (NON_CHAIN, "not a chain"),
    (Cover(((0.0, 0.4), (0.5, 1.0))), "not a chain"),
    (Cover(((0.0, 0.6), (0.2, 0.5), (0.4, 1.0))), "not a chain"),
    # out of order: the domain, the ends of the patches, is then [0.5, 0.6]
    (Cover(((0.5, 1.0), (0.0, 0.6))), "not a chain"),
    (Cover(((0.5, 0.5),)), "not a chain"),
])
def test_premise_faults_name_a_broken_cover(cover, fault):
    faults = premise_faults(cover)
    assert len(faults) == 1 and fault in faults[0]


# ----------------------------------------------------------------------------
# the ramps of the partition of unity
# ----------------------------------------------------------------------------

def test_weights_sum_to_one_everywhere(cover3):
    xs = np.linspace(0.0, 1.0, 20001)
    total = np.zeros_like(xs)
    for i in range(cover3.m):
        w = ramp(cover3, i, xs)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        total += w
    assert float(np.max(np.abs(total - 1.0))) <= 5e-15


def test_weight_vanishes_off_patch(cover3):
    xs = np.asarray([0.5, 0.9])
    assert np.all(ramp(cover3, 0, xs) == 0.0)


def test_weight_derivative_matches_finite_differences(cover3):
    xs = np.asarray([0.31, 0.33, 0.5, 0.65, 0.69])
    h = 1e-7
    for i in range(3):
        fd = (ramp(cover3, i, xs + h) - ramp(cover3, i, xs - h)) / (2 * h)
        assert ramp(cover3, i, xs, deriv=True) == pytest.approx(fd, abs=1e-5)


def test_weight_derivatives_cancel(cover3):
    xs = np.linspace(0.01, 0.99, 997)
    total = sum(ramp(cover3, i, xs, deriv=True) for i in range(3))
    assert float(np.max(np.abs(total))) <= 1e-10


def test_ramp_slope_is_reciprocal_overlap_width(cover3):
    # the bound's premise: psi_i' = -psi_{i+1}' = -1/|O_i| on O_i
    s, e = cover3.overlap(0)
    xs = np.linspace(0.31, 0.36, 11)
    assert np.all(ramp(cover3, 0, xs, deriv=True) == -1.0 / (e - s))
    assert np.all(ramp(cover3, 1, xs, deriv=True) == -ramp(cover3, 0, xs, deriv=True))
    assert ramp(cover3, 1, np.asarray([0.32]), deriv=True) == pytest.approx([15.0], rel=1e-12)


# ----------------------------------------------------------------------------
# local extraction and overlap checks
# ----------------------------------------------------------------------------

def test_locals_use_the_full_patch_family(locals3):
    for lc in locals3:
        assert len(lc.cert.terms) == 10
        assert lc.cert.norm.kind == quadrature.W12


def test_local_errors_are_stable(locals3):
    got = [lc.cert.reported_error for lc in locals3]
    assert got[0] == pytest.approx(2.6709789524485514e-05, rel=1e-9)
    assert got[1] == pytest.approx(5.94362422046322e-05, rel=1e-9)
    assert got[2] == pytest.approx(got[0], rel=1e-6)


def test_extract_rejects_family_off_the_patch(sinpi):
    fam = local_bspline_family((0.0, 0.5), 8)
    with pytest.raises(ConfigurationError):
        extract_local(sinpi, 0, (0.0, 0.4), fam, LOCAL_SETTINGS)


def test_overlap_mismatch_of_honest_locals(locals3):
    got = check_overlap(locals3[0], locals3[1])
    assert got == pytest.approx(1.7764089962279127e-05, rel=1e-9)
    assert got < EPS / 6.0


def test_disjoint_patches_cannot_be_checked(locals3):
    with pytest.raises(TopologyError):
        check_overlap(locals3[0], locals3[2])


# ----------------------------------------------------------------------------
# reconciliation
# ----------------------------------------------------------------------------

def test_reconcile_leaves_compatible_locals_alone(sinpi, locals3, cover3):
    delta = EPS / (2 * cover3.m)
    child, rec = reconcile(sinpi, locals3[0], locals3[1], delta)
    assert not rec.adjusted
    assert child.cert.digest == locals3[1].cert.digest
    assert rec.deltas == ()
    assert rec.post_mismatch == check_overlap(locals3[0], locals3[1])


def test_reconcile_pulls_a_shifted_patch_back(sinpi, locals3, cover3):
    delta = EPS / (2 * cover3.m)
    shifted = _perturbed_local(sinpi, locals3[1])
    assert check_overlap(locals3[0], shifted) >= delta
    child, rec = reconcile(sinpi, locals3[0], shifted, delta)
    assert rec.adjusted
    assert check_overlap(locals3[0], shifted) == pytest.approx(2.010795544201116e-03, rel=1e-8)
    assert rec.post_mismatch == pytest.approx(1.1410015434055295e-05, rel=1e-6)
    assert rec.post_mismatch < delta
    worst = max(abs(d) for _, d in rec.deltas)
    assert worst == pytest.approx(3.9766909404526096e-04, rel=1e-6)
    assert worst < delta
    assert child.cert.genealogy == (shifted.cert.digest,)
    assert child.cert.construction.stopping.endswith("; reconciled")
    assert child.cert.reported_error < 0.5 * EPS


def test_reconcile_only_touches_overlap_supported_terms(sinpi, locals3, cover3):
    delta = EPS / (2 * cover3.m)
    shifted = _perturbed_local(sinpi, locals3[1])
    child, rec = reconcile(sinpi, locals3[0], shifted, delta)
    touched = {j for j, _ in rec.deltas}
    fam = local_bspline_family(shifted.patch, 8)
    s, e = cover3.overlap(0)
    for j in touched:
        lo, hi = fam.element(j).support()
        assert lo < e and hi > s


def test_reconcile_fails_on_an_unreachable_gate(sinpi, locals3):
    shifted = _perturbed_local(sinpi, locals3[1])
    with pytest.raises(ReconciliationFailureError):
        reconcile(sinpi, locals3[0], shifted, 1e-9)


@pytest.fixture(scope="module")
def compose_pair(sinpi):
    # the benchmark's compose shape: 20 patches, the odd local bumped
    cover = make_cover((0.0, 1.0), 20)
    a, b = (extract_local(sinpi, i, p, local_bspline_family(p, 8), LOCAL_SETTINGS)
            for i, p in enumerate(cover.patches[:2]))
    return a, _perturbed_local(sinpi, b, bump=1e-4, at=2), EPS / (2 * cover.m)


def test_reconcile_right_hand_side_and_solution_match_per_element_probes(
        sinpi, compose_pair, monkeypatch):
    # the table-read right-hand side against one inner_product per movable
    # element on the same overlap rule: the same bytes, so the same solution;
    # reconcile imports the builder's _probes when called, so patch it there
    a, b, delta = compose_pair
    tabled, seen, results = approximate._probes, [], []

    def per_element(f, els, norm, rule):
        return np.array([quadrature.inner_product(f, e, norm, rule) for e in els])

    for probes in (tabled, per_element):
        monkeypatch.setattr(approximate, "_probes",
                            lambda *args, probes=probes: seen.append(probes(*args)) or seen[-1])
        results.append(reconcile(sinpi, a, b, delta))
    (child, record), (child_want, record_want) = results
    assert record.adjusted and len(record.deltas) == len(seen[0]) == 5
    assert seen[0].tobytes() == seen[1].tobytes()
    assert record == record_want and child.cert.digest == child_want.cert.digest


def test_reconcile_evaluates_the_residual_once_per_flag(sinpi, compose_pair, monkeypatch):
    # a work count: the residual's values and slopes, once each on the
    # overlap rule, however many elements reach the overlap
    a, b, delta = compose_pair
    calls = []
    for name in ("evaluate", "evaluate_deriv"):
        method = getattr(target.TargetFunction, name)

        def counting(self, x, name=name, method=method):
            if self.descriptor == "reconcile residual":
                calls.append(name)
            return method(self, x)
        monkeypatch.setattr(target.TargetFunction, name, counting)
    _, record = reconcile(sinpi, a, b, delta)
    assert record.adjusted and len(record.deltas) == 5
    assert calls == ["evaluate", "evaluate_deriv"]


# ----------------------------------------------------------------------------
# gluing
# ----------------------------------------------------------------------------

def test_glued_report_and_overhead_constant(glued3, locals3, sinpi):
    # the report is the compositional bound, each seam weighted by the ramp
    # slope 1/|O_i| = 15; the blend's measured error stays below it
    errors = np.array([lc.cert.reported_error for lc in locals3])
    seams = 15.0 * np.array([check_overlap(locals3[0], locals3[1]),
                             check_overlap(locals3[1], locals3[2])])
    by_hand = np.sqrt(np.sum(errors ** 2)) + np.sqrt(np.sum(seams ** 2))
    assert glued3.reported_error == pytest.approx(by_hand, rel=1e-12)
    assert glued3.reported_error == pytest.approx(4.4725691925925415e-04, rel=1e-9)
    assert glued3.reported_error < EPS
    direct, _ = measure(sinpi, glued3.approximant(), quadrature.w12_norm())
    assert direct == pytest.approx(6.72633204877917e-05, rel=1e-9)


def test_genealogy_lists_the_original_locals(glued3, locals3):
    assert glued3.genealogy == tuple(lc.cert.digest for lc in locals3)
    assert glued3.parents == ()


def test_glued_approximant_tracks_the_target(glued3, sinpi):
    g = glued3.approximant()
    xs = np.linspace(0.0, 1.0, 4001)
    dev = float(np.max(np.abs(g.evaluate(xs) - sinpi.evaluate(xs))))
    assert dev < EPS


def test_single_patch_glue_embeds_the_local_verbatim(sinpi):
    cover = make_cover((0.0, 1.0), 1)
    lc = extract_local(sinpi, 0, cover.patches[0],
                       local_bspline_family(cover.patches[0], 8), LOCAL_SETTINGS)
    g = glue(sinpi, [lc], cover, EPS)
    assert g.locals[0].cert.digest == lc.cert.digest
    assert g.reported_error == lc.cert.reported_error
    xs = np.linspace(0.0, 1.0, 2001)
    blended = g.approximant().evaluate(xs)
    assert np.array_equal(blended, lc.cert.approximant().evaluate(xs))


def test_five_patch_glue_still_verifies(sinpi):
    cover = make_cover((0.0, 1.0), 5)
    ls = [extract_local(sinpi, i, p, local_bspline_family(p, 8), LOCAL_SETTINGS)
          for i, p in enumerate(cover.patches)]
    g = glue(sinpi, ls, cover, EPS)
    assert g.reported_error == pytest.approx(1.3221380942289563e-04, rel=1e-8)
    assert verify_glued(g, sinpi).verdict


def test_glue_reconciles_a_shifted_member(sinpi, locals3, cover3):
    shifted = _perturbed_local(sinpi, locals3[1])
    g = glue(sinpi, [locals3[0], shifted, locals3[2]], cover3, EPS)
    assert [(r.pair, r.adjusted) for r in g.records] == [((0, 1), True),
                                                         ((1, 2), False)]
    assert len(g.parents) == 1
    assert g.parents[0].digest == shifted.cert.digest
    assert g.genealogy[1] == shifted.cert.digest
    # the only tier-1 path through the reconcile residual: pins its bytes
    assert g.digest == ("cdd115dbcf51f3f03205e09213a50863"
                        "828d09faad17a17290186401bee29627")
    assert verify_glued(g, sinpi).verdict


def test_glue_rejects_oversized_local_budgets(sinpi, cover3):
    loose = ExtractionSettings(0.9 * EPS)
    ls = [extract_local(sinpi, i, p, local_bspline_family(p, 8), loose)
          for i, p in enumerate(cover3.patches)]
    with pytest.raises(ConfigurationError):
        glue(sinpi, ls, cover3, EPS)


def test_glue_rejects_locals_from_another_cover(sinpi, locals3):
    other = make_cover((0.0, 1.0), 3, overlap_fraction=0.3)
    with pytest.raises(ConfigurationError):
        glue(sinpi, list(locals3), other, EPS)


def _locals_on(f, cover, settings=LOCAL_SETTINGS):
    return [extract_local(f, i, p, local_bspline_family(p, 8), settings)
            for i, p in enumerate(cover.patches)]


def test_glue_refuses_a_cover_that_is_not_a_chain(sinpi):
    with pytest.raises(ConfigurationError, match="not a chain"):
        glue(sinpi, _locals_on(sinpi, NON_CHAIN), NON_CHAIN, EPS)


def test_a_forged_claim_on_a_non_chain_cover_fails(sinpi):
    # the bound alone would pass this claim, but the ramps of NON_CHAIN do
    # not sum to one and the blend misses sin(pi x) by far more than EPS
    ls = _locals_on(sinpi, NON_CHAIN)
    mus = [check_overlap(ls[0], ls[1]), check_overlap(ls[1], ls[2])]
    records = tuple(ReconciliationRecord((i, i + 1), mu, (), False)
                    for i, mu in enumerate(mus))
    bound = compositional_bound(NON_CHAIN, [lc.cert.reported_error for lc in ls], mus)
    assert bound < EPS
    forged = seal(GluedCertificate(sinpi.descriptor, NON_CHAIN, tuple(ls), (), records,
                                   EPS, bound, tuple(lc.cert.digest for lc in ls)))
    xs = np.linspace(0.0, 1.0, 4001)
    assert np.max(np.abs(forged.approximant().evaluate(xs) - sinpi.evaluate(xs))) > EPS
    rep = verify_glued(forged, sinpi)
    assert not rep.verdict and rep.recomputed_error == math.inf
    assert "patches are not a chain of consecutive overlaps" in rep.notes


TARGETS = {"sinpi": target.from_builtin("sinpi"),
           "exp-sin": target.from_expression("exp(x)*sin(3*x)"),
           "runge": target.from_expression("1/(1+25*(2*x-1)^2)")}


@given(name=st.sampled_from(sorted(TARGETS)), m=st.integers(1, 8),
       overlap=st.floats(0.05, 0.5), bumps=st.lists(st.floats(-1e-2, 1e-2), min_size=8,
                                                    max_size=8),
       at=st.integers(1, 10))
@settings(max_examples=15, deadline=None)
def test_the_blend_error_stays_under_the_bound(name, m, overlap, bumps, at):
    # a generous tolerance keeps every bumped pair unreconciled, so the
    # mismatch term carries the bumps
    f, eps = TARGETS[name], 100.0
    cover = make_cover((0.0, 1.0), m, overlap)
    ls = [_perturbed_local(f, lc, bump, at, eps) if bump else lc
          for lc, bump in zip(_locals_on(f, cover, ExtractionSettings(0.5 * eps)), bumps)]
    g = glue(f, ls, cover, eps)
    assert not any(r.adjusted for r in g.records)
    direct, _ = measure(f, g.approximant(), quadrature.w12_norm())
    assert direct <= g.reported_error * (1 + 1e-6) + 1e-12


# ----------------------------------------------------------------------------
# serialization and verification
# ----------------------------------------------------------------------------

def test_glued_document_round_trips(glued3):
    data = serialize(glued3)
    again = glued_from_dict(json.loads(data))
    assert serialize(again) == data
    assert again.digest == glued3.digest


def test_glued_parse_rejects_wrong_kind(glued3):
    doc = json.loads(serialize(glued3))
    doc["kind"] = "approximation"
    with pytest.raises(CertificateParseError):
        glued_from_dict(doc)


def test_verify_glued_passes_and_recomputes(glued3, sinpi):
    rep = verify_glued(glued3, sinpi)
    assert rep.verdict
    assert rep.recomputed_error == glued3.reported_error
    assert rep.method == "compositional_w12"


def test_build_pou_is_the_cover_glue_takes(sinpi, cover3, locals3, glued3):
    # the call shape of older callers, the bench's compose workload among them
    shim = glue(sinpi, list(locals3), build_pou(cover3), EPS)
    assert serialize(shim) == serialize(glued3)


def test_glue_and_verify_never_evaluate_the_blend(sinpi, cover3, locals3, monkeypatch):
    def refuse(*args):
        raise AssertionError("the blend was evaluated")
    monkeypatch.setattr(glue_mod, "glued_function", refuse)
    g = glue(sinpi, list(locals3), cover3, EPS)
    assert verify_glued(g, sinpi).verdict


def test_verify_glued_catches_tampering(glued3, sinpi):
    doc = json.loads(serialize(glued3))
    doc["reported_error"] = glued3.reported_error / 2.0
    forged = glued_from_dict(doc)
    rep = verify_glued(forged, sinpi)
    assert not rep.verdict
    assert not rep.structural_ok
    assert any("digest" in n for n in rep.notes)


def test_verify_glued_checks_each_member(glued3, sinpi):
    doc = json.loads(serialize(glued3))
    doc["locals"][1]["certificate"]["reported_error"] = 1e-12
    forged = glued_from_dict(doc)
    assert not verify_glued(forged, sinpi).verdict


# ----------------------------------------------------------------------------
# embedded records and store files count under the digest they hash to
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reconciled3(sinpi, locals3, cover3):
    shifted = _perturbed_local(sinpi, locals3[1])
    return glue(sinpi, [locals3[0], shifted, locals3[2]], cover3, EPS)


def test_a_rewritten_parent_under_a_resealed_top_fails(reconciled3, sinpi, tmp_path, capsys):
    doc = json.loads(serialize(reconciled3))
    parent = doc["parents"][0]
    parent["terms"] = [[j, 2.0 * a] for j, a in parent["terms"]]
    doc["digest"] = compute_digest(doc)
    rep = verify_glued(glued_from_dict(doc), sinpi)
    assert not rep.verdict and not rep.structural_ok
    assert (f"embedded record {parent['digest'][:16]}... does not hash to its digest"
            in rep.notes)
    path = tmp_path / "parent-rewritten.json"
    path.write_bytes(canonical_dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 3
    assert "does not hash to its digest" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["replaced", "dropped", "untracked"])
def test_resealed_reconciliation_deltas_must_be_the_local_less_its_parent(
        reconciled3, sinpi, edit):
    doc = json.loads(serialize(reconciled3))
    record = doc["reconciliation"][0]
    assert record["adjusted"] and len(record["deltas"]) > 1
    if edit == "replaced":
        record["deltas"] = [[2, 0.5]]
    elif edit == "dropped":
        record["deltas"] = record["deltas"][:-1]
    else:  # a coefficient outside the deltas moves, its local resealed
        local = doc["locals"][1]["certificate"]
        moved = {j for j, _ in record["deltas"]}
        k = next(k for k, (j, _) in enumerate(local["terms"]) if j not in moved)
        local["terms"][k][1] += 1e-9
        local["digest"] = compute_digest(local)
    doc["digest"] = compute_digest(doc)
    rep = verify_glued(glued_from_dict(doc), sinpi)
    assert not rep.verdict
    assert "adjusted pair (0, 1): deltas are not its local less its parent" in rep.notes


def _list_the_adjusted_local(doc):
    doc["genealogy"][1] = doc["locals"][1]["certificate"]["digest"]


def _descend_from_the_left_local(doc):
    local = doc["locals"][1]["certificate"]
    local["genealogy"] = [doc["locals"][0]["certificate"]["digest"]]
    local["digest"] = compute_digest(local)


def _retarget_the_parent(doc):
    parent = doc["parents"][0]
    old, parent["target"] = parent["digest"], "builtin:exp"
    parent["digest"] = compute_digest(parent)
    local = doc["locals"][1]["certificate"]
    local["genealogy"] = [parent["digest"]]
    local["digest"] = compute_digest(local)
    doc["genealogy"] = [parent["digest"] if g == old else g for g in doc["genealogy"]]


def _retarget_the_left_local(doc):
    local = doc["locals"][0]["certificate"]
    local["target"] = "builtin:exp"
    local["digest"] = doc["genealogy"][0] = compute_digest(local)


# forgeries in which every digest seals its record and every genealogy
# entry resolves, and the note each draws
PROVENANCE_FORGERIES = {
    "glue-lists-the-adjusted-local": (
        _list_the_adjusted_local, "genealogy does not list each patch's local as extracted"),
    "local-descends-from-another": (
        _descend_from_the_left_local,
        "adjusted pair (0, 1): its local does not descend from its parent"),
    "parent-claims-another-target": (
        _retarget_the_parent, "adjusted pair (0, 1): its local and parent differ in claim"),
    "local-claims-another-target": (_retarget_the_left_local, "local 0: target is not the glue's"),
}


@pytest.mark.parametrize("forge,note", PROVENANCE_FORGERIES.values(),
                         ids=PROVENANCE_FORGERIES.keys())
def test_provenance_resealed_throughout_fails(reconciled3, sinpi, forge, note):
    doc = json.loads(serialize(reconciled3))
    forge(doc)
    doc["digest"] = compute_digest(doc)
    rep = verify_glued(glued_from_dict(doc), sinpi)
    assert not rep.verdict and not rep.structural_ok
    assert note in rep.notes


def test_a_store_file_that_does_not_hash_to_its_digest_resolves_nothing(
        reconciled3, tmp_path, capsys):
    child, parent = reconciled3.locals[1].cert, reconciled3.parents[0]
    assert child.genealogy == (parent.digest,)
    child_path, parent_path = tmp_path / "child.json", tmp_path / "parent.json"
    child_path.write_bytes(serialize(child))
    parent_path.write_bytes(serialize(parent))
    verify = ["verify", str(child_path), "--store", str(parent_path)]
    assert cli.main(verify) == 0
    # the claimed digest kept, the content changed
    doc = to_dict(parent)
    doc["terms"][0][1] += 1.0
    parent_path.write_bytes(canonical_dumps(doc))
    capsys.readouterr()
    assert cli.main(verify) == 3
    assert (f"genealogy digest {parent.digest[:16]}... does not resolve"
            in capsys.readouterr().out)


def test_verifying_a_parsed_glue_parses_nothing_and_hashes_each_record_once(
        reconciled3, sinpi, work):
    g = glued_from_dict(json.loads(serialize(reconciled3)))
    embedded = len(g.locals) + len(g.parents)
    assert embedded == 4
    work.clear()
    assert verify_glued(g, sinpi).verdict
    # the top digest and each embedded record's; a local's own check finds
    # it filed under its digest and hashes nothing
    assert work["from_dict"] == 0
    assert work["canonical_dumps"] == 1 + embedded
