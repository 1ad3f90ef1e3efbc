import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certapprox import quadrature, target
from certapprox.certificate import (LADDER_RUNGS, compute_digest, exact_ceil_log2,
                                    exact_pair_sup, serialize, verify_limit)
from certapprox.errors import (CertificateParseError, ConfigurationError,
                               EvidenceContradictionError)
from certapprox.limit import (Modulus, check_pair, dyadic_modulus, tent_certificate,
                              tent_sequence, transfer)
from certapprox.records import frac_str, limit_from_dict, parse_frac


@pytest.fixture(scope="module")
def lim_milli():
    return transfer(tent_sequence(), 1e-3)


@pytest.fixture(scope="module")
def lim_deep():
    # n* = 26: members past level 16 have no breakpoint sup scan
    return transfer(tent_sequence(), 1e-7)


# ----------------------------------------------------------------------------
# exact rational oracle: the tent sums evaluated point by point
# ----------------------------------------------------------------------------

def tent_value_exact(k: int, x: Fraction) -> Fraction:
    """Unit tent at scale k: T_k(x) = dist(2^k x, nearest integer) * 2."""
    u = x * 2 ** k
    t = u - math.floor(u)
    return 2 * t if t <= Fraction(1, 2) else 2 * (1 - t)


def partial_sum_exact(n: int, x: Fraction) -> Fraction:
    return sum(Fraction(1, 2 ** k) * tent_value_exact(k, x) for k in range(n + 1))


def pair_sup_by_scan(n: int, m: int) -> Fraction:
    """max |S_m - S_n| over one period's dyadic grid, point by point."""
    step = Fraction(1, 2 ** (m + 1))
    return max(abs(partial_sum_exact(m, j * step) - partial_sum_exact(n, j * step))
               for j in range(2 ** (m - n) + 1))


def pair_sup_by_integer_scan(n: int, m: int) -> Fraction:
    """The same grid in integers: at x = j 2^-(m+1) scale k adds
    2^-m min(r, P - r), with P = 2^(m+1-k) and r = j mod P."""
    periods = [2 ** (m + 1 - k) for k in range(n + 1, m + 1)]
    best = max(sum(min(j % p, p - j % p) for p in periods)
               for j in range(2 ** (m - n) + 1))
    return Fraction(best, 2 ** m)


# ----------------------------------------------------------------------------
# exact arithmetic helpers
# ----------------------------------------------------------------------------

def test_fraction_strings_round_trip():
    q = Fraction(85, 1024)
    assert frac_str(q) == "85/1024"
    assert parse_frac("85/1024") == q
    assert parse_frac(frac_str(Fraction(-3, 7))) == Fraction(-3, 7)


@given(num=st.integers(min_value=1, max_value=10 ** 12),
       den=st.integers(min_value=1, max_value=10 ** 12))
@settings(max_examples=200, deadline=None)
def test_ceil_log2_is_the_least_covering_power(num, den):
    q = Fraction(num, den)
    n = exact_ceil_log2(q)
    covering = Fraction(2) ** n
    assert covering >= q
    assert covering / 2 < q


@pytest.mark.parametrize("q,want", [
    (Fraction(1), 0), (Fraction(2), 1), (Fraction(3), 2), (Fraction(4), 2),
    (Fraction(1, 2), -1), (Fraction(1, 3), -1), (Fraction(5, 4), 1),
    (Fraction(9), 4),
])
def test_ceil_log2_cases(q, want):
    assert exact_ceil_log2(q) == want


def test_tent_values_are_rational():
    assert tent_value_exact(2, Fraction(3, 16)) == Fraction(1, 2)
    assert tent_value_exact(0, Fraction(1, 2)) == 1
    assert partial_sum_exact(3, Fraction(1, 2)) == 1


def test_exact_partial_sum_matches_the_hand_oracle():
    x = Fraction(3, 16)
    want = (Fraction(2 * 3, 16)
            + Fraction(1, 2) * Fraction(2, 1) * Fraction(3, 8)
            + Fraction(1, 4) * Fraction(2, 1) * Fraction(1, 4))
    assert partial_sum_exact(2, x) == want
    floating = target.tent_partial_sum(2).evaluate(3.0 / 16.0)
    assert float(partial_sum_exact(2, x)) == pytest.approx(floating, rel=1e-15)


@pytest.mark.parametrize("pair,want", [
    ((1, 2), "1/4"),
    ((3, 4), "1/16"),
    ((3, 11), "85/1024"),
    ((12, 20), "85/524288"),
])
def test_pair_sups_are_exact(pair, want):
    assert frac_str(exact_pair_sup(*pair)) == want


@given(n=st.integers(min_value=1, max_value=10),
       gap=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_pair_sup_lands_in_the_dyadic_window(n, gap):
    """|S_n - S_m| always lies in [1/2, 2/3] * 2^-n: one missing tent gives
    the floor, the full alternating stack approaches two thirds."""
    s = exact_pair_sup(n, n + gap)
    assert Fraction(1, 2) * Fraction(2) ** -n <= s
    assert s <= Fraction(2, 3) * Fraction(2) ** -n


@pytest.mark.parametrize("m", range(1, 11))
def test_integer_pair_sup_equals_the_rational_scan(m):
    for n in range(m):
        assert exact_pair_sup(n, m) == pair_sup_by_scan(n, m)


@pytest.mark.parametrize("gap", range(1, 17))
def test_closed_form_pair_sup_equals_the_integer_scan(gap):
    # the scan depends on the gap alone; 16 covers every rung a verified
    # ladder holds, which is at most LADDER_RUNGS deep
    assert LADDER_RUNGS <= 16
    n = gap % 6
    assert exact_pair_sup(n, n + gap) == pair_sup_by_integer_scan(n, n + gap)


def test_pair_sup_needs_an_ordered_pair():
    with pytest.raises(ConfigurationError):
        exact_pair_sup(4, 4)
    with pytest.raises(ConfigurationError):
        exact_pair_sup(5, 3)


# ----------------------------------------------------------------------------
# sequence members
# ----------------------------------------------------------------------------

def test_member_certificates_copy_the_terms_exactly():
    c = tent_certificate(3)
    assert c.terms == ((0, 1.0), (1, 0.5), (2, 0.25), (3, 0.125))
    assert c.reported_error == 0.0
    assert c.construction.method == "exact_representation"
    assert c.construction.stopping == "terms copied through depth 3"
    assert c.target_descriptor == "series:tent:n=3"


def test_sequence_member_accessor_guards_the_index():
    seq = tent_sequence()
    assert seq.member(2).terms[-1] == (2, 0.25)
    assert seq.member(0).terms == ((0, 1.0),)
    with pytest.raises(ConfigurationError):
        seq.member(-1)


def test_generator_failures_surface_as_incomplete_sequence():
    from certapprox.errors import IncompleteSequenceError

    def broken(n):
        raise RuntimeError("backing data lost")

    seq = tent_sequence()
    hollow = type(seq)(seq.name, broken, seq.modulus)
    with pytest.raises(IncompleteSequenceError):
        hollow.member(4)


def test_check_pair_seals_honest_evidence():
    rec = check_pair(3, 4, Fraction(1, 8))
    assert rec.pair == (3, 4)
    assert rec.measured == "1/16"
    assert len(rec.digest) == 64


def test_check_pair_raises_on_a_false_bound():
    with pytest.raises(EvidenceContradictionError) as e:
        check_pair(3, 4, Fraction(1, 32))
    assert e.value.pair == (3, 4)
    assert e.value.measured == "1/16"


# ----------------------------------------------------------------------------
# transfer
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("eps,n_star", [(0.5, 3), (0.125, 5), (1e-3, 12)])
def test_anchor_depth_follows_the_modulus(eps, n_star):
    lim = transfer(tent_sequence(), eps)
    assert lim.n_star == n_star
    assert len(lim.members) == n_star
    # the telescoped tail 2^-n_star is within the budget eps/2
    assert lim.reported_error == 2.0 ** -n_star
    assert Fraction(1, 2 ** n_star) <= Fraction(lim.tolerance) / 2


def test_transfer_milli_shape(lim_milli):
    lim = lim_milli
    assert lim.n_star == 12
    assert len(lim.ladder) == LADDER_RUNGS
    assert len(lim.genealogy) == lim.n_star + LADDER_RUNGS + 1
    assert lim.tolerance == 1e-3
    assert lim.modulus_record.argument == frac_str(Fraction(1e-3) / 2)
    assert lim.reported_error == 0.000244140625
    assert lim.reported_error == 2.0 ** -12
    assert lim.ladder[0].pair == (12, 13)
    assert lim.ladder[0].measured == "1/8192"


def test_genealogy_orders_members_then_evidence_then_modulus(lim_milli):
    lim = lim_milli
    want = tuple(m.digest for m in lim.members)
    want += tuple(e.digest for e in lim.ladder)
    want += (lim.modulus_record.digest,)
    assert lim.genealogy == want


def test_transfer_rejects_out_of_range_tolerances():
    seq = tent_sequence()
    for eps in (0.0, -0.25, 1.0, 2.0):
        with pytest.raises(ConfigurationError):
            transfer(seq, eps)


def test_a_fraction_epsilon_is_taken_at_its_sealed_float():
    # the document seals float(epsilon), so the modulus, its record and the
    # ladder are taken there too, and the certificate checks as the float's
    lim = transfer(tent_sequence(), Fraction(1, 10))
    rep = verify_limit(lim)
    assert rep.verdict, rep.notes
    assert serialize(lim) == serialize(transfer(tent_sequence(), 0.1))


def test_understated_modulus_is_contradicted_by_the_ladder():
    """A modulus claiming depth 1 suffices for every tolerance gets caught on
    the very first rung: the (1, 2) gap measures exactly 1/4."""
    bad = tent_sequence(Modulus("constant 1", lambda q: 1))
    with pytest.raises(EvidenceContradictionError) as e:
        transfer(bad, 1e-3)
    assert e.value.pair == (1, 2)
    assert e.value.measured == "1/4"


def test_a_tail_over_half_the_tolerance_is_contradicted():
    """At eps = 0.8 the same modulus passes its ladder, every rung under
    eps/2, but the tail 2^-1 past its depth of 1 exceeds eps/2."""
    bad = tent_sequence(Modulus("constant 1", lambda q: 1))
    with pytest.raises(EvidenceContradictionError) as e:
        transfer(bad, 0.8)
    assert e.value.pair == (1, 1)
    assert e.value.measured == "1/2"


# ----------------------------------------------------------------------------
# verification and serialization
# ----------------------------------------------------------------------------

def test_verify_limit_passes(lim_milli):
    rep = verify_limit(lim_milli)
    assert rep.verdict
    assert rep.method == "exact_dyadic_tail"
    assert rep.recomputed_error == lim_milli.reported_error


def test_limit_round_trips_byte_identically(lim_milli):
    data = serialize(lim_milli)
    again = limit_from_dict(json.loads(data))
    assert serialize(again) == data
    assert verify_limit(again).verdict


def test_verifying_a_parsed_limit_parses_nothing_and_hashes_each_record_once(
        lim_milli, work):
    lim = limit_from_dict(json.loads(serialize(lim_milli)))
    embedded = len(lim.members) + len(lim.ladder) + 1
    work.clear()
    assert verify_limit(lim).verdict
    # the top digest and each embedded record's; a member's own check
    # finds it filed under its digest and hashes nothing
    assert work["from_dict"] == 0
    assert work["canonical_dumps"] == 1 + embedded


def test_doctored_ladder_rung_fails_verification(lim_milli):
    doc = json.loads(serialize(lim_milli))
    doc["ladder"][3]["measured"] = "1/1000000"
    forged = limit_from_dict(doc)
    rep = verify_limit(forged)
    assert not rep.verdict
    assert not rep.structural_ok


def test_doctored_tail_fails_verification(lim_milli):
    # the tail is 2^-n_star, so a smaller one claims a deeper anchor than
    # the members and the modulus record back
    doc = json.loads(serialize(lim_milli))
    doc["n_star"], doc["reported_error"] = 30, 2.0 ** -30
    rep = verify_limit(limit_from_dict(doc))
    assert not rep.verdict


def test_unknown_modulus_rule_is_flagged(lim_milli):
    doc = json.loads(serialize(lim_milli))
    doc["modulus"]["rule"] = "oracle says so"
    rep = verify_limit(limit_from_dict(doc))
    assert not rep.verdict
    assert any("modulus" in n for n in rep.notes)


def test_limit_parse_rejects_wrong_kind(lim_milli):
    doc = json.loads(serialize(lim_milli))
    doc["kind"] = "glued"
    with pytest.raises(CertificateParseError):
        limit_from_dict(doc)


def test_dyadic_modulus_matches_the_named_rule():
    mod = dyadic_modulus()
    assert mod(Fraction(1, 4)) == 3
    assert mod(Fraction(1, 2)) == 2
    assert mod(Fraction(1e-3) / 2) == 12


# ----------------------------------------------------------------------------
# resealed forgeries: the anchor follows its modulus, the ladder its anchor
# ----------------------------------------------------------------------------

def resealed(lim, edit):
    """lim's document after edit, with every rung and the modulus record
    resealed, the genealogy listing them again, and the document resealed."""
    doc = json.loads(serialize(lim))
    edit(doc)
    for rec in doc["ladder"] + [doc["modulus"]]:
        rec["digest"] = compute_digest(rec)
    doc["genealogy"] = [d["digest"] for d in doc["members"] + doc["ladder"] + [doc["modulus"]]]
    doc["digest"] = compute_digest(doc)
    return limit_from_dict(doc)


def _empty_ladder(doc):
    doc["ladder"] = []


def _anchor_past_its_modulus(doc):
    # the n*=13 claim under the n*=12 claim's own, self-consistent record
    deeper = json.loads(serialize(transfer(tent_sequence(), 5e-4)))
    doc.update(deeper, modulus=doc["modulus"])


def _huge_anchor(doc):
    doc["n_star"] = 10 ** 12


def _far_rung(doc):
    doc["ladder"][0]["pair"] = [12, 60]


@pytest.mark.parametrize("edit,note", [
    (_empty_ladder, "ladder is not the 8 rungs (12, 13) ... (12, 20)"),
    (_anchor_past_its_modulus, "anchor 13 is not the modulus value 12"),
    (_huge_anchor, "expected 1000000000000 members, found 12"),
    (_far_rung, "ladder is not the 8 rungs (12, 13) ... (12, 20)"),
], ids=["empty-ladder", "anchor-past-its-modulus", "anchor-1e12", "rung-12-60"])
def test_resealed_forgeries_fail(lim_milli, edit, note):
    rep = verify_limit(resealed(lim_milli, edit))
    assert not rep.verdict
    assert not rep.structural_ok
    assert note in rep.notes


def test_an_unanchored_claim_recomputes_to_inf(lim_milli):
    # neither the tail 2^-n_star nor a rung is computed for a depth the
    # modulus record and the members do not back
    rep = verify_limit(resealed(lim_milli, _huge_anchor))
    assert math.isinf(rep.recomputed_error)
    assert not any(n.startswith("evidence") for n in rep.notes)


def test_a_rung_bound_must_be_the_tail_budget(lim_milli):
    def loosen(doc):
        doc["ladder"][2]["bound"] = "1/2"
    rep = verify_limit(resealed(lim_milli, loosen))
    assert not rep.verdict
    assert "evidence (12, 15): bound 1/2 is not the tail budget" in rep.notes


INTEGER_FIELDS = [("n_star",), ("ladder", "rung", "pair", 0),
                  ("ladder", "rung", "pair", 1), ("modulus", "value")]


@given(path=st.sampled_from(INTEGER_FIELDS),
       rung=st.integers(min_value=0, max_value=LADDER_RUNGS - 1),
       value=st.integers(min_value=-10 ** 12, max_value=10 ** 12))
@settings(max_examples=60, deadline=5000)
def test_resealed_integer_fields_end_in_a_verdict(lim_milli, path, rung, value):
    keys = [rung if k == "rung" else k for k in path]

    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value

    try:
        cert = resealed(lim_milli, edit)
    except CertificateParseError:
        return
    rep = verify_limit(cert)
    # only the unchanged document passes
    assert rep.verdict == (cert.digest == lim_milli.digest)


# ----------------------------------------------------------------------------
# members: an honest one is its partial sum's terms, a forged one is scanned
# ----------------------------------------------------------------------------

def test_honest_members_are_not_scanned(lim_deep, monkeypatch):
    def refuse(*args):
        raise AssertionError("an honest member was scanned")
    monkeypatch.setattr(quadrature, "sup_distance", refuse)
    monkeypatch.setattr(quadrature, "norm_of_difference", refuse)
    rep = verify_limit(lim_deep)
    assert rep.verdict
    assert rep.notes == ()
    assert rep.recomputed_error == lim_deep.reported_error == 2.0 ** -26


def _double_level_3(member):
    def edit(doc):
        cert = doc["members"][member - 1]
        cert["terms"][3][1] *= 2.0
        cert["digest"] = compute_digest(cert)
    return edit


@pytest.mark.parametrize("member", [5, 20])
def test_a_resealed_member_with_a_doubled_coefficient_fails(lim_deep, member):
    rep = verify_limit(resealed(lim_deep, _double_level_3(member)))
    assert not rep.verdict
    # the difference is 2^-3 T_3, whose sup is 1/8
    assert (f"member {member}: recomputed error 0.125 vs reported 0 at tolerance 1e-15"
            in rep.notes)
