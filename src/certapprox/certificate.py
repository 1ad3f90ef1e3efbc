r"""The one checker. A certificate is a claim: these terms over this basis
approximate that target within this error in this norm. Its record, bytes,
digest and parse live in records; this module mints a claim (assemble) and
re-checks every kind, with each fact it re-derives: verify(), verify_glued()
and verify_limit(). Builders take those facts from here; it imports none.

Verification re-measures the error with measure(), the one
verification-grade distance (the finer sup scan or refined quadrature
panels, which builders use too), checks the claim's shape with the
claim_findings() that assemble() applies, and checks

    recomputed <= reported * (1 + 1e-6) + 1e-12   and   reported < tolerance

Adverse findings land in the report's notes; verification itself does not
raise on a failed claim. Every verifier ends in verdict(): structure from
the structural notes alone, then the measurement, then the bound, so a
numeric lie fails the bound, never the structure. Genealogy resolves in a
store, a plain dict from the digest each certificate or record hashes to,
which every verifier takes as `store`.

A glued claim's reported error is certified from its parts, never by
measuring the blend: with e_i local i's reported W12 error on its patch
and mu_i the W12 mismatch of locals i and i+1 on their overlap O_i,

    B = sqrt(sum_i e_i^2) + sqrt(sum_i (mu_i / |O_i|)^2)

bounds the blend's W12 error (Melenk & Babuska 1996, Thm 1, with overlap
mismatches in place of local errors). It needs psi_i >= 0, sum_i psi_i = 1
and psi_i' = -psi_{i+1}' = -1/|O_i| on O_i, which hold when the cover and
the locals meet premise_faults(); glue.glue() and verify_glued() enforce it.
A limit claim is checked in exact rationals; exact_pair_sup derives a rung's gap.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import ConfigurationError, ToleranceViolated, TopologyError
from .records import (FILE_SUFFIX, SEQUENCE_TENT, SUP, W12, ApproximationCertificate,
                      BasisFamily, Construction, Cover, GluedCertificate, LimitCertificate,
                      LocalCertificate, NormTag, Series, Unbuilt, canonical_dumps,
                      certificate_from_dict, compute_digest, deserialize, frac_str, from_dict,
                      parse_frac, seal, serialize, tent_law, to_dict)

RELATIVE_SLACK = 1e-6
ABSOLUTE_SLACK = 1e-12
DYADIC_RULE = "ceil(log2(2/epsilon))"
LADDER_RUNGS = 8


def assemble(target_descriptor: str, basis: BasisFamily, terms, norm: NormTag,
             tolerance: float, reported_error: float, construction: Construction,
             genealogy=()) -> ApproximationCertificate:
    """Validate the claim data and mint the digest.

    The reported error must already be measured with the construction-grade
    rule; assembly checks finiteness, the tolerance gate and claim_findings
    but never re-measures.
    """
    tt = tuple((int(j), float(a)) for j, a in terms)
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigurationError(f"invalid tolerance {tolerance}")
    if not math.isfinite(reported_error) or reported_error < 0.0:
        raise ConfigurationError(f"invalid reported error {reported_error}")
    if reported_error >= tolerance:
        raise ToleranceViolated(reported_error, tolerance, "at assembly")
    for j, a in tt:
        if not math.isfinite(a):
            raise ConfigurationError(f"non-finite coefficient for index {j}")
    cert = ApproximationCertificate(target_descriptor, basis, tt, norm,
                                    float(tolerance), float(reported_error),
                                    construction, tuple(genealogy))
    findings = claim_findings(cert)
    if findings:
        raise ConfigurationError(findings[0])
    return seal(cert)


def claim_findings(cert: ApproximationCertificate) -> list[str]:
    """Shape faults of a claim: a report not below tolerance, indices
    invalid or not strictly increasing (every route seals a merged term
    list, basis.merged), a norm domain outside the basis domain. The class
    itself refuses an empty term list; no check reads the construction."""
    findings = []
    if not cert.reported_error < cert.tolerance:
        findings.append("reported error does not beat the tolerance")
    idx = [j for j, _ in cert.terms]
    if any(b <= a for a, b in zip(idx[:-1], idx[1:])):
        findings.append("term indices not strictly increasing")
    try:
        for j, _ in cert.terms:
            cert.basis.check_index(j)
    except ConfigurationError as e:
        findings.append(f"invalid term index: {e}")
    nlo, nhi = cert.norm.domain
    blo, bhi = cert.basis.domain
    if nlo < blo - 1e-12 or nhi > bhi + 1e-12:
        findings.append("norm domain exceeds basis domain")
    return findings


# ----------------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class VerificationReport:
    digest: str
    reported_error: float
    recomputed_error: float
    tolerance: float
    bound_honored: bool
    structural_ok: bool
    method: str
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool:
        return self.bound_honored and self.structural_ok

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "notes": list(self.notes), "verdict": self.verdict}


def bound_is_honored(recomputed: float, reported: float, tolerance: float) -> bool:
    return (recomputed <= reported * (1.0 + RELATIVE_SLACK) + ABSOLUTE_SLACK
            and reported < tolerance)


def measure(f, g, norm: NormTag) -> tuple[float, str]:
    """Verification-grade ||f - g||, and its method; f and g are functions,
    or records.Series, which become functions only to be measured, or a
    records.Unbuilt, whose measurement raises its error.

    Two term series over one family whose terms are equal, in the same
    order, are "same_series" at 0.0 in every norm, decided here alone, from
    family and terms, before any function, rule or scan is built: the same
    code sums them on the same nodes, so every node difference is +0.0 and
    the measurement below would return 0.0 too. Terms that differ in any
    bit fall through to it: sup_distance for the sup norm, else the
    construction rule of f and g on the norm's domain with every panel
    split four ways, so no node is a construction node. A value that
    overflows is no warning: it reaches the sum's non-finite node error or
    the scan's inf."""
    if f.terms is not None and f.terms == g.terms and f.family == g.family:
        return 0.0, "same_series"
    f, g = (h.approximant() if isinstance(h, (Series, Unbuilt)) else h for h in (f, g))
    import numpy as np

    from . import quadrature
    with np.errstate(over="ignore", invalid="ignore"):
        if norm.kind == SUP:
            return quadrature.sup_distance(f, g, norm.domain)
        # the approximant's own panel edges already consolidate every term's
        # structure; per-element unions would balloon for high-index series
        rule = quadrature.construction_rule(f, [g], interval=norm.domain).refined(4)
        return quadrature.norm_of_difference(f, g, norm, rule), \
            f"composite_gl16x{rule.n_panels}"


def envelope_findings(cert, store: dict | None = None, embedded=None):
    """Structural checks that every document kind shares, on the parsed
    record: from_dict reads each value back as written, and the CLI holds
    the one layout check, input bytes against the record's canonical bytes.

    The digest must seal the canonical content, as a store holding this
    very record under it shows, and every genealogy entry must be a
    well-formed digest. Each embedded certificate or record is hashed once,
    filed under the digest it hashes to, and noted if it claims another;
    the caller's store, which the CLI keys the same way, wins on a shared
    digest. Given a store, every genealogy entry must resolve in it.
    Returns the notes and that store.
    """
    notes = []
    filed = store is not None and store.get(cert.digest) is cert
    if not filed and cert.digest != compute_digest(to_dict(cert)):
        notes.append("digest does not match canonical content")
    if embedded is not None:
        hashed = {}
        for item in embedded:
            hashed[digest := compute_digest(to_dict(item))] = item
            if digest != item.digest:
                notes.append(f"embedded record {item.digest[:16]}... does not hash to"
                             " its digest")
        store = {**hashed, **(store or {})}
    for g in cert.genealogy:
        if len(g) != 64 or any(c not in "0123456789abcdef" for c in g):
            notes.append(f"malformed genealogy digest {g[:16]}...")
        elif store is not None and g not in store:
            notes.append(f"genealogy digest {g[:16]}... does not resolve")
    return notes, store


def measure_or_note(notes: list, what: str, compute, failed=math.inf):
    """compute(), or `failed` and a note: an unmeasurable claim is a failed claim."""
    try:
        return compute()
    except Exception as e:
        notes.append(f"{what} cannot be measured: {e}")
        return failed


def verdict(cert, notes: list, measured, what: str) -> VerificationReport:
    """The only maker of a VerificationReport. Structure is the absence of
    notes so far; measured() gives the recomputed error and its method, or
    raises, and then `what` recomputes to inf; a broken bound adds one note."""
    structural_ok = not notes
    recomputed, method = measure_or_note(notes, what, measured, (math.inf, "unmeasurable"))
    honored = bound_is_honored(recomputed, cert.reported_error, cert.tolerance)
    if not honored:
        notes.append(
            f"recomputed {what} {recomputed:.6g} vs reported {cert.reported_error:.6g}"
            f" at tolerance {cert.tolerance:.6g}")
    return VerificationReport(cert.digest, cert.reported_error, recomputed,
                              cert.tolerance, honored, structural_ok, method,
                              tuple(notes))


def verify(cert: ApproximationCertificate, f, store: dict | None = None) -> VerificationReport:
    """Independently check a certificate against the target it claims to fit,
    a function or a records.Series (then a claim of its very terms loads no
    numpy); given a store, every genealogy digest must resolve in it.

    Never raises on adverse findings; the report carries them.
    """
    notes, _ = envelope_findings(cert, store)
    notes += claim_findings(cert)
    return verdict(cert, notes, lambda: measure(f, Series(cert.basis, cert.terms), cert.norm),
                   "error")


def premise_faults(cover: Cover, locals_=(), epsilon: float = math.inf) -> list[str]:
    """Why the compositional bound would not hold; make_cover checks the
    cover alone. The patches must span the domain as a chain, lo_i < lo_{i+1}
    < hi_i < hi_{i+1} and hi_i < lo_{i+2}; local i must sit on patch i, basis
    and W12 norm on the patch, with a budget of at most epsilon/2."""
    p = cover.patches
    faults = []
    if (p[0][0], p[-1][1]) != cover.domain:
        faults.append("cover domain does not match its patches")
    # the chain is lo_0 < lo_1 < hi_0 < lo_2 < hi_1 < ... < hi_{m-1}
    ends = [p[0][0], *(x for a, b in zip(p[:-1], p[1:]) for x in (b[0], a[1])), p[-1][1]]
    if not all(a < b for a, b in zip(ends[:-1], ends[1:])):
        faults.append("patches are not a chain of consecutive overlaps")
    for i, lc in enumerate(locals_):
        if not (lc.patch_index == i and lc.patch == p[i] == lc.cert.basis.domain
                and lc.cert.norm == NormTag(W12, lc.patch)):
            faults.append(f"local {i} does not match its patch")
        if lc.cert.tolerance > 0.5 * epsilon * (1.0 + 1e-12):
            faults.append(f"local {i} budget exceeds half the global tolerance")
    return faults


def check_overlap(a: LocalCertificate, b: LocalCertificate) -> float:
    """Sobolev mismatch of two local approximants on their patch intersection,
    measured at verification grade."""
    lo, hi = max(a.patch[0], b.patch[0]), min(a.patch[1], b.patch[1])
    if not lo < hi:
        raise TopologyError(
            f"patches {a.patch_index} and {b.patch_index} do not overlap")
    return measure(a.cert.approximant(), b.cert.approximant(),
                   NormTag(W12, (lo, hi)))[0]


def compositional_bound(cover: Cover, errors, mismatches) -> float:
    """B = sqrt(sum_i e_i^2) + sqrt(sum_i (mu_i / |O_i|)^2) from the locals'
    errors e_i and the overlap mismatches mu_i; see the module docstring."""
    overlaps = map(cover.overlap, range(cover.m - 1))
    seams = (mu / (e - s) for mu, (s, e) in zip(mismatches, overlaps))
    return (math.sqrt(math.fsum(e ** 2 for e in errors))
            + math.sqrt(math.fsum(r ** 2 for r in seams)))


def verify_glued(cert: GluedCertificate, f, store: dict | None = None) -> VerificationReport:
    """Re-check a glued claim from its parts, never evaluating the blend: the
    premises, every local and its target, the records and their deltas,
    each adjusted local against its parent, the genealogy, and each overlap
    mismatch against its record and the gate tolerance/(2M). The recomputed
    error is the bound over the locals' errors and recomputed mismatches."""
    embedded = tuple(lc.cert for lc in cert.locals) + cert.parents
    notes, store = envelope_findings(cert, store, embedded)
    cover = cert.cover
    faults = premise_faults(cover, cert.locals, cert.tolerance)
    notes += faults
    for i, lc in enumerate(cert.locals):
        if lc.cert.target_descriptor != cert.target_descriptor:
            notes.append(f"local {i}: target is not the glue's")
        report = verify(lc.cert, f, store)
        notes.extend(f"local {i}: {n}" for n in report.notes)
    chain = [(i, i + 1) for i in range(cover.m - 1)]
    if [r.pair for r in cert.records] != chain:
        notes.append("reconciliation records are not the consecutive pairs")
    for r in cert.records:
        if not r.adjusted and (r.pre_mismatch != r.post_mismatch or r.deltas):
            notes.append(f"unadjusted pair {r.pair} records an adjustment")
    if sum(r.adjusted for r in cert.records) != len(cert.parents):
        notes.append("adjusted pairs and parents differ in number")
    # each patch's local as extracted: its parent where its pair was adjusted
    extracted = [lc.cert for lc in cert.locals]
    for r, parent in zip([r for r in cert.records if r.adjusted], cert.parents):
        if r.pair not in chain:  # noted with the records above
            continue
        local, extracted[r.pair[1]] = extracted[r.pair[1]], parent
        # the adjusted local is its parent but at the deltas, bit for bit
        old, moved, new = dict(parent.terms), dict(r.deltas), dict(local.terms)
        if not (list(new) == list(old)
                and all(j in new and (new[j] - old[j]).hex() == d.hex() for j, d in r.deltas)
                and all(new[j].hex() == old[j].hex() for j in new if j not in moved)):
            notes.append(f"adjusted pair {r.pair}: deltas are not its local less its parent")
        if any(getattr(local, k) != getattr(parent, k)
               for k in ("target_descriptor", "basis", "norm", "tolerance")):
            notes.append(f"adjusted pair {r.pair}: its local and parent differ in claim")
        if local.genealogy != parent.genealogy + (parent.digest,):
            notes.append(f"adjusted pair {r.pair}: its local does not descend from its parent")
    if cert.genealogy != tuple(c.digest for c in extracted):
        notes.append("genealogy does not list each patch's local as extracted")
    recorded = {r.pair: r.post_mismatch for r in cert.records}
    delta = cert.tolerance / (2.0 * cover.m)
    mismatches = []
    # check_overlap trusts each local's own patch, so a broken premise skips it
    for i, j in [] if faults else chain:
        mu = measure_or_note(notes, f"overlap ({i}, {j})",
                             lambda: check_overlap(cert.locals[i], cert.locals[j]))
        if mu >= delta:
            notes.append(f"overlap ({i}, {j}) mismatch {mu:.6g} at or above delta {delta:.6g}")
        if mu != recorded.get((i, j)):
            notes.append(f"overlap ({i}, {j}) mismatch {mu:.6g} is not the recorded one")
        mismatches.append(mu)

    def measured():
        if faults:
            raise ConfigurationError("the cover or a local breaks the bound's premises")
        errors = [lc.cert.reported_error for lc in cert.locals]
        return compositional_bound(cover, errors, mismatches), "compositional_w12"
    return verdict(cert, notes, measured, "global error")


def exact_ceil_log2(q: Fraction) -> int:
    """Smallest integer n with 2**n >= q: the bit length of ceil(q) - 1 for
    q >= 1, else 1 less the bit length of floor(1/q)."""
    if q <= 0:
        raise ConfigurationError("ceil(log2) needs a positive argument")
    num, den = q.numerator, q.denominator
    if num >= den:
        return (-(-num // den) - 1).bit_length()
    return 1 - (den // num).bit_length()


def exact_pair_sup(n: int, m: int) -> Fraction:
    """sup |S_m - S_n| on [0, 1], exactly: floor(2^(L+1) / 3) / 2^m, L = m - n.

    The difference is a sum of scales n+1..m, so it repeats with period
    2^-(n+1) and is linear between consecutive multiples of 2^-(m+1).
    One period therefore holds the sup on its dyadic grid, where scale k
    adds 2^-m min(r, P - r) at x = j 2^-(m+1), with P = 2^(m+1-k) and
    r = j mod P: an integer maximum over 2^-m. The periods are 2^L ... 2^1,
    so that maximum depends on L alone; the j whose bits alternate attains
    it, floor(2^(L+1) / 3). tests/test_limit.py checks the closed form
    against that integer scan for L = 1..16 and against exact rational
    evaluation for m <= 10; a verified ladder only holds L <= LADDER_RUNGS.
    """
    if not 0 <= n < m:
        raise ConfigurationError(f"need 0 <= n < m, got ({n}, {m})")
    return Fraction(2 ** (m - n + 1) // 3, 2 ** m)


def verify_limit(cert: LimitCertificate, store: dict | None = None) -> VerificationReport:
    """Re-derive every exact quantity in a limit claim from scratch.

    The target must name the sequence's limit, and the tolerance must be
    epsilon_exact exactly, as transfer writes them. Members are re-verified
    against the tent law of their depth. An honest member holds the law's
    very terms, which certificate.measure settles as "same_series" in
    O(terms); only a member whose terms differ in any bit loads target, to
    be scanned.
    The modulus value is re-evaluated when the rule is the known dyadic one.
    n_star must be that value and the member count, at epsilon and eps/2;
    only then are the tail 2^-n_star and the ladder computed (else the
    recomputed error is inf), so a resealed depth never sizes the work. The
    ladder must be the pairs (n_star, n_star + i), i = 1 .. LADDER_RUNGS,
    each bounded by eps/2; its gaps are re-measured exactly, and the tail is
    compared to its budget.
    """
    mod = cert.modulus_record
    embedded = cert.members + cert.ladder + (mod,)
    notes, store = envelope_findings(cert, store, embedded)
    if cert.sequence != SEQUENCE_TENT:
        notes.append(f"unknown sequence {cert.sequence!r}; nothing can be re-measured")
    if cert.target_descriptor != f"limit:{cert.sequence}":
        notes.append(f"target {cert.target_descriptor!r} is not the limit of the sequence")
    eps = parse_frac(cert.epsilon_exact)
    if Fraction(cert.tolerance) != eps:
        notes.append("tolerance is not epsilon_exact")
    half = eps / 2
    if parse_frac(cert.tail_budget) != half:
        notes.append("tail budget is not half of epsilon")
    if cert.genealogy != tuple(item.digest for item in embedded):
        notes.append("genealogy does not list members, ladder, modulus in order")
    if mod.rule == DYADIC_RULE:
        if exact_ceil_log2(2 / parse_frac(mod.argument)) != mod.value:
            notes.append("modulus value does not match its rule")
    else:
        notes.append(f"unrecognized modulus rule {mod.rule!r}; value taken as claimed")
    # n_star sizes the tail and every rung; anchored, it is the member count
    before = len(notes)
    if len(cert.members) != cert.n_star:
        notes.append(f"expected {cert.n_star} members, found {len(cert.members)}")
    if cert.n_star != mod.value:
        notes.append(f"anchor {cert.n_star} is not the modulus value {mod.value}")
    if parse_frac(mod.epsilon) != eps or parse_frac(mod.argument) != half:
        notes.append("modulus record is not taken at epsilon and epsilon/2")
    anchored = len(notes) == before
    rungs = tuple((cert.n_star, cert.n_star + i) for i in range(1, LADDER_RUNGS + 1))
    climbs = tuple(rec.pair for rec in cert.ladder) == rungs
    if not climbs:
        notes.append(f"ladder is not the {LADDER_RUNGS} rungs {rungs[0]} ... {rungs[-1]}")
    if cert.sequence == SEQUENCE_TENT:
        for i, member in enumerate(cert.members, start=1):
            descriptor, law = tent_law(i)
            if member.target_descriptor != descriptor:
                notes.append(f"member {i} does not describe depth {i}")
                continue
            report = verify(member, law, store)
            notes.extend(f"member {i}: {n}" for n in report.notes)
        for rec in cert.ladder:
            if parse_frac(rec.bound) != half:
                notes.append(f"evidence {rec.pair}: bound {rec.bound} is not the tail budget")
            if not (anchored and climbs):
                continue
            remeasured = exact_pair_sup(*rec.pair)
            if frac_str(remeasured) != rec.measured:
                notes.append(
                    f"evidence {rec.pair}: recorded gap {rec.measured}, "
                    f"re-measured {frac_str(remeasured)}")
            if not remeasured < half:
                notes.append(
                    f"evidence {rec.pair}: measured gap {frac_str(remeasured)} "
                    f"reaches bound {frac_str(half)}")
    if anchored:
        tail = Fraction(1, 2 ** cert.n_star)
        if parse_frac(cert.tail_bound) != tail:
            notes.append("tail bound is not the telescoped closed form")
        if not tail <= half:
            notes.append(f"tail {frac_str(tail)} exceeds budget {frac_str(half)}")

    def measured():
        if not anchored:
            raise ConfigurationError("the anchor does not follow the members and modulus")
        return cert.members[-1].reported_error + float(tail), "exact_dyadic_tail"
    return verdict(cert, notes, measured, "combined bound")
