r"""A certificate is a claim: these terms over this basis approximate that
target within this error in this norm. Its record, bytes, digest and parse
live in records; this module mints a claim (assemble) and re-checks it.

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
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigurationError, ToleranceViolated
from .records import (FILE_SUFFIX, SUP, ApproximationCertificate, BasisFamily,
                      Construction, NormTag, Series, Unbuilt, canonical_dumps,
                      certificate_from_dict, compute_digest, deserialize, from_dict, seal,
                      serialize, to_dict)

RELATIVE_SLACK = 1e-6
ABSOLUTE_SLACK = 1e-12


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
