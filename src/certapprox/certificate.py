r"""Certificates, canonical serialization, digests, and verification.

A certificate is a claim: these terms over this basis approximate that
target within this error in this norm. Claims are serialized canonically
(sorted keys, no insignificant whitespace, floats as 17-significant-digit
decimals) so that equal claims are equal bytes, and the SHA-256 digest of
the canonical bytes minus the digest field is the certificate's identity.
The envelope every document kind shares (schema_version, kind, genealogy,
digest) is written, parsed and checked here; glue and limit add payloads.

Verification re-measures the error with measure(), the one
verification-grade distance (the finer sup scan or refined quadrature
panels, which builders use too), checks the claim's shape with the
claim_findings() that assemble() applies, and checks

    recomputed <= reported * (1 + 1e-6) + 1e-12   and   reported < tolerance

Adverse findings land in the report's notes; verification itself does not
raise on a failed claim. Every verifier ends in verdict(): structure from
the structural notes alone, then the measurement, then the bound, so a
numeric lie fails the bound, never the structure. Genealogy resolves in a
store, a plain dict from digest to certificate or record, which every
verifier takes as `store`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from . import quadrature, target as target_mod
from .basis import BasisFamily
from .errors import CertificateParseError, ConfigurationError, ToleranceViolated
from .quadrature import NormTag

SCHEMA_VERSION = "1"
FILE_SUFFIX = ".uelat.json"

RELATIVE_SLACK = 1e-6
ABSOLUTE_SLACK = 1e-12

GREEDY = "greedy"


# ----------------------------------------------------------------------------
# canonical encoding
# ----------------------------------------------------------------------------

def _encode(value, out: list, path: str):
    if isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigurationError(f"non-finite float at {path}")
        # the sign of zero depends on the computation path, so it must not
        # reach the digest
        out.append("%.17g" % (value + 0.0))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _encode(item, out, f"{path}[{i}]")
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ConfigurationError(f"non-string key at {path}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _encode(value[key], out, f"{path}.{key}")
        out.append("}")
    else:
        raise ConfigurationError(f"unserializable {type(value).__name__} at {path}")


def canonical_dumps(value) -> bytes:
    """Canonical JSON bytes: sorted keys, %.17g floats, UTF-8, no whitespace."""
    out: list[str] = []
    _encode(value, out, "$")
    return "".join(out).encode("utf-8")


def compute_digest(doc: dict) -> str:
    """SHA-256 hex of the canonical bytes with the digest field excluded."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_dumps(body)).hexdigest()


def envelope(kind: str, cert, payload: dict) -> dict:
    """A document of the given kind: the shared envelope around its payload."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload,
            "genealogy": list(cert.genealogy), "digest": cert.digest}


# ----------------------------------------------------------------------------
# certificate data
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Construction:
    """How a certificate was built: method, rule provenance, stopping reason."""

    method: str
    stopping: str
    rule: dict | None = None
    supnorm_method: str | None = None

    def to_dict(self) -> dict:
        d = {"method": self.method, "stopping": self.stopping}
        if self.rule is not None:
            d["rule"] = self.rule
        if self.supnorm_method is not None:
            d["supnorm_method"] = self.supnorm_method
        return d

    @staticmethod
    def from_dict(d: dict) -> "Construction":
        return Construction(str(d["method"]), str(d["stopping"]),
                            d.get("rule"), d.get("supnorm_method"))


@dataclass(frozen=True)
class ApproximationCertificate:
    target_descriptor: str
    basis: BasisFamily
    terms: tuple[tuple[int, float], ...]
    norm: NormTag
    tolerance: float
    reported_error: float
    construction: Construction
    genealogy: tuple[str, ...] = ()
    digest: str = ""

    def to_dict(self) -> dict:
        return envelope("approximation", self, {
            "target": self.target_descriptor,
            "basis": self.basis.to_dict(),
            "terms": [[int(j), float(a)] for j, a in self.terms],
            "norm": self.norm.to_dict(),
            "tolerance": float(self.tolerance),
            "reported_error": float(self.reported_error),
            "construction": self.construction.to_dict(),
        })

    def approximant(self) -> target_mod.TargetFunction:
        return target_mod.series(self.basis, self.terms)


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
    """Shape faults of a claim: no terms, a report not below tolerance,
    indices invalid or not increasing (greedy excepted), a norm domain
    outside the basis domain."""
    findings = []
    if not cert.terms:
        findings.append("empty term list")
    if not cert.reported_error < cert.tolerance:
        findings.append("reported error does not beat the tolerance")
    if cert.construction.method != GREEDY:
        idx = [j for j, _ in cert.terms]
        if any(b <= a for a, b in zip(idx[:-1], idx[1:])):
            findings.append("term indices not strictly increasing")
    try:
        for j, _ in cert.terms:
            cert.basis.element(j)
    except ConfigurationError as e:
        findings.append(f"invalid term index: {e}")
    nlo, nhi = cert.norm.domain
    blo, bhi = cert.basis.domain
    if nlo < blo - 1e-12 or nhi > bhi + 1e-12:
        findings.append("norm domain exceeds basis domain")
    return findings


def serialize(cert) -> bytes:
    """Canonical bytes of a certificate of any kind."""
    return canonical_dumps(cert.to_dict())


def seal(record):
    """A copy of the record with its digest minted over its canonical content."""
    return dataclasses.replace(record, digest=compute_digest(record.to_dict()))


def digest_ok(record) -> bool:
    """The record's digest seals its canonical content."""
    return record.digest == compute_digest(record.to_dict())


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise CertificateParseError(f"missing field {path}.{key}")
    return doc[key]


# errors a malformed payload raises while its fields are converted
_PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
                   ConfigurationError)


def parse_envelope(doc, kind: str, build, path: str = "$"):
    """Check the fields every document kind shares, then build the payload.

    The envelope is an object with the supported schema_version, the
    expected kind, a string digest and a genealogy list of strings.
    build(doc) reads the kind's own fields; a missing key or a value of the
    wrong type or range there becomes a CertificateParseError. The digest
    is kept as claimed so that tampering surfaces as a verification failure,
    not a parse error.
    """
    if not isinstance(doc, dict):
        raise CertificateParseError(f"{path} is not an object")
    version = _need(doc, "schema_version", path)
    if version != SCHEMA_VERSION:
        raise CertificateParseError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})")
    found = _need(doc, "kind", path)
    if found != kind:
        raise CertificateParseError(f"{path}.kind is {found!r}, not {kind!r}")
    if not isinstance(_need(doc, "digest", path), str):
        raise CertificateParseError(f"{path}.digest must be a string")
    genealogy = _need(doc, "genealogy", path)
    if not isinstance(genealogy, list) or not all(isinstance(g, str) for g in genealogy):
        raise CertificateParseError(f"{path}.genealogy must be a list of digests")
    try:
        return build(doc)
    except _PAYLOAD_ERRORS as e:
        raise CertificateParseError(f"malformed {kind} document at {path}: {e!r}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CertificateParseError(f"non-finite number {text} in JSON")
    return value


def load_json(data, source: str = "document"):
    """UTF-8 JSON as a Python value. Invalid JSON, NaN, Infinity and float
    overflow, which no canonical document holds, are CertificateParseErrors."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_constant=_finite, parse_float=_finite)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CertificateParseError(f"{source} is not valid JSON: {e}") from None


def deserialize(data) -> ApproximationCertificate:
    """Parse canonical bytes back into an approximation certificate."""
    return certificate_from_dict(load_json(data))


def certificate_from_dict(doc: dict, path: str = "$") -> ApproximationCertificate:
    def build(doc):
        raw_terms = doc["terms"]
        if not isinstance(raw_terms, list) or not raw_terms:
            raise CertificateParseError(f"{path}.terms must be a non-empty list")
        terms = []
        for i, pair in enumerate(raw_terms):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[0], int) or isinstance(pair[0], bool)
                    or not isinstance(pair[1], (int, float))):
                raise CertificateParseError(
                    f"{path}.terms[{i}] must be [index, coefficient]")
            terms.append((pair[0], float(pair[1])))
        return ApproximationCertificate(
            str(doc["target"]), BasisFamily.from_dict(doc["basis"]), tuple(terms),
            NormTag.from_dict(doc["norm"]), float(doc["tolerance"]),
            float(doc["reported_error"]), Construction.from_dict(doc["construction"]),
            tuple(doc["genealogy"]), doc["digest"])

    return parse_envelope(doc, "approximation", build, path)


# ----------------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
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
        return {
            "digest": self.digest,
            "reported_error": float(self.reported_error),
            "recomputed_error": float(self.recomputed_error),
            "tolerance": float(self.tolerance),
            "bound_honored": self.bound_honored,
            "structural_ok": self.structural_ok,
            "method": self.method,
            "notes": list(self.notes),
            "verdict": self.verdict,
        }


def bound_is_honored(recomputed: float, reported: float, tolerance: float) -> bool:
    return (recomputed <= reported * (1.0 + RELATIVE_SLACK) + ABSOLUTE_SLACK
            and reported < tolerance)


def measure(f, g, norm: NormTag) -> tuple[float, str]:
    """Verification-grade ||f - g||, and its method: sup_distance for the sup
    norm, else the construction rule of f and g on the norm's domain with
    every panel split four ways, so no node is a construction node."""
    if norm.kind == quadrature.SUP:
        return quadrature.sup_distance(f, g, norm.domain)
    # the approximant's own panel edges already consolidate every term's
    # structure; per-element unions would balloon for high-index series
    rule = quadrature.construction_rule(f, [g], interval=norm.domain).refined(4)
    return quadrature.norm_of_difference(f, g, norm, rule), \
        f"composite_gl{rule.points}x{rule.n_panels}"


def envelope_findings(cert, parse, store: dict | None = None, embedded=None):
    """Structural checks that every document kind shares.

    The digest must seal the canonical content, the canonical bytes must
    round-trip through parse (the kind's own from_dict), and every genealogy
    entry must be a well-formed digest. Given embedded certificates or
    records, they join the caller's store, whose entries win on a shared
    digest; when there is a store, every genealogy entry must resolve in it.
    Returns the notes and that store.
    """
    notes = []
    if not digest_ok(cert):
        notes.append("digest does not match canonical content")
    data = serialize(cert)
    try:
        if serialize(parse(json.loads(data))) != data:
            notes.append("serialization does not round-trip to identical bytes")
    except CertificateParseError as e:
        notes.append(f"serialization round-trip failed: {e}")
    if embedded is not None:
        store = {**{item.digest: item for item in embedded}, **(store or {})}
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
    """Independently check a certificate against the target it claims to fit;
    given a store, every genealogy digest must resolve in it.

    Never raises on adverse findings; the report carries them.
    """
    notes, _ = envelope_findings(cert, certificate_from_dict, store)
    notes += claim_findings(cert)
    return verdict(cert, notes, lambda: measure(f, cert.approximant(), cert.norm), "error")
