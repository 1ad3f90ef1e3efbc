r"""Certificates, canonical serialization, digests, and verification.

A certificate is a claim: these terms over this basis approximate that
target within this error in this norm. Claims are serialized canonically
(sorted keys, no insignificant whitespace, floats as 17-significant-digit
decimals) so that equal claims are equal bytes, and the SHA-256 digest of
the canonical bytes minus the digest field is the certificate's identity.
Every record is a frozen dataclass whose fields are its schema: to_dict()
writes it and from_dict() reads it back by the field annotations, refusing
a wrong type, an out-of-range number or a value the class refuses with a
CertificateParseError that names the path. A Document (a whole file) opens
with schema_version and its KIND; glue and limit define the other kinds.

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
import sys
import typing
from dataclasses import dataclass, field
from functools import cache
from typing import ClassVar

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
    try:
        _encode(value, out, "$")
    except RecursionError:
        raise ConfigurationError("value nests too deeply to encode") from None
    return "".join(out).encode("utf-8")


def compute_digest(doc: dict) -> str:
    """SHA-256 hex of the canonical bytes with the digest field excluded."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_dumps(body)).hexdigest()


# ----------------------------------------------------------------------------
# records as documents
# ----------------------------------------------------------------------------

# integers beyond 2^53 lose exactness in many JSON readers (RFC 7493)
JSON_INT_LIMIT = 2 ** 53
_FLOAT_MAX = sys.float_info.max


class Document:
    """A record that is a whole file: its dict opens with schema_version and
    the class's KIND."""

    KIND: ClassVar[str]

    def to_dict(self) -> dict:
        return to_dict(self)


class _Refused(Exception):
    """A value its field refuses; `at` gathers the path, innermost first."""

    def __init__(self, why: str, *at: str):
        self.why, self.at = why, list(at)


def _read_int(v):
    if type(v) is int and -JSON_INT_LIMIT <= v <= JSON_INT_LIMIT:
        return v
    raise _Refused("integer out of range" if type(v) is int else "not an integer")


def _read_float(v):
    if type(v) is float:
        if -_FLOAT_MAX <= v <= _FLOAT_MAX:  # NaN fails both comparisons
            return v
    elif type(v) is int:
        if -_FLOAT_MAX <= v <= _FLOAT_MAX:
            return float(v)
    else:
        raise _Refused("not a number")
    raise _Refused("non-finite number")


def _read_exact(tp, what: str):
    def read(v):
        if type(v) is not tp:
            raise _Refused(f"not {what}")
        return v
    return read


_SCALARS = {int: _read_int, float: _read_float, str: _read_exact(str, "a string"),
            bool: _read_exact(bool, "true or false"), dict: _read_exact(dict, "an object")}


def _read_tuple(item):
    def read(v):
        if type(v) is not list:
            raise _Refused("not a list")
        out = []
        try:
            for x in v:
                out.append(item(x))
        except _Refused as r:
            r.at.append(f"[{len(out)}]")
            raise
        return tuple(out)
    return read


def _read_pair(first, second):
    def read(v):
        if type(v) is not list or len(v) != 2:
            raise _Refused("not a pair")
        a, b = v
        try:
            a = first(a)
        except _Refused as r:
            r.at.append("[0]")
            raise
        try:
            return a, second(b)
        except _Refused as r:
            r.at.append("[1]")
            raise
    return read


def _codec(tp):
    """(read, write) for one field annotation. read takes the JSON value to
    the field's; write takes it back, and is None where the field's value is
    its own JSON: scalars, and the opaque dict."""
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    if tp in _SCALARS:
        return _SCALARS[tp], None
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and len(args) == 2:
        if args[1] is Ellipsis:
            read, write = _codec(args[0])
            return _read_tuple(read), \
                list if write is None else lambda v: list(map(write, v))
        (r0, w0), (r1, w1) = _codec(args[0]), _codec(args[1])
        if w0 is None and w1 is None:
            return _read_pair(r0, r1), list
    raise TypeError(f"no JSON codec for {tp!r}")


@cache
def _record_codec(cls):
    """(read, write) for a record class. Each field sits under its name, or
    under the key its metadata gives; a field that defaults to None, typed
    X | None, is left out when None and may be missing."""
    kind = getattr(cls, "KIND", "")
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        optional = f.default is None
        if optional:
            tp = typing.get_args(tp)[0]
        fields.append((f.name, f.metadata.get("key", f.name), *_codec(tp), optional))

    def write(record) -> dict:
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind} if kind else {}
        for name, key, _, write_field, _ in fields:
            value = getattr(record, name)
            if value is not None:
                doc[key] = value if write_field is None else write_field(value)
        return doc

    def read(doc):
        if type(doc) is not dict:
            raise _Refused("not an object")
        if kind:
            for key, want in (("schema_version", SCHEMA_VERSION), ("kind", kind)):
                if doc.get(key) != want:
                    raise _Refused(f"expected {want!r}" if key in doc else "missing field",
                                   "." + key)
        values = []
        for _, key, read_field, _, optional in fields:
            if key in doc:
                try:
                    values.append(read_field(doc[key]))
                except _Refused as r:
                    r.at.append("." + key)
                    raise
            elif optional:
                values.append(None)
            else:
                raise _Refused("missing field", "." + key)
        try:
            return cls(*values)
        except ConfigurationError as e:
            raise _Refused(str(e)) from None

    return read, write


def to_dict(record) -> dict:
    """The record as a JSON-ready dict: records become objects, tuples lists."""
    return _record_codec(type(record))[1](record)


def from_dict(cls, doc, path: str = "$"):
    """The record of class cls that the JSON value doc holds, read by the
    field annotations. A missing key, a null, a wrong JSON type, an
    out-of-range number or a value the class refuses is a
    CertificateParseError naming its path. The digest is kept as claimed,
    so tampering surfaces as a verification failure, not a parse error."""
    try:
        return _record_codec(cls)[0](doc)
    except _Refused as r:
        raise CertificateParseError(f"{path}{''.join(reversed(r.at))}: {r.why}") from None


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


@dataclass(frozen=True)
class ApproximationCertificate(Document):
    KIND = "approximation"

    target_descriptor: str = field(metadata={"key": "target"})
    basis: BasisFamily
    terms: tuple[tuple[int, float], ...]
    norm: NormTag
    tolerance: float
    reported_error: float
    construction: Construction
    genealogy: tuple[str, ...] = ()
    digest: str = ""

    def __post_init__(self):
        if not self.terms:
            raise ConfigurationError("terms must be a non-empty list")

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
    """Shape faults of a claim: a report not below tolerance, indices
    invalid or not increasing (greedy excepted), a norm domain outside the
    basis domain. The class itself refuses an empty term list."""
    findings = []
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
    return canonical_dumps(to_dict(cert))


def seal(record):
    """A copy of the record with its digest minted over its canonical content."""
    return dataclasses.replace(record, digest=compute_digest(to_dict(record)))


def digest_ok(record) -> bool:
    """The record's digest seals its canonical content."""
    return record.digest == compute_digest(to_dict(record))


def _non_finite(text: str):
    raise CertificateParseError(f"non-finite number {text} in JSON")


def load_json(data, source: str = "document"):
    """UTF-8 JSON as a Python value. Invalid JSON, NaN and Infinity, which
    no canonical document holds, and nesting past the recursion limit are
    CertificateParseErrors; from_dict refuses a number that overflows."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_constant=_non_finite)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CertificateParseError(f"{source} is not valid JSON: {e}") from None
    except RecursionError:
        raise CertificateParseError(f"{source} nests too deeply") from None


def deserialize(data) -> ApproximationCertificate:
    """Parse canonical bytes back into an approximation certificate."""
    return certificate_from_dict(load_json(data))


def certificate_from_dict(doc: dict, path: str = "$") -> ApproximationCertificate:
    return from_dict(ApproximationCertificate, doc, path)


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
