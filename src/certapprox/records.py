r"""The sealed document format, on the standard library alone: reading,
hashing and printing a document loads no arithmetic. The record methods
that evaluate (BasisFamily.element, elements, interior_elements, knots
and both approximant()s) import their module when called.

Records are serialized canonically (sorted keys, no insignificant
whitespace, floats as 17-significant-digit decimals), so equal claims are
equal bytes, and the SHA-256 digest of those bytes minus the digest field
is a record's identity. Each record is a frozen dataclass whose fields are
its schema: to_dict() writes it, and from_dict() reads it back by the
field annotations, refusing a wrong type, an out-of-range number or a
value its __post_init__ refuses with a CertificateParseError that names
the path. A Document (a whole file) opens with schema_version and its
KIND; parse() reads any of the three kinds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import ClassVar

from .errors import CertificateParseError, ConfigurationError, TopologyError

SCHEMA_VERSION = "3"
FILE_SUFFIX = ".uelat.json"

# the basis families and the norms
KINDS = CHEBYSHEV, FOURIER_SINE, MONOMIAL, TENT, CUBIC_BSPLINE = (
    "chebyshev", "fourier_sine", "monomial", "tent", "cubic_bspline")
NORM_KINDS = L2, W12, SUP = ("l2", "w12", "sup")

# the families that live on one interval only; the others take any domain
FIXED_DOMAINS = {CHEBYSHEV: (-1.0, 1.0), FOURIER_SINE: (0.0, 1.0), TENT: (0.0, 1.0)}

SEQUENCE_TENT = "tent"
DEFAULT_OVERLAP_FRACTION = 0.2

# the most panels one element's rule may have: tent level 16's grid, so
# level 16 is also the deepest tent series whose kinks are read exactly
MAX_PANELS = 2 ** 17
MAX_TENT_LEVEL = MAX_PANELS.bit_length() - 2

# what json.dumps(text, ensure_ascii=False) returns for a str
_quoted = json.encoder.encode_basestring


@cache
def arithmetic(name: str):
    """The package's module `name`, which computes, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


# ----------------------------------------------------------------------------
# canonical encoding and the field codec
# ----------------------------------------------------------------------------

class _Unencodable(Exception):
    """A value canonical JSON cannot hold. The path to it is prefixed while
    the recursion unwinds, so encoding builds no path string on success."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what, self.path = what, ""


def _encode(value, out: list):
    if isinstance(value, str):
        out.append(_quoted(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise _Unencodable("non-finite float")
        # the sign of zero depends on the computation path, so it must not
        # reach the digest
        out.append("%.17g" % (value + 0.0))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            try:
                _encode(item, out)
            except _Unencodable as e:
                e.path = f"[{i}]{e.path}"
                raise
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise _Unencodable("non-string key")
            if i:
                out.append(",")
            out.append(_quoted(key))
            out.append(":")
            try:
                _encode(value[key], out)
            except _Unencodable as e:
                e.path = f".{key}{e.path}"
                raise
        out.append("}")
    else:
        raise _Unencodable(f"unserializable {type(value).__name__}")


def canonical_dumps(value) -> bytes:
    """Canonical JSON bytes: sorted keys, %.17g floats, UTF-8, no whitespace.
    A value JSON cannot hold is a ConfigurationError naming its path."""
    out: list[str] = []
    try:
        _encode(value, out)
    except _Unencodable as e:
        raise ConfigurationError(f"{e.what} at ${e.path}") from None
    except RecursionError:
        raise ConfigurationError("value nests too deeply to encode") from None
    try:
        return "".join(out).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which a JSON escape can spell
        raise ConfigurationError("a string or key is not UTF-8 text") from None


def compute_digest(doc: dict) -> str:
    """SHA-256 hex of the canonical bytes with the digest field excluded."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_dumps(body)).hexdigest()


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


def _read_bool(v):
    if type(v) is not bool:
        raise _Refused("not true or false")
    return v


def _read_str(v):
    if type(v) is not str:
        raise _Refused("not a string")
    try:
        v.encode("utf-8")  # a lone surrogate escape reads as unencodable text
    except UnicodeEncodeError:
        raise _Refused("not UTF-8 text") from None
    return v


_SCALARS = {int: _read_int, float: _read_float, str: _read_str, bool: _read_bool}


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
    its own JSON: scalars."""
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
    X | None, is left out when None and may be missing. A field that does
    not compare is no part of the claim, and is neither written nor read."""
    kind = getattr(cls, "KIND", "")
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        if not f.compare:
            continue
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


def serialize(cert) -> bytes:
    """Canonical bytes of a certificate of any kind."""
    return canonical_dumps(to_dict(cert))


def seal(record):
    """A copy of the record with its digest minted over its canonical content."""
    return dataclasses.replace(record, digest=compute_digest(to_dict(record)))


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


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _positive_fractions(*texts: str):
    """Every exact rational of an honest transfer is a positive n/d."""
    for q in texts:
        try:
            positive = parse_frac(q) > 0
        except (ValueError, ZeroDivisionError):
            positive = False
        if not positive:
            raise ConfigurationError(f"{q!r} is not a positive fraction")


# ----------------------------------------------------------------------------
# the records: approximation, glued and limit certificates and their parts
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class NormTag:
    """Which norm a measurement or certificate refers to, and on what interval."""

    kind: str
    domain: tuple[float, float]

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ConfigurationError(f"unknown norm kind {self.kind!r}")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"invalid norm domain [{lo}, {hi}]")


@dataclass(frozen=True)
class BasisFamily:
    """A named family with its domain; m is the size of a B-spline family."""

    kind: str
    domain: tuple[float, float]
    m: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown basis kind {self.kind!r}")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"invalid domain [{lo}, {hi}]")
        if (fixed := FIXED_DOMAINS.get(self.kind)) and self.domain != fixed:
            raise ConfigurationError(
                f"{self.kind} family lives on [{fixed[0]:g}, {fixed[1]:g}]")
        if self.kind == CUBIC_BSPLINE:
            if self.m is None or self.m < 4:
                raise ConfigurationError("cubic_bspline needs m >= 4 functions")
        elif self.m is not None:
            raise ConfigurationError(f"{self.kind} takes no size parameter")

    # lowest valid element index; B-spline families are also bounded above
    @property
    def min_index(self) -> int:
        return 1 if self.kind in (FOURIER_SINE, CUBIC_BSPLINE) else 0

    @property
    def max_index(self) -> int | None:
        return self.m if self.kind == CUBIC_BSPLINE else None

    def check_index(self, j: int) -> None:
        if j < self.min_index:
            raise ConfigurationError(f"{self.kind} index {j} below minimum {self.min_index}")
        if (top := self.max_index) is not None and j > top:
            raise ConfigurationError(f"{self.kind} index {j} above family size {top}")

    def element(self, index: int):
        return arithmetic("basis").BasisElement(self, index)

    def elements(self) -> tuple:
        if self.max_index is None:
            raise ConfigurationError(f"{self.kind} family is not finite")
        return tuple(self.element(j) for j in range(self.min_index, self.max_index + 1))

    def interior_elements(self) -> tuple:
        """The B-spline elements vanishing at both interval endpoints (2..M-1)."""
        if self.kind != CUBIC_BSPLINE:
            raise ConfigurationError("interior subset only defined for cubic_bspline")
        return tuple(self.element(j) for j in range(2, self.m))

    def knots(self):
        """Padded clamped knot vector, length m + 4."""
        if self.kind != CUBIC_BSPLINE:
            raise ConfigurationError(f"{self.kind} has no knot vector")
        return arithmetic("basis")._clamped_knots(self.domain[0], self.domain[1], self.m)


@dataclass(frozen=True)
class Series:
    """sum_j a_j e_j over a family, as a claim states it, unevaluated."""

    family: BasisFamily
    terms: tuple[tuple[int, float], ...]

    def approximant(self):  # a target.TargetFunction
        return arithmetic("target").series(self.family, self.terms)


def tent_law(n: int) -> tuple[str, Series]:
    """Member n of the tent sequence, S_n = sum_{k<=n} 2^-k T_k: (descriptor, series)."""
    if n < 0:
        raise ConfigurationError("tent series index must be >= 0")
    return f"series:tent:n={n}", Series(BasisFamily(TENT, FIXED_DOMAINS[TENT]),
                                        tuple((k, 2.0 ** -k) for k in range(n + 1)))


def over_budget(what: str) -> ConfigurationError:
    """The error of `what` (an element, or a family) whose rule would need
    more than MAX_PANELS panels."""
    return ConfigurationError(f"{what} needs a rule of more than {MAX_PANELS} panels")


@dataclass(frozen=True)
class Unbuilt:
    """A target the verifier refuses to build, and why: measuring a claim
    against it raises that error, so the claim FAILs with it as a note."""

    error: ConfigurationError
    terms = None

    def approximant(self):
        raise self.error


def tent_depth(text: str, head: str, tail: str = "") -> int | None:
    """N when text is head, N's decimal digits, tail; else None. It reads the
    builtin "tent_series(N)" and the descriptor "series:tent:n=N"; a depth
    with more digits than int() takes is a ConfigurationError."""
    m = re.fullmatch(re.escape(head) + r"(\d+)" + re.escape(tail), text)
    if m is None:
        return None
    try:
        return int(m[1])
    except ValueError:
        raise ConfigurationError(
            f"tent series depth of {len(m[1])} digits is too large") from None


@dataclass(frozen=True)
class Construction:
    """How a certificate was built: the route and why it stopped, for the
    build's summary. No check reads it, so no document seals it."""

    method: str
    stopping: str


@dataclass(frozen=True)
class ApproximationCertificate(Document):
    KIND = "approximation"

    target_descriptor: str = field(metadata={"key": "target"})
    basis: BasisFamily
    terms: tuple[tuple[int, float], ...]
    norm: NormTag
    tolerance: float
    reported_error: float
    genealogy: tuple[str, ...] = ()
    digest: str = ""
    # a built certificate's only; a parsed one has None
    construction: Construction | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ConfigurationError("terms must be a non-empty list")

    def approximant(self):  # a target.TargetFunction
        return arithmetic("target").series(self.basis, self.terms)


@dataclass(frozen=True)
class Cover:
    patches: tuple[tuple[float, float], ...]

    @property
    def domain(self) -> tuple[float, float]:  # the ends of the patches
        return self.patches[0][0], self.patches[-1][1]

    @property
    def m(self) -> int:
        return len(self.patches)

    def overlap(self, i: int) -> tuple[float, float]:
        """Intersection of patches i and i+1."""
        s, e = self.patches[i + 1][0], self.patches[i][1]
        if not s < e:
            raise TopologyError(f"patches {i} and {i + 1} do not overlap")
        return (s, e)


@dataclass(frozen=True)
class LocalCertificate:
    patch_index: int
    patch: tuple[float, float]
    cert: ApproximationCertificate = field(metadata={"key": "certificate"})


@dataclass(frozen=True)
class ReconciliationRecord:
    pair: tuple[int, int]
    post_mismatch: float
    deltas: tuple[tuple[int, float], ...]
    adjusted: bool


@dataclass(frozen=True)
class GluedCertificate(Document):
    KIND = "glued"

    target_descriptor: str = field(metadata={"key": "target"})
    cover: Cover
    locals: tuple[LocalCertificate, ...]
    parents: tuple[ApproximationCertificate, ...]
    records: tuple[ReconciliationRecord, ...] = field(metadata={"key": "reconciliation"})
    tolerance: float
    reported_error: float
    genealogy: tuple[str, ...]
    digest: str = ""

    def __post_init__(self):
        if not 1 <= self.cover.m == len(self.locals):
            raise ConfigurationError(f"{len(self.locals)} locals for {self.cover.m}"
                                     " patches; need one per patch")

    def approximant(self):  # a target.TargetFunction
        return arithmetic("glue").glued_function(self.cover, self.locals)


@dataclass(frozen=True)
class EvidenceRecord:
    pair: tuple[int, int]
    measured: str
    bound: str
    digest: str = ""

    def __post_init__(self):
        _positive_fractions(self.measured, self.bound)


@dataclass(frozen=True)
class ModulusRecord:
    rule: str
    epsilon: str
    argument: str
    value: int
    digest: str = ""

    def __post_init__(self):
        _positive_fractions(self.epsilon, self.argument)


@dataclass(frozen=True)
class LimitCertificate(Document):
    KIND = "limit"

    sequence: str
    target_descriptor: str = field(metadata={"key": "target"})
    tolerance: float
    n_star: int
    members: tuple[ApproximationCertificate, ...]
    ladder: tuple[EvidenceRecord, ...]
    modulus_record: ModulusRecord = field(metadata={"key": "modulus"})
    reported_error: float
    genealogy: tuple[str, ...]
    digest: str = ""

    def __post_init__(self):
        if self.n_star < 1:
            raise ConfigurationError("n_star must be at least 1")


def certificate_from_dict(doc: dict) -> ApproximationCertificate:
    return from_dict(ApproximationCertificate, doc)


def deserialize(data) -> ApproximationCertificate:
    """Parse canonical bytes back into an approximation certificate."""
    return certificate_from_dict(load_json(data))


def glued_from_dict(doc: dict) -> GluedCertificate:
    return from_dict(GluedCertificate, doc)


def limit_from_dict(doc: dict) -> LimitCertificate:
    return from_dict(LimitCertificate, doc)


def parse(doc: dict) -> Document:
    """The record a document of any kind holds, by its KIND's parser, looked
    up when called, so wrappers installed on it (tracing) apply."""
    parsers = {ApproximationCertificate.KIND: certificate_from_dict,
               GluedCertificate.KIND: glued_from_dict, LimitCertificate.KIND: limit_from_dict}
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in parsers:
        raise CertificateParseError(f"unknown certificate kind {kind!r}")
    return parsers[kind](doc)
