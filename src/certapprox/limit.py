r"""Certificate sequences, exact Cauchy evidence, and limit transfer.

The model sequence is the dyadic tent series: partial sums
S_n(x) = sum_{k=0..n} 2^-k T_k(x) where T_k is the unit tent at scale k.
Every question the transfer asks about this sequence has an exact rational
answer. The sup distance between S_n and S_m is the closed form
floor(2^(L+1)/3) / 2^m with L = m - n; tails telescope to 2^-n. Members,
proxy and verifier take the tent law from target.tent_partial_sum.

transfer(seq, eps) evaluates the modulus at eps/2 to pick the anchor depth
n_star, measures a ladder of Cauchy gaps (n_star against the next K deeper
members) exactly, and refuses with a contradiction naming the pair if any
measured gap reaches eps/2. The resulting limit certificate carries the
member certificates up to the anchor, the evidence records, the modulus
evaluation, and a deeper proxy expansion (tent series terms a reader may
sum; verify_limit checks them against the tent law), each with its own
digest, so the claim re-checks from the file alone. verify_limit ties the
anchor to its modulus record, and the ladder to its anchor, first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import target as target_mod
from .certificate import (ApproximationCertificate, Construction, Document,
                          VerificationReport, assemble, digest_ok,
                          envelope_findings, from_dict, seal, verdict)
from .certificate import verify as verify_approximation
from .errors import (CertificateParseError, ConfigurationError,
                     EvidenceContradictionError, IncompleteSequenceError)
from .quadrature import NormTag, SUP

SEQUENCE_TENT = "tent"
DYADIC_RULE = "ceil(log2(2/epsilon))"
LADDER_RUNGS = 8
PROXY_EXTRA = 12
MEMBER_TOLERANCE = 1e-15


# ----------------------------------------------------------------------------
# exact rational helpers
# ----------------------------------------------------------------------------

def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


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


# ----------------------------------------------------------------------------
# the sequence and its members
# ----------------------------------------------------------------------------

def tent_certificate(n: int) -> ApproximationCertificate:
    """Member certificate: S_n written in the tent family, error zero."""
    if n < 0:
        raise ConfigurationError("partial sum depth must be nonnegative")
    f = target_mod.tent_partial_sum(n)
    construction = Construction("exact_representation",
                                f"terms copied through depth {n}; distance zero "
                                "by shared breakpoints",
                                supnorm_method="breakpoint_sup")
    return assemble(f.descriptor, f.family, f.terms, NormTag(SUP, (0.0, 1.0)),
                    MEMBER_TOLERANCE, 0.0, construction)


@dataclass(frozen=True)
class Modulus:
    """Named rule mapping a rational tolerance to a depth."""

    rule: str
    fn: Callable[[Fraction], int]

    def __call__(self, epsilon: Fraction) -> int:
        return self.fn(epsilon)


def dyadic_modulus() -> Modulus:
    return Modulus(DYADIC_RULE, lambda eps: exact_ceil_log2(2 / eps))


@dataclass(frozen=True)
class CertifiedSequence:
    name: str
    generator: Callable[[int], ApproximationCertificate]
    modulus: Modulus

    def member(self, n: int) -> ApproximationCertificate:
        try:
            return self.generator(n)
        except ConfigurationError:
            raise
        except Exception as e:
            raise IncompleteSequenceError(f"member {n} unavailable: {e}") from None


def tent_sequence(modulus: Modulus | None = None) -> CertifiedSequence:
    return CertifiedSequence(SEQUENCE_TENT, tent_certificate,
                             modulus or dyadic_modulus())


# ----------------------------------------------------------------------------
# evidence
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class EvidenceRecord:
    pair: tuple[int, int]
    measured: str
    bound: str
    digest: str = ""


def check_pair(n: int, m: int, budget: Fraction) -> EvidenceRecord:
    """Measure |S_m - S_n| exactly; contradiction if it reaches the budget."""
    measured = exact_pair_sup(n, m)
    if not measured < budget:
        raise EvidenceContradictionError(n, m, frac_str(budget), frac_str(measured))
    return seal(EvidenceRecord((n, m), frac_str(measured), frac_str(budget)))


@dataclass(frozen=True)
class ModulusRecord:
    rule: str
    epsilon: str
    argument: str
    value: int
    digest: str = ""


# ----------------------------------------------------------------------------
# the limit certificate
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitCertificate(Document):
    KIND = "limit"

    sequence: str
    target_descriptor: str = field(metadata={"key": "target"})
    tolerance: float
    epsilon_exact: str
    n_star: int
    members: tuple[ApproximationCertificate, ...]
    ladder: tuple[EvidenceRecord, ...]
    modulus_record: ModulusRecord = field(metadata={"key": "modulus"})
    tail_bound: str
    tail_budget: str
    proxy_depth: int
    proxy_terms: tuple[tuple[int, float], ...]
    proxy_tail: str
    reported_error: float
    genealogy: tuple[str, ...]
    digest: str = ""


def transfer(seq: CertifiedSequence, epsilon: float) -> LimitCertificate:
    """Anchor at the modulus depth for eps/2 and certify the limit to eps.

    The anchor member's own certificate plus the exact telescoped tail
    2^-n_star <= eps/2 gives the bound; the ladder of measured gaps is
    consistency evidence, not part of the bound, but any rung at or above
    eps/2 contradicts the modulus and aborts the transfer.
    """
    if not 0 < epsilon < 1:  # before Fraction, which refuses nan and inf
        raise ConfigurationError("limit transfer expects 0 < epsilon < 1")
    eps = Fraction(epsilon)
    half = eps / 2
    n_star = seq.modulus(half)
    if n_star < 1:
        n_star = 1
    mod_rec = seal(ModulusRecord(seq.modulus.rule, frac_str(eps), frac_str(half), n_star))
    members = tuple(seq.member(n) for n in range(1, n_star + 1))
    evidence = tuple(check_pair(n_star, n_star + i, half)
                     for i in range(1, LADDER_RUNGS + 1))
    tail = Fraction(1, 2 ** n_star)
    if not tail <= half:
        raise EvidenceContradictionError(n_star, n_star, frac_str(half),
                                         frac_str(tail))
    base = members[-1]
    reported = base.reported_error + float(tail)
    depth = n_star + PROXY_EXTRA
    proxy_terms = target_mod.tent_partial_sum(depth).terms
    proxy_tail = Fraction(1, 2 ** depth)
    genealogy = tuple(c.digest for c in members) \
        + tuple(r.digest for r in evidence) + (mod_rec.digest,)
    cert = LimitCertificate(
        seq.name, f"limit:{seq.name}", float(epsilon), frac_str(eps), n_star,
        members, evidence, mod_rec, frac_str(tail), frac_str(half),
        depth, proxy_terms, frac_str(proxy_tail), reported, genealogy)
    return seal(cert)


# ----------------------------------------------------------------------------
# parsing and verification
# ----------------------------------------------------------------------------

def limit_from_dict(doc: dict) -> LimitCertificate:
    cert = from_dict(LimitCertificate, doc)
    if cert.n_star < 1 or cert.proxy_depth < 0:
        raise CertificateParseError("$: n_star must be at least 1, proxy_depth at least 0")
    # every exact rational of an honest transfer is positive
    mod = cert.modulus_record
    for q in (cert.epsilon_exact, cert.tail_bound, cert.tail_budget,
              cert.proxy_tail, mod.epsilon, mod.argument,
              *(r.measured for r in cert.ladder), *(r.bound for r in cert.ladder)):
        try:
            positive = parse_frac(q) > 0
        except (ValueError, ZeroDivisionError):
            positive = False
        if not positive:
            raise CertificateParseError(f"{q!r} is not a positive fraction")
    return cert


def verify_limit(cert: LimitCertificate, store: dict | None = None) -> VerificationReport:
    """Re-derive every exact quantity in a limit claim from scratch.

    Members are re-verified against their own partial sums and the modulus
    value is re-evaluated when the rule is the known dyadic one. n_star must
    be that value and the member count, at epsilon and eps/2; only then are
    the tail 2^-n_star and the ladder computed (else the recomputed error is
    inf), so a resealed depth never sizes the work. The ladder must be the
    pairs (n_star, n_star + i), i = 1 .. LADDER_RUNGS, each bounded by eps/2; its
    gaps are re-measured exactly, and the tail is compared to its budget.
    """
    mod = cert.modulus_record
    embedded = cert.members + cert.ladder + (mod,)
    notes, store = envelope_findings(cert, limit_from_dict, store, embedded)
    if cert.sequence != SEQUENCE_TENT:
        notes.append(f"unknown sequence {cert.sequence!r}; nothing can be re-measured")
    eps = parse_frac(cert.epsilon_exact)
    half = eps / 2
    if parse_frac(cert.tail_budget) != half:
        notes.append("tail budget is not half of epsilon")
    if cert.genealogy != tuple(item.digest for item in embedded):
        notes.append("genealogy does not list members, ladder, modulus in order")
    if not digest_ok(mod):
        notes.append("modulus record digest mismatch")
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
            f_n = target_mod.tent_partial_sum(i)
            if member.target_descriptor != f_n.descriptor:
                notes.append(f"member {i} does not describe depth {i}")
                continue
            report = verify_approximation(member, f_n, store)
            notes.extend(f"member {i}: {n}" for n in report.notes)
        for rec in cert.ladder:
            if not digest_ok(rec):
                notes.append(f"evidence {rec.pair} digest mismatch")
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
        # the length first: a hostile depth must not build a huge series
        if (len(cert.proxy_terms) != cert.proxy_depth + 1 or cert.proxy_terms
                != target_mod.tent_partial_sum(cert.proxy_depth).terms):
            notes.append("proxy terms do not follow the sequence law")
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
