r"""Certificate sequences, exact Cauchy evidence, and limit transfer.

The model sequence is the dyadic tent series: partial sums
S_n(x) = sum_{k=0..n} 2^-k T_k(x) where T_k is the unit tent at scale k.
Every question the transfer asks about this sequence has an exact rational
answer, which the checker's exact_pair_sup and exact_ceil_log2 give. Members
take the tent law from records.tent_law, so a transfer loads no module that
computes; certificate.verify_limit re-checks what it builds.

transfer(seq, eps) evaluates the modulus at eps/2 to pick the anchor depth
n_star, measures a ladder of Cauchy gaps (n_star against the next K deeper
members) exactly, and refuses with a contradiction naming the pair if any
measured gap reaches eps/2. The resulting limit certificate carries the
member certificates up to the anchor, the evidence records and the modulus
evaluation, each with its own digest, so the claim re-checks from the file
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# verify_limit and limit_from_dict are bound here only because perfbench/worker.py
# calls them here and perfbench/spans.py wraps them by name
from .certificate import (DYADIC_RULE, LADDER_RUNGS, ApproximationCertificate,
                          Construction, assemble, exact_ceil_log2, exact_pair_sup,
                          verify_limit)
from .errors import (ConfigurationError, EvidenceContradictionError,
                     IncompleteSequenceError)
from .records import (SEQUENCE_TENT, SUP, EvidenceRecord, LimitCertificate, ModulusRecord,
                      NormTag, frac_str, limit_from_dict, seal, tent_law)

MEMBER_TOLERANCE = 1e-15


def tent_certificate(n: int) -> ApproximationCertificate:
    """Member certificate: S_n written in the tent family, error zero."""
    descriptor, law = tent_law(n)
    construction = Construction("exact_representation", f"terms copied through depth {n}")
    return assemble(descriptor, law.family, law.terms, NormTag(SUP, (0.0, 1.0)),
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


def check_pair(n: int, m: int, budget: Fraction) -> EvidenceRecord:
    """Measure |S_m - S_n| exactly; contradiction if it reaches the budget."""
    measured = exact_pair_sup(n, m)
    if not measured < budget:
        raise EvidenceContradictionError(n, m, frac_str(budget), frac_str(measured))
    return seal(EvidenceRecord((n, m), frac_str(measured), frac_str(budget)))


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
    n_star = max(seq.modulus(half), 1)
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
    genealogy = tuple(c.digest for c in members) \
        + tuple(r.digest for r in evidence) + (mod_rec.digest,)
    cert = LimitCertificate(seq.name, f"limit:{seq.name}", float(epsilon), n_star,
                            members, evidence, mod_rec, reported, genealogy)
    return seal(cert)

