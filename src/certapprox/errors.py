"""Exception taxonomy shared across the package.

Every failure mode a caller is expected to branch on gets its own class;
anything carrying diagnostic numbers stores them as attributes so the CLI
and tests can report achieved-vs-requested figures without string parsing.
"""

from __future__ import annotations


class CertApproxError(Exception):
    """Base class for all package-specific failures."""


class DomainError(CertApproxError):
    """Evaluation requested outside a function's or family's domain."""


class ConfigurationError(CertApproxError):
    """Invalid construction parameters (rule sizes, family domains, covers)."""


class EvaluationError(CertApproxError):
    """A target produced a non-finite value or hit a math domain violation."""

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class UnsupportedNormError(CertApproxError):
    """The requested norm has no quadrature realization (sup via inner products)."""


class CapabilityError(CertApproxError):
    """An operation needs a derivative the target cannot provide."""


class ExpressionSyntaxError(CertApproxError):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


class SampleFormatError(CertApproxError):
    """Malformed sample file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ToleranceViolated(CertApproxError):
    """Construction finished but the achieved error misses the tolerance."""

    def __init__(self, achieved: float, tolerance: float, detail: str = ""):
        msg = f"achieved error {achieved:.6g} >= tolerance {tolerance:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.achieved = achieved
        self.tolerance = tolerance


class IllConditionedBasisError(CertApproxError):
    """A Gram matrix the solver refuses: a condition estimate above the
    threshold, or under it a non-positive Cholesky pivot, which pivot names."""

    def __init__(self, condition: float, threshold: float = 1e12, pivot: str = ""):
        super().__init__(
            f"gram matrix is not positive definite: {pivot}, though its condition"
            f" estimate {condition:.3e} is under {threshold:.1e}"
            if pivot and condition <= threshold else
            f"gram condition estimate {condition:.3e} exceeds {threshold:.1e}")
        self.condition = condition


class NoProgressError(CertApproxError):
    """Greedy selection stalled: residual reductions below machine level."""


class TopologyError(CertApproxError):
    """Patches that must overlap do not."""


class ReconciliationFailureError(CertApproxError):
    """No coefficient adjustment meets the mismatch gate and patch tolerance."""


class EvidenceContradictionError(CertApproxError):
    """A recorded Cauchy bound fails its own measurement; names the pair."""

    def __init__(self, n: int, m: int, bound: str, measured: str):
        super().__init__(
            f"pair ({n}, {m}): measured gap {measured} is not below claimed bound {bound}"
        )
        self.pair = (n, m)
        self.bound = bound
        self.measured = measured


class IncompleteSequenceError(CertApproxError):
    """The sequence generator cannot produce a required index."""


class CertificateParseError(CertApproxError):
    """Deserialization failure; message names the offending field path."""
