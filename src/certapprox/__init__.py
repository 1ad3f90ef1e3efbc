"""Finite-rank approximations of real functions with re-checkable certificates.

Construction and verification are deliberately separated: extraction
routines measure errors with structure-aligned quadrature and mint
digest-sealed claims; verify() re-measures on refined rules and re-derives
every structural fact from the serialized bytes alone. Gluing and limit
transfer compose certified pieces without weakening either side.
"""

import importlib

__version__ = "0.1.0"

# each module's public names; every module loads on first use (PEP 562), so
# `import certapprox` loads no numpy and `python -m certapprox.cli` runs cli once
_EXPORTS = {
    "approximate": "ExtractionSettings approximate_chebyshev approximate_gram approximate_greedy"
                   " approximate_orthonormal approximate_raw_probe",
    "basis": "BasisElement chebyshev_family cubic_bspline_family fourier_sine_family"
             " monomial_family tent_family",
    "certificate": "VerificationReport assemble claim_findings measure verify",
    "cli": "",
    "errors": "CertApproxError CertificateParseError ConfigurationError DomainError"
              " EvaluationError EvidenceContradictionError ExpressionSyntaxError"
              " IllConditionedBasisError IncompleteSequenceError NoProgressError"
              " ReconciliationFailureError SampleFormatError ToleranceViolated"
              " TopologyError UnsupportedNormError",
    "glue": "build_pou check_overlap extract_local local_bspline_family make_cover ramp"
            " reconcile verify_glued glue_certificates",
    "limit": "CertifiedSequence Modulus dyadic_modulus exact_ceil_log2 exact_pair_sup"
             " tent_certificate tent_sequence transfer verify_limit",
    "quadrature": "QuadratureRule construction_rule gauss_chebyshev_rule inner_product"
                  " integrate l2_norm norm_of_difference sup_distance sup_norm w12_norm",
    "records": "ApproximationCertificate BasisFamily Construction Cover GluedCertificate"
               " LimitCertificate LocalCertificate NormTag canonical_dumps compute_digest"
               " deserialize glued_from_dict limit_from_dict serialize",
    "target": "TargetFunction from_builtin from_expression load_samples parse_expression"
              " piecewise_linear resolve_spec tent_partial_sum",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__getattr__(_HOME[name]), "glue" if name == "glue_certificates" else name)
