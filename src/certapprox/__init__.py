"""Finite-rank approximations of real functions with re-checkable certificates.

Construction and verification are deliberately separated: extraction
routines measure errors with structure-aligned quadrature and mint
digest-sealed claims; verify() re-measures on refined rules and re-derives
every structural fact from the serialized bytes alone. Gluing and limit
transfer compose certified pieces without weakening either side.
"""

import importlib

from . import approximate, basis, certificate, errors, glue, limit
from . import quadrature, target
from .approximate import (ExtractionSettings, approximate_chebyshev,
                          approximate_gram, approximate_greedy,
                          approximate_orthonormal, approximate_raw_probe)
from .basis import (BasisElement, BasisFamily, chebyshev_family,
                    cubic_bspline_family, fourier_sine_family, monomial_family,
                    tent_family)
from .certificate import (ApproximationCertificate, Construction,
                          VerificationReport, assemble, canonical_dumps,
                          claim_findings, compute_digest, deserialize, measure,
                          serialize, verify)
from .errors import (CertApproxError, CertificateParseError, ConfigurationError,
                     DomainError, EvaluationError, EvidenceContradictionError,
                     ExpressionSyntaxError, IllConditionedBasisError,
                     IncompleteSequenceError, NoProgressError,
                     ReconciliationFailureError, SampleFormatError,
                     ToleranceViolated, TopologyError, UnsupportedNormError)
from .glue import (Cover, GluedCertificate, LocalCertificate, PartitionOfUnity,
                   build_pou, check_overlap, extract_local, glue as glue_certificates,
                   glued_from_dict, local_bspline_family, make_cover, reconcile,
                   verify_glued)
from .limit import (CertifiedSequence, LimitCertificate, Modulus, dyadic_modulus,
                    exact_ceil_log2, exact_pair_sup, limit_from_dict,
                    tent_certificate, tent_sequence, transfer, verify_limit)
from .quadrature import (NormTag, QuadratureRule, construction_rule,
                         gauss_chebyshev_rule, inner_product, integrate,
                         l2_norm, norm_of_difference, sup_distance, sup_norm,
                         w12_norm)
from .target import (TargetFunction, from_builtin, from_expression, load_samples,
                     parse_expression, piecewise_linear, resolve_spec,
                     tent_partial_sum)

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so `python -m certapprox.cli` runs it only once
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
