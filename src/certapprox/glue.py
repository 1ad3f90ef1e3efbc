r"""Overlapping covers, local extraction, reconciliation, and gluing.

A cover splits the domain into M equal cells widened symmetrically so that
consecutive patches share an overlap of width (cell width) * overlap_fraction.
Locals are extracted per patch at half the global tolerance. Before blending,
consecutive locals are compared in the Sobolev norm on their overlap; pairs
that disagree by delta = eps/(2M) or more get reconciled by adjusting the
higher-indexed patch, left to right, and every adjustment is recorded with
its coefficient deltas. The blended approximant sum_i psi_i s_i uses
complementary piecewise linear ramps across the overlaps, so a ramp pair
sums to one up to a single rounding; the cover's overlaps fix every ramp,
so ramp() reads them off the cover. The blend is a target.TargetFunction
like any other. Reconciliation's least squares use approximate's Gram
solve, imported when called. glue() certifies the blend by the checker's
compositional_bound over its parts, which certificate derives and its
verify_glued re-checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature, target as target_mod
from .basis import BasisFamily, cubic_bspline_family, distinct
# verify_glued and glued_from_dict are bound here only because perfbench/worker.py
# calls them here and perfbench/spans.py wraps them by name
from .certificate import (Construction, assemble, check_overlap, compositional_bound,
                          premise_faults, verify_glued)
from .errors import (ConfigurationError, IllConditionedBasisError,
                     ReconciliationFailureError, ToleranceViolated)
from .records import (DEFAULT_OVERLAP_FRACTION, W12, ApproximationCertificate, Cover,
                      GluedCertificate, LocalCertificate, NormTag, ReconciliationRecord,
                      glued_from_dict, seal)


# ----------------------------------------------------------------------------
# covers
# ----------------------------------------------------------------------------

def make_cover(domain: tuple[float, float], m: int,
               overlap_fraction: float = DEFAULT_OVERLAP_FRACTION) -> Cover:
    """M equal cells widened by overlap_fraction, the end patches at the domain's ends."""
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigurationError(f"invalid domain [{lo}, {hi}]")
    if m < 1:
        raise ConfigurationError("cover needs at least one patch")
    if not (0.0 < overlap_fraction <= 0.5):
        raise ConfigurationError("overlap fraction must lie in (0, 1/2]")
    h = (hi - lo) / m
    width = h * (1.0 + overlap_fraction)
    patches = []
    for i in range(m):
        c = lo + (i + 0.5) * h
        patches.append((lo if i == 0 else c - 0.5 * width,
                        hi if i == m - 1 else c + 0.5 * width))
    cover = Cover(tuple(patches))
    faults = premise_faults(cover)
    if faults:
        raise ConfigurationError(faults[0])
    return cover


def build_pou(cover: Cover) -> Cover:
    """The cover itself, which carries every ramp (see ramp()); kept so that
    callers of the form glue(f, locals_, build_pou(cover), eps) still run."""
    return cover


# ----------------------------------------------------------------------------
# local certificates
# ----------------------------------------------------------------------------

def local_bspline_family(patch: tuple[float, float], knots: int) -> BasisFamily:
    """Clamped cubic family on the patch with `knots` distinct knots."""
    if knots < 2:
        raise ConfigurationError("a patch family needs at least 2 distinct knots")
    return cubic_bspline_family(knots + 2, (float(patch[0]), float(patch[1])))


def extract_local(f, patch_index: int, patch: tuple[float, float],
                  family: BasisFamily, settings: ExtractionSettings) -> LocalCertificate:
    """Gram-solve the full patch family against f in W12 on the patch.

    settings.epsilon is the local budget (half the global tolerance in the
    gluing pipeline). The full family is used: a restriction of f has no
    reason to vanish at patch boundaries.
    """
    if family.domain != (float(patch[0]), float(patch[1])):
        raise ConfigurationError("family domain must equal the patch")
    from .approximate import approximate_gram
    norm = NormTag(W12, family.domain)
    cert = approximate_gram(f, family.elements(), norm, settings)
    return LocalCertificate(patch_index, family.domain, cert)


def reconcile(f, a: LocalCertificate, b: LocalCertificate,
              delta: float) -> tuple[LocalCertificate, ReconciliationRecord]:
    """Pull b toward a on their overlap, touching only b's coefficients.

    Elements of b with no support on the overlap keep their coefficients;
    the rest are re-fit by least squares in W12(overlap) against a's
    approximant, the residual evaluated once on the overlap rule. Three
    gates fail reconciliation when missed: every coefficient delta and the
    post-adjustment mismatch stay below `delta`, and b keeps its patch budget.
    """
    from .approximate import _probes, gram_matrix, solve_normal_equations
    pre = check_overlap(a, b)
    if pre < delta:
        return b, ReconciliationRecord((a.patch_index, b.patch_index), pre, (), False)
    lo, hi = max(a.patch[0], b.patch[0]), min(a.patch[1], b.patch[1])
    fam = b.cert.basis
    sa = a.cert.approximant()
    norm = NormTag(W12, (lo, hi))
    movable = [j for j, _ in b.cert.terms
               if fam.element(j).support()[0] < hi and fam.element(j).support()[1] > lo]
    if not movable:
        raise ReconciliationFailureError(
            f"pair ({a.patch_index}, {b.patch_index}): no element reaches the overlap")
    fixed = [(j, c) for j, c in b.cert.terms if j not in movable]
    els = [fam.element(j) for j in movable]
    rule = quadrature.construction_rule(sa, els + [b.cert.approximant()], interval=(lo, hi))
    G = gram_matrix(els, norm, rule)
    resid = sa
    if fixed:
        # what a's approximant leaves for the movable elements on the overlap
        rest = target_mod.series(fam, fixed)
        resid = target_mod.TargetFunction(
            (lo, hi), "reconcile residual",
            lambda x: sa.evaluate(x) - rest.evaluate(x),
            lambda x: sa.evaluate_deriv(x) - rest.evaluate_deriv(x))
    try:
        sol = solve_normal_equations(G, _probes(resid, els, norm, rule))
    except IllConditionedBasisError as e:
        raise ReconciliationFailureError(
            f"pair ({a.patch_index}, {b.patch_index}): overlap system unsolvable ({e})"
        ) from None
    old, solved = dict(b.cert.terms), dict(zip(movable, map(float, sol)))
    new_terms = [(j, solved.get(j, c)) for j, c in b.cert.terms]
    deltas = [(j, solved[j] - old[j]) for j in movable]
    worst = max(abs(d) for _, d in deltas)
    if worst >= delta:
        raise ReconciliationFailureError(
            f"pair ({a.patch_index}, {b.patch_index}): coefficient delta {worst:.6g}"
            f" exceeds gate {delta:.6g}")
    candidate_cert = _reissue(b.cert, new_terms, f)
    candidate = LocalCertificate(b.patch_index, b.patch, candidate_cert)
    post = check_overlap(a, candidate)
    if post >= delta:
        raise ReconciliationFailureError(
            f"pair ({a.patch_index}, {b.patch_index}): mismatch {post:.6g}"
            f" still at or above gate {delta:.6g}")
    record = ReconciliationRecord((a.patch_index, b.patch_index), post, tuple(deltas), True)
    return candidate, record


def _reissue(cert: ApproximationCertificate, new_terms, f) -> ApproximationCertificate:
    """Child certificate with adjusted coefficients, re-measured on its patch."""
    g = target_mod.series(cert.basis, new_terms)
    rule = quadrature.construction_rule(f, [g], interval=cert.norm.domain)
    err = quadrature.norm_of_difference(f, g, cert.norm, rule)
    if err >= cert.tolerance:
        raise ReconciliationFailureError(
            f"adjusted patch error {err:.6g} breaks local budget {cert.tolerance:.6g}")
    built = cert.construction  # None if parsed
    construction = built and Construction(built.method, built.stopping + "; reconciled")
    return assemble(cert.target_descriptor, cert.basis, new_terms, cert.norm,
                    cert.tolerance, err, construction,
                    genealogy=cert.genealogy + (cert.digest,))


# ----------------------------------------------------------------------------
# blending and gluing
# ----------------------------------------------------------------------------

def ramp(cover: Cover, i: int, x, deriv: bool = False) -> np.ndarray:
    """psi_i at the points x, the product of an up clip across overlap i-1
    and a down clip across overlap i, zero off patch i; with deriv, its slope
    +-1/|O| on each overlap [s, e), the right-hand convention."""
    xs = np.asarray(x, dtype=float)
    v = np.zeros_like(xs) if deriv else np.ones_like(xs)
    for j, sign in ((i - 1, 1.0), (i, -1.0)):
        if 0 <= j < cover.m - 1:
            s, e = cover.overlap(j)
            if deriv:
                v = np.where((xs >= s) & (xs < e), sign / (e - s), v)
            else:
                up = np.clip((xs - s) / (e - s), 0.0, 1.0)
                v = v * (up if sign > 0 else 1.0 - up)
    lo, hi = cover.patches[i]
    return np.where((xs >= lo) & (xs <= hi), v, 0.0)


def glued_function(cover: Cover, locals_) -> target_mod.TargetFunction:
    """The blended approximant sum_i psi_i * s_i on the cover's domain."""
    series = [lc.cert.approximant() for lc in locals_]

    def blend(xs, deriv=False):
        out = np.zeros_like(xs)
        for i, s in enumerate(series):
            lo, hi = cover.patches[i]
            mask = (xs >= lo) & (xs <= hi)
            if np.any(mask):
                xm = xs[mask]
                term = ramp(cover, i, xm) * quadrature._at(s, xm, deriv)
                if deriv:  # the product rule, psi_i' s_i first
                    term = ramp(cover, i, xm, deriv=True) * s.evaluate(xm) + term
                out[mask] += term
        return out

    def edges():
        # the ramps run between patch ends, so the patches carry their edges
        pieces = [np.asarray(cover.domain), *map(np.asarray, cover.patches),
                  *(s.panel_edges() for s in series)]
        merged = distinct(np.concatenate(pieces))
        return merged[(merged >= cover.domain[0]) & (merged <= cover.domain[1])]

    return target_mod.TargetFunction(cover.domain, f"glued:m={cover.m}", blend,
                                     lambda x: blend(x, deriv=True), edges)


def glue(f, locals_: list[LocalCertificate], cover: Cover,
         epsilon: float) -> GluedCertificate:
    """Reconcile pairwise left to right under the gate delta = epsilon/(2M),
    then certify the compositional bound; locals must meet premise_faults()."""
    m = cover.m
    if len(locals_) != m:
        raise ConfigurationError(f"cover has {m} patches, got {len(locals_)} locals")
    faults = premise_faults(cover, locals_, epsilon)
    if faults:
        raise ConfigurationError(faults[0])
    delta = epsilon / (2.0 * m)
    current = list(locals_)
    records = []
    parents = []
    for i in range(m - 1):
        adjusted, record = reconcile(f, current[i], current[i + 1], delta)
        if record.adjusted:
            parents.append(current[i + 1].cert)
        current[i + 1] = adjusted
        records.append(record)
    bound = compositional_bound(cover, [lc.cert.reported_error for lc in current],
                                [r.post_mismatch for r in records])
    if bound >= epsilon:
        raise ToleranceViolated(bound, epsilon, "glued error bound")
    cert = GluedCertificate(f.descriptor, cover, tuple(current), tuple(parents),
                            tuple(records), float(epsilon), float(bound),
                            tuple(lc.cert.digest for lc in locals_))
    return seal(cert)

