r"""Overlapping covers, local extraction, reconciliation, and gluing.

A cover splits the domain into M equal cells widened symmetrically so that
consecutive patches share an overlap of width (cell width) * overlap_fraction.
Locals are extracted per patch at half the global tolerance. Before blending,
consecutive locals are compared in the Sobolev norm on their overlap; pairs
that disagree by delta = eps/(2M) or more get reconciled by adjusting the
higher-indexed patch, left to right, and every adjustment is recorded with
its coefficient deltas. The blended approximant sum_i psi_i s_i uses
complementary piecewise linear ramps across the overlaps, so a ramp pair
sums to one up to a single rounding. The blend is a target.TargetFunction
like any other, and reconciliation's least squares go through the Gram
assembly and solve of the approximate module.

The glued certificate's reported error is certified from its parts, never
by measuring the blend: with e_i local i's reported W12 error on its patch
and mu_i the W12 mismatch of locals i and i+1 on their overlap O_i,

    B = sqrt(sum_i e_i^2) + sqrt(sum_i (mu_i / |O_i|)^2)

bounds the blend's W12 error (Melenk & Babuska 1996, Thm 1, with overlap
mismatches in place of local errors). It needs psi_i >= 0, sum_i psi_i = 1
and psi_i' = -psi_{i+1}' = -1/|O_i| on O_i, which hold when the cover and
the locals meet premise_faults(); glue() and verify_glued() enforce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, target as target_mod
from .approximate import (ExtractionSettings, approximate_gram, gram_matrix,
                          solve_normal_equations)
from .basis import BasisFamily, cubic_bspline_family
from .certificate import (ApproximationCertificate, Construction, Document,
                          VerificationReport, assemble, envelope_findings,
                          from_dict, measure, measure_or_note, seal, verdict)
from .certificate import verify as verify_approximation
from .errors import (CertificateParseError, ConfigurationError,
                     IllConditionedBasisError, ReconciliationFailureError,
                     ToleranceViolated, TopologyError)
from .quadrature import NormTag

DEFAULT_OVERLAP_FRACTION = 0.2


# ----------------------------------------------------------------------------
# covers and partitions of unity
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Cover:
    domain: tuple[float, float]
    patches: tuple[tuple[float, float], ...]

    @property
    def m(self) -> int:
        return len(self.patches)

    def overlap(self, i: int) -> tuple[float, float]:
        """Intersection of patches i and i+1."""
        s = self.patches[i + 1][0]
        e = self.patches[i][1]
        if not s < e:
            raise TopologyError(f"patches {i} and {i + 1} do not overlap")
        return (s, e)


def make_cover(domain: tuple[float, float], m: int,
               overlap_fraction: float = DEFAULT_OVERLAP_FRACTION) -> Cover:
    """M equal cells widened by overlap_fraction and clipped to the domain."""
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
        patches.append((max(lo, c - 0.5 * width), min(hi, c + 0.5 * width)))
    cover = Cover((lo, hi), tuple(patches))
    faults = premise_faults(cover)
    if faults:
        raise ConfigurationError(faults[0])
    return cover


def premise_faults(cover: Cover, locals_=(), epsilon: float = math.inf) -> list[str]:
    """Why the compositional bound would not hold; make_cover checks the
    cover alone. The patches must span the domain as a chain, lo_i < lo_{i+1}
    < hi_i < hi_{i+1} and hi_i < lo_{i+2}; local i must sit on patch i, basis
    and W12 norm on the patch, with a budget of at most epsilon/2."""
    p = cover.patches
    faults = []
    if (p[0][0], p[-1][1]) != cover.domain:
        faults.append("cover domain does not match its patches")
    # the chain is lo_0 < lo_1 < hi_0 < lo_2 < hi_1 < ... < hi_{m-1}
    ends = [p[0][0], *(x for a, b in zip(p[:-1], p[1:]) for x in (b[0], a[1])), p[-1][1]]
    if not all(a < b for a, b in zip(ends[:-1], ends[1:])):
        faults.append("patches are not a chain of consecutive overlaps")
    for i, lc in enumerate(locals_):
        if not (lc.patch_index == i and lc.patch == p[i] == lc.cert.basis.domain
                and lc.cert.norm == NormTag(quadrature.W12, lc.patch)):
            faults.append(f"local {i} does not match its patch")
        if lc.cert.tolerance > 0.5 * epsilon * (1.0 + 1e-12):
            faults.append(f"local {i} budget exceeds half the global tolerance")
    return faults


@dataclass(frozen=True)
class PartitionOfUnity:
    """Complementary piecewise-linear ramps across a cover's overlaps."""

    cover: Cover

    def _ramp_up(self, i: int, x: np.ndarray) -> np.ndarray:
        # ascending weight of patch i across overlap (i-1, i)
        if i == 0:
            return np.ones_like(x)
        s, e = self.cover.overlap(i - 1)
        return np.clip((x - s) / (e - s), 0.0, 1.0)

    def weight(self, i: int, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.cover.patches[i]
        inside = (xs >= lo) & (xs <= hi)
        up = self._ramp_up(i, xs)
        if i == self.cover.m - 1:
            down = np.ones_like(xs)
        else:
            down = 1.0 - self._ramp_up(i + 1, xs)
        v = np.where(inside, up * down, 0.0)
        return v if np.ndim(x) else float(v[0])

    def weight_deriv(self, i: int, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        v = np.zeros_like(xs)
        if i > 0:
            s, e = self.cover.overlap(i - 1)
            v = np.where((xs >= s) & (xs < e), 1.0 / (e - s), v)
        if i < self.cover.m - 1:
            s, e = self.cover.overlap(i)
            v = np.where((xs >= s) & (xs < e), -1.0 / (e - s), v)
        lo, hi = self.cover.patches[i]
        v = np.where((xs < lo) | (xs > hi), 0.0, v)
        return v if np.ndim(x) else float(v[0])


def build_pou(cover: Cover) -> PartitionOfUnity:
    return PartitionOfUnity(cover)


# ----------------------------------------------------------------------------
# local certificates
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalCertificate:
    patch_index: int
    patch: tuple[float, float]
    cert: ApproximationCertificate = field(metadata={"key": "certificate"})


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
    norm = NormTag(quadrature.W12, family.domain)
    cert = approximate_gram(f, family.elements(), norm, settings)
    return LocalCertificate(patch_index, family.domain, cert)


def check_overlap(a: LocalCertificate, b: LocalCertificate) -> float:
    """Sobolev mismatch of two local approximants on their patch intersection,
    measured at verification grade."""
    lo = max(a.patch[0], b.patch[0])
    hi = min(a.patch[1], b.patch[1])
    if not lo < hi:
        raise TopologyError(
            f"patches {a.patch_index} and {b.patch_index} do not overlap")
    return measure(a.cert.approximant(), b.cert.approximant(),
                   NormTag(quadrature.W12, (lo, hi)))[0]


@dataclass(frozen=True)
class ReconciliationRecord:
    pair: tuple[int, int]
    pre_mismatch: float
    post_mismatch: float
    deltas: tuple[tuple[int, float], ...]
    adjusted: bool


def reconcile(f, a: LocalCertificate, b: LocalCertificate,
              delta: float) -> tuple[LocalCertificate, ReconciliationRecord]:
    """Pull b toward a on their overlap, touching only b's coefficients.

    Elements of b with no support on the overlap keep their coefficients;
    the rest are re-fit by least squares in W12(overlap) against a's
    approximant. Three gates, each a reconciliation failure when missed:
    every coefficient delta stays below `delta`, the post-adjustment
    mismatch falls below `delta`, and b still meets its own patch budget.
    """
    pre = check_overlap(a, b)
    if pre < delta:
        return b, ReconciliationRecord((a.patch_index, b.patch_index), pre, pre, (), False)
    lo = max(a.patch[0], b.patch[0])
    hi = min(a.patch[1], b.patch[1])
    fam = b.cert.basis
    sa = a.cert.approximant()
    norm = NormTag(quadrature.W12, (lo, hi))
    movable = [j for j, _ in b.cert.terms
               if fam.element(j).support()[0] < hi and fam.element(j).support()[1] > lo]
    if not movable:
        raise ReconciliationFailureError(
            f"pair ({a.patch_index}, {b.patch_index}): no element reaches the overlap")
    fixed = [(j, c) for j, c in b.cert.terms if j not in movable]
    els = [fam.element(j) for j in movable]
    rule = quadrature.construction_rule(sa, els + [b.cert.approximant()], interval=(lo, hi))
    G = gram_matrix(els, norm, lambda u, v: rule)
    resid = sa
    if fixed:
        # what a's approximant leaves for the movable elements on the overlap
        rest = target_mod.series(fam, fixed)
        resid = target_mod.TargetFunction(
            (lo, hi), "reconcile residual",
            lambda x: sa.evaluate(x) - rest.evaluate(x),
            lambda x: sa.evaluate_deriv(x) - rest.evaluate_deriv(x))
    rhs = np.array([quadrature.inner_product(resid, e, norm, rule) for e in els])
    try:
        sol, _ = solve_normal_equations(G, rhs)
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
    record = ReconciliationRecord((a.patch_index, b.patch_index), pre, post,
                                  tuple(deltas), True)
    return candidate, record


def _reissue(cert: ApproximationCertificate, new_terms, f) -> ApproximationCertificate:
    """Child certificate with adjusted coefficients, re-measured on its patch."""
    g = target_mod.series(cert.basis, new_terms)
    rule = quadrature.construction_rule(f, [g], interval=cert.norm.domain)
    err = quadrature.norm_of_difference(f, g, cert.norm, rule)
    if err >= cert.tolerance:
        raise ReconciliationFailureError(
            f"adjusted patch error {err:.6g} breaks local budget {cert.tolerance:.6g}")
    construction = Construction(cert.construction.method,
                                cert.construction.stopping + "; reconciled",
                                rule=cert.construction.rule)
    return assemble(cert.target_descriptor, cert.basis, new_terms, cert.norm,
                    cert.tolerance, err, construction,
                    genealogy=cert.genealogy + (cert.digest,))


# ----------------------------------------------------------------------------
# blending and the glued certificate
# ----------------------------------------------------------------------------

def glued_function(pou: PartitionOfUnity, locals_) -> target_mod.TargetFunction:
    """The blended approximant sum_i psi_i * s_i on the cover's domain."""
    series = [lc.cert.approximant() for lc in locals_]
    cover = pou.cover

    def blend(xs, deriv=False):
        out = np.zeros_like(xs)
        for i, s in enumerate(series):
            lo, hi = cover.patches[i]
            mask = (xs >= lo) & (xs <= hi)
            if np.any(mask):
                xm = xs[mask]
                term = pou.weight(i, xm) * (s.evaluate_deriv(xm) if deriv else s.evaluate(xm))
                if deriv:  # the product rule, psi_i' s_i first
                    term = pou.weight_deriv(i, xm) * s.evaluate(xm) + term
                out[mask] += term
        return out

    def edges():
        # the ramps run between patch ends, so the patches carry their edges
        pieces = [np.asarray(cover.domain), *map(np.asarray, cover.patches),
                  *(s.panel_edges() for s in series)]
        merged = np.unique(np.concatenate(pieces))
        return merged[(merged >= cover.domain[0]) & (merged <= cover.domain[1])]

    return target_mod.TargetFunction(cover.domain, f"glued:m={cover.m}", blend,
                                     lambda x: blend(x, deriv=True), edges)


def compositional_bound(cover: Cover, errors, mismatches) -> float:
    """B = sqrt(sum_i e_i^2) + sqrt(sum_i (mu_i / |O_i|)^2) from the locals'
    errors e_i and the overlap mismatches mu_i; see the module docstring."""
    overlaps = map(cover.overlap, range(cover.m - 1))
    seams = (mu / (e - s) for mu, (s, e) in zip(mismatches, overlaps))
    return (math.sqrt(math.fsum(e ** 2 for e in errors))
            + math.sqrt(math.fsum(r ** 2 for r in seams)))


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

    def approximant(self) -> target_mod.TargetFunction:
        return glued_function(build_pou(self.cover), self.locals)


def glue(f, locals_: list[LocalCertificate], pou: PartitionOfUnity,
         epsilon: float) -> GluedCertificate:
    """Reconcile pairwise left to right under the gate delta = epsilon/(2M),
    then certify the compositional bound; locals must meet premise_faults()."""
    cover = pou.cover
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


# ----------------------------------------------------------------------------
# parsing and verification
# ----------------------------------------------------------------------------

def glued_from_dict(doc: dict) -> GluedCertificate:
    cert = from_dict(GluedCertificate, doc)
    m = cert.cover.m
    if not 1 <= m == len(cert.locals):
        raise CertificateParseError(
            f"$.locals: {len(cert.locals)} locals for {m} patches; need one per patch")
    return cert


def verify_glued(cert: GluedCertificate, f, store: dict | None = None) -> VerificationReport:
    """Re-check a glued claim from its parts, never evaluating the blend: the
    premises, every local, the records, and each overlap mismatch against its
    record and the gate tolerance/(2M). The recomputed error is the bound over
    the locals' reported errors and the recomputed mismatches."""
    embedded = tuple(lc.cert for lc in cert.locals) + cert.parents
    notes, store = envelope_findings(cert, glued_from_dict, store, embedded)
    cover = cert.cover
    faults = premise_faults(cover, cert.locals, cert.tolerance)
    notes += faults
    for i, lc in enumerate(cert.locals):
        report = verify_approximation(lc.cert, f, store)
        notes.extend(f"local {i}: {n}" for n in report.notes)
    chain = [(i, i + 1) for i in range(cover.m - 1)]
    if [r.pair for r in cert.records] != chain:
        notes.append("reconciliation records are not the consecutive pairs")
    for r in cert.records:
        if not r.adjusted and (r.pre_mismatch != r.post_mismatch or r.deltas):
            notes.append(f"unadjusted pair {r.pair} records an adjustment")
    if sum(r.adjusted for r in cert.records) != len(cert.parents):
        notes.append("adjusted pairs and parents differ in number")
    recorded = {r.pair: r.post_mismatch for r in cert.records}
    delta = cert.tolerance / (2.0 * cover.m)
    mismatches = []
    # check_overlap trusts each local's own patch, so a broken premise skips it
    for i, j in [] if faults else chain:
        mu = measure_or_note(notes, f"overlap ({i}, {j})",
                             lambda: check_overlap(cert.locals[i], cert.locals[j]))
        if mu >= delta:
            notes.append(f"overlap ({i}, {j}) mismatch {mu:.6g} at or above delta {delta:.6g}")
        if mu != recorded.get((i, j)):
            notes.append(f"overlap ({i}, {j}) mismatch {mu:.6g} is not the recorded one")
        mismatches.append(mu)

    def measured():
        if faults:
            raise ConfigurationError("the cover or a local breaks the bound's premises")
        errors = [lc.cert.reported_error for lc in cert.locals]
        return compositional_bound(cover, errors, mismatches), "compositional_w12"
    return verdict(cert, notes, measured, "global error")
