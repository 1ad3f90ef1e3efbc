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
solve, imported when called, so verify_glued never loads the builder.

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

import numpy as np

from . import certificate, quadrature, target as target_mod
from .basis import BasisFamily, cubic_bspline_family, distinct
from .certificate import (Construction, VerificationReport, assemble, envelope_findings,
                          measure, measure_or_note, verdict)
from .errors import (ConfigurationError, IllConditionedBasisError,
                     ReconciliationFailureError, ToleranceViolated, TopologyError)
from .records import (DEFAULT_OVERLAP_FRACTION, W12, ApproximationCertificate, Cover,
                      GluedCertificate, LocalCertificate, NormTag, ReconciliationRecord,
                      glued_from_dict, seal)


# ----------------------------------------------------------------------------
# covers
# ----------------------------------------------------------------------------

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
                and lc.cert.norm == NormTag(W12, lc.patch)):
            faults.append(f"local {i} does not match its patch")
        if lc.cert.tolerance > 0.5 * epsilon * (1.0 + 1e-12):
            faults.append(f"local {i} budget exceeds half the global tolerance")
    return faults


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


def check_overlap(a: LocalCertificate, b: LocalCertificate) -> float:
    """Sobolev mismatch of two local approximants on their patch intersection,
    measured at verification grade."""
    lo, hi = max(a.patch[0], b.patch[0]), min(a.patch[1], b.patch[1])
    if not lo < hi:
        raise TopologyError(
            f"patches {a.patch_index} and {b.patch_index} do not overlap")
    return measure(a.cert.approximant(), b.cert.approximant(),
                   NormTag(W12, (lo, hi)))[0]


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
        return b, ReconciliationRecord((a.patch_index, b.patch_index), pre, pre, (), False)
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
                                cert.construction.stopping + "; reconciled")
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


def compositional_bound(cover: Cover, errors, mismatches) -> float:
    """B = sqrt(sum_i e_i^2) + sqrt(sum_i (mu_i / |O_i|)^2) from the locals'
    errors e_i and the overlap mismatches mu_i; see the module docstring."""
    overlaps = map(cover.overlap, range(cover.m - 1))
    seams = (mu / (e - s) for mu, (s, e) in zip(mismatches, overlaps))
    return (math.sqrt(math.fsum(e ** 2 for e in errors))
            + math.sqrt(math.fsum(r ** 2 for r in seams)))


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


# ----------------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------------

def verify_glued(cert: GluedCertificate, f, store: dict | None = None) -> VerificationReport:
    """Re-check a glued claim from its parts, never evaluating the blend: the
    premises, every local and its target, the records and their deltas,
    each adjusted local against its parent, the genealogy, and each overlap
    mismatch against its record and the gate tolerance/(2M). The recomputed
    error is the bound over the locals' errors and recomputed mismatches."""
    embedded = tuple(lc.cert for lc in cert.locals) + cert.parents
    notes, store = envelope_findings(cert, store, embedded)
    cover = cert.cover
    faults = premise_faults(cover, cert.locals, cert.tolerance)
    notes += faults
    for i, lc in enumerate(cert.locals):
        if lc.cert.target_descriptor != cert.target_descriptor:
            notes.append(f"local {i}: target is not the glue's")
        report = certificate.verify(lc.cert, f, store)
        notes.extend(f"local {i}: {n}" for n in report.notes)
    chain = [(i, i + 1) for i in range(cover.m - 1)]
    if [r.pair for r in cert.records] != chain:
        notes.append("reconciliation records are not the consecutive pairs")
    for r in cert.records:
        if not r.adjusted and (r.pre_mismatch != r.post_mismatch or r.deltas):
            notes.append(f"unadjusted pair {r.pair} records an adjustment")
    if sum(r.adjusted for r in cert.records) != len(cert.parents):
        notes.append("adjusted pairs and parents differ in number")
    # each patch's local as extracted: its parent where its pair was adjusted
    extracted = [lc.cert for lc in cert.locals]
    for r, parent in zip([r for r in cert.records if r.adjusted], cert.parents):
        if r.pair not in chain:  # noted with the records above
            continue
        local, extracted[r.pair[1]] = extracted[r.pair[1]], parent
        # the adjusted local is its parent but at the deltas, bit for bit
        old, moved, new = dict(parent.terms), dict(r.deltas), dict(local.terms)
        if not (list(new) == list(old)
                and all(j in new and (new[j] - old[j]).hex() == d.hex() for j, d in r.deltas)
                and all(new[j].hex() == old[j].hex() for j in new if j not in moved)):
            notes.append(f"adjusted pair {r.pair}: deltas are not its local less its parent")
        if any(getattr(local, k) != getattr(parent, k)
               for k in ("target_descriptor", "basis", "norm", "tolerance")):
            notes.append(f"adjusted pair {r.pair}: its local and parent differ in claim")
        if local.genealogy != parent.genealogy + (parent.digest,):
            notes.append(f"adjusted pair {r.pair}: its local does not descend from its parent")
    if cert.genealogy != tuple(c.digest for c in extracted):
        notes.append("genealogy does not list each patch's local as extracted")
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
