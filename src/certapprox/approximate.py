r"""Certificate construction: five routes from a target to a finite claim.

orthonormal_probe   coefficient-by-coefficient probes against an orthonormal
                    family, on one shared rule per doubling block of
                    indices, with a Parseval error ledger, re-measured
                    directly before assembly.
gram_solve          normal equations over an arbitrary independent set,
                    solved by Cholesky after a conditioning gate.
raw_probe           bare inner products with no correction; honest about how
                    badly that goes for non-orthogonal families.
chebyshev_pipeline  weighted-coefficient table of degree N with a sup-norm
                    report: grid maximum plus an eight-term tail estimate.
greedy              matching pursuit over a dictionary with tie-breaks,
                    per-step direct error measurement, and stall detection.

Every route measures its reported error with the construction-grade rule;
verification later re-measures with refined panels. All stopping strings
are deterministic so that repeated runs assemble byte-identical claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, quadrature, target as target_mod
from .certificate import ApproximationCertificate, Construction, assemble
from .errors import (ConfigurationError, IllConditionedBasisError,
                     NoProgressError, ToleranceViolated)
from .quadrature import NormTag

CONDITION_LIMIT = 1e12
NO_PROGRESS_EPS = 1e-15
NO_PROGRESS_RUNS = 3
TIE_BREAK_SLACK = 1e-14

CHEB_ERROR_GRID = 513
CHEB_TAIL_TERMS = 8


@dataclass(frozen=True)
class ExtractionSettings:
    """Tolerance and term budget shared by all routes."""

    epsilon: float
    max_terms: int = 512

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigurationError(f"invalid tolerance {self.epsilon}")
        if self.max_terms < 1:
            raise ConfigurationError("max_terms must be positive")


def _common_family(elements) -> basis.BasisFamily:
    if not elements:
        raise ConfigurationError("need at least one basis element")
    fam = elements[0].family
    if any(e.family != fam for e in elements):
        raise ConfigurationError("all elements must come from one family")
    return fam


# ----------------------------------------------------------------------------
# orthonormal probes with a Parseval ledger
# ----------------------------------------------------------------------------

def approximate_orthonormal(f, family: basis.BasisFamily,
                            settings: ExtractionSettings) -> ApproximationCertificate:
    """Probe coefficients in order; stop when the Parseval remainder falls
    below the tolerance, then confirm by direct measurement.

    Only the sine family is orthonormal in L2 here; the remainder ledger
    err_N^2 = ||f||^2 - sum a_n^2 is exact for it, and the direct re-check
    before assembly defends against quadrature drift in the ledger.

    The coefficients come from _sine_probes, in batches; the ledger walks
    each batch in order and stops at the same N as with one probe at a
    time, dropping the rows computed past the stop.
    """
    if family.kind != basis.FOURIER_SINE:
        raise ConfigurationError(
            f"{family.kind} is not orthonormal in L2; use gram_solve")
    norm = NormTag(quadrature.L2, family.domain)
    f2_rule = quadrature.construction_rule(f, [], interval=family.domain).refined(4)
    f2 = quadrature.integrate(lambda x: np.asarray(f.evaluate(x)) ** 2, f2_rule)
    acc = 0.0
    terms: list[tuple[int, float]] = []
    direct = math.inf
    parseval = math.inf
    for n, a in _sine_probes(f, family, settings.max_terms):
        terms.append((n, a))
        acc += a * a
        parseval = math.sqrt(max(f2 - acc, 0.0))
        if parseval < settings.epsilon:
            g = target_mod.series(family, terms)
            last_rule = quadrature.construction_rule(f, [g], interval=family.domain)
            direct = quadrature.norm_of_difference(f, g, norm, last_rule)
            if direct < settings.epsilon:
                break
    else:
        raise ToleranceViolated(min(parseval, direct), settings.epsilon,
                                f"after {settings.max_terms} probes")
    stopping = (f"parseval remainder {parseval:.6e} at N={len(terms)}; "
                f"direct recheck {direct:.6e}")
    return assemble(f.descriptor, family, terms, norm, settings.epsilon,
                    direct, Construction("orthonormal_probe", stopping))


def _sine_probes(f, family: basis.BasisFamily, max_terms: int):
    """(n, <f, e_n>) for n = 1..max_terms in turn, each bit for bit
    integrate(lambda x: f(x) * e_n(x), rule) on its block's rule.

    The probes share one rule per block: coefficients n in (M/2, M], with
    M = 1, 2, 4, ... capped at max_terms, are measured on
    construction_rule(f, [e_M]), which resolves every e_n with n <= M, and
    f is evaluated on it once. A block is probed in batches of
    basis.TABLE_ENTRIES // quadrature.FSUM_CHUNK indices: per node slice,
    one term table of the batch, times f, then times the weights, as
    w * (f * e_n) per node, and one quadrature.row_sums over the rows.
    """
    batch = basis.TABLE_ENTRIES // quadrature.FSUM_CHUNK
    end = 0
    while end < max_terms:
        start, end = end + 1, min(max(2 * end, 1), max_terms)
        rule = quadrature.construction_rule(f, [family.element(end)],
                                            interval=family.domain)
        x, w = rule.nodes, rule.weights
        fx = np.asarray(f.evaluate(x), dtype=float)
        for lo in range(start, end + 1, batch):
            js = range(lo, min(lo + batch, end + 1))

            def products(at):
                t = basis.term_table(family, js, x[at])
                t *= fx[at]
                t *= w[at]
                return t
            with np.errstate(over="ignore", invalid="ignore"):
                sums = quadrature.row_sums(len(js), x, products)
            yield from zip(js, sums)


# ----------------------------------------------------------------------------
# gram solve and raw probes
# ----------------------------------------------------------------------------

def gram_matrix(elements, norm: NormTag,
                rule: quadrature.QuadratureRule | None = None) -> np.ndarray:
    """Symmetric matrix of pairwise inner products in the norm.

    Only pairs whose supports overlap in an interval of positive length are
    integrated; every other entry stays +0.0, which is exactly what its
    integral gives: an element is +0.0 off its support and no rule node
    sits on a panel edge, where two touching supports meet, so every node
    contributes a zero and the fsum of zeros is +0.0. For cubic B-splines
    this keeps the band |i - j| <= 3: 4k - 6 of the k(k + 1)/2 pairs.

    Every pair is integrated on `rule` if one is given. Otherwise cubic
    B-splines share one span rule, the construction rule of all the
    elements over the norm's domain, and a pair of any other family, whose
    elements span the domain, gets construction_rule(a, [b], norm.domain).
    _on_rule reads each rule's elements once, and a pair sums w a b (and
    w a' b' under W12) over the nodes in both supports, a contiguous range.
    That is bit for bit the integral over the pair's own rule: on the
    intersection the span rule's panels are the knot spans, as are the pair
    rule's, every other node carries an exact zero product, and integrate
    is an exactly rounded sum.
    """
    k = len(elements)
    G = np.zeros((k, k))
    lo, hi = np.array([e.support() for e in elements], dtype=float).reshape(k, 2).T
    if rule is None and k and elements[0].family.kind == basis.CUBIC_BSPLINE:
        rule = quadrature.construction_rule(elements[0], elements, norm.domain)
    shared = None if rule is None else _on_rule(elements, norm, rule)
    for i in range(k):
        meets = np.minimum(hi[i], hi[i:]) > np.maximum(lo[i], lo[i:])
        for j in (np.flatnonzero(meets) + i).tolist():
            a, b = elements[i], elements[j]
            u, v = (shared[i], shared[j]) if shared else _on_rule(
                [a, b], norm, quadrature.construction_rule(a, [b], norm.domain))
            G[i, j] = G[j, i] = _pair_inner(u, v)
    return G


@dataclass(frozen=True)
class _OnSupport:
    """An element or a target on the nodes start..stop - 1 of a rule, those
    in its support: its values there for each deriv flag the norm pairs."""

    element: basis.BasisElement | target_mod.TargetFunction
    rule: quadrature.QuadratureRule
    start: int
    stop: int
    values: tuple[np.ndarray, ...]


def _on_rule(elements, norm: NormTag, rule: quadrature.QuadratureRule) -> list[_OnSupport]:
    """Each element of one family on the nodes of `rule` in its closed
    support; B-splines read one basis.SpanTable, bit for bit e.evaluate."""
    x, flags = rule.nodes, quadrature.paired(norm)
    ends = np.array([e.support() for e in elements], dtype=float).reshape(-1, 2)
    starts = np.searchsorted(x, ends[:, 0], side="left").tolist()
    stops = np.searchsorted(x, ends[:, 1], side="right").tolist()
    fam = elements[0].family
    table = basis.SpanTable(fam, x) if fam.kind == basis.CUBIC_BSPLINE else None
    return [_OnSupport(e, rule, i, j, tuple(
        table.column(e.index, d, i, j) if table else
        (e.evaluate_deriv(x[i:j]) if d else e.evaluate(x[i:j])) for d in flags))
        for e, i, j in zip(elements, starts, stops)]


def _pair_inner(u: _OnSupport, v: _OnSupport) -> float:
    """<u, v> on their common rule, summed over the nodes in both supports:
    the integral of u v, plus under W12 that of u' v'."""
    start, stop = max(u.start, v.start), min(u.stop, v.stop)
    w, x = u.rule.weights[start:stop], u.rule.nodes[start:stop]
    a, b = slice(start - u.start, stop - u.start), slice(start - v.start, stop - v.start)
    val, *der = [quadrature.weighted_fsum(w, fu[a] * fv[b], x)
                 for fu, fv in zip(u.values, v.values)]
    return val + der[0] if der else val


def _probes(f, elements, norm: NormTag, rule=None) -> np.ndarray:
    """<f, e> for every element. B-splines share `rule` (by default that of
    f and them), f evaluated on it once; each probe sums its element's
    support nodes, bit for bit inner_product on any rule with `rule`'s
    panels there. Others probe on construction_rule(f, [e], norm.domain)."""
    if elements[0].family.kind != basis.CUBIC_BSPLINE:
        return np.array([quadrature.inner_product(
            f, e, norm, quadrature.construction_rule(f, [e], norm.domain)) for e in elements])
    rule = rule or quadrature.construction_rule(f, elements, norm.domain)
    x = rule.nodes
    on_f = _OnSupport(f, rule, 0, x.size, tuple(
        f.evaluate_deriv(x) if d else f.evaluate(x) for d in quadrature.paired(norm)))
    return np.array([_pair_inner(on_f, u) for u in _on_rule(elements, norm, rule)])


def _normal_system(f, elements, norm: NormTag) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix and the probes <f, e>."""
    return gram_matrix(elements, norm), _probes(f, elements, norm)


def _fsum_dot(head: float, u: np.ndarray, v: np.ndarray) -> float:
    """head - sum(u * v), exactly rounded over the rounded products."""
    return math.fsum([head, *(-u * v).tolist()])


def envelope_cholesky(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower factor L of the symmetric G = L L^T, and the column where each
    row of G starts. L keeps that envelope (George & Liu 1981), so a banded
    G costs O(k band^2). Each entry is one math.fsum, so L does not depend
    on summation order; a non-positive pivot is a LinAlgError."""
    k = len(G)
    first = np.array([np.argmax(G[i, :i + 1] != 0.0) for i in range(k)], dtype=int)
    L = np.zeros((k, k))
    for i in range(k):
        for j in range(first[i], i + 1):
            lo = max(first[i], first[j])
            s = _fsum_dot(G[i, j], L[i, lo:j], L[j, lo:j])
            if j < i:
                L[i, j] = s / L[j, j]
            elif s > 0.0:
                L[i, i] = math.sqrt(s)
            else:
                raise np.linalg.LinAlgError(f"non-positive pivot {s:.3e} in row {i}")
    return L, first


def solve_normal_equations(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Envelope-Cholesky solution of G c = rhs, one fsum per value. A
    condition estimate over CONDITION_LIMIT or a non-positive pivot is
    IllConditionedBasisError; the estimate gates, and reaches no claim."""
    cond = math.inf
    try:
        cond = float(np.linalg.cond(G))
        if not math.isfinite(cond) or cond > CONDITION_LIMIT:
            raise IllConditionedBasisError(cond, CONDITION_LIMIT)
        L, first = envelope_cholesky(G)
    except np.linalg.LinAlgError:
        raise IllConditionedBasisError(cond, CONDITION_LIMIT) from None
    k = len(G)
    y, x = np.zeros(k), np.zeros(k)
    for i in range(k):
        y[i] = _fsum_dot(rhs[i], L[i, first[i]:i], y[first[i]:i]) / L[i, i]
    for i in reversed(range(k)):
        below = np.flatnonzero(first[i + 1:] <= i) + i + 1
        x[i] = _fsum_dot(y[i], L[below, i], x[below]) / L[i, i]
    return x


def _certify(f, elements, norm: NormTag, settings: ExtractionSettings, solve,
             method: str, stopping: str, miss: str) -> ApproximationCertificate:
    """Fit solve(probes) over the elements (in their order), measure the fit
    against f on the probes' rule, that of f, the elements and their series
    (whose edges follow its indices alone), gate it and assemble the claim."""
    fam = _common_family(elements)
    zero = target_mod.series(fam, [(e.index, 0.0) for e in elements])
    rule = quadrature.construction_rule(f, [*elements, zero], norm.domain)
    coeffs = solve(_probes(f, elements, norm, rule))
    order = sorted(range(len(elements)), key=lambda i: elements[i].index)
    terms = [(elements[i].index, float(coeffs[i])) for i in order]
    g = target_mod.series(fam, terms)
    err = quadrature.norm_of_difference(f, g, norm, rule)
    if err >= settings.epsilon:
        raise ToleranceViolated(err, settings.epsilon, miss)
    return assemble(f.descriptor, fam, terms, norm, settings.epsilon, err,
                    Construction(method, stopping))


def approximate_gram(f, elements, norm: NormTag,
                     settings: ExtractionSettings) -> ApproximationCertificate:
    """Least-squares coefficients from the normal equations in the given norm."""
    elements = tuple(elements)
    return _certify(f, elements, norm, settings,
                    lambda probes: solve_normal_equations(gram_matrix(elements, norm), probes),
                    "gram_solve", f"cholesky solve over {len(elements)} elements",
                    "gram solve best fit")


def approximate_raw_probe(f, elements, norm: NormTag,
                          settings: ExtractionSettings) -> ApproximationCertificate:
    """Bare inner products as coefficients, no cross-term correction.

    For orthonormal families this coincides with the probe route; for
    anything else the direct measurement usually misses the tolerance and
    the violation carries the achieved error.
    """
    elements = tuple(elements)
    return _certify(f, elements, norm, settings, lambda probes: probes, "raw_probe",
                    f"independent probes over {len(elements)} elements",
                    "raw probes, no correction")


# ----------------------------------------------------------------------------
# weighted Chebyshev pipeline
# ----------------------------------------------------------------------------

def chebyshev_coefficients(f, degree: int) -> np.ndarray:
    """Weighted-orthogonality coefficients a_0..a_degree of the T_j expansion.

    Integrates f * T_j on the 2(degree+1) point Gauss-Chebyshev rule, whose
    weights carry 1/sqrt(1-x^2), with f evaluated once and the T_j read
    from term tables of about basis.TABLE_ENTRIES entries, each times f,
    then times the weights, and summed by one quadrature.row_sums; a_0
    carries the 1/pi normalization, the rest 2/pi.
    """
    rule = quadrature.gauss_chebyshev_rule(2 * (degree + 1))
    fam = basis.chebyshev_family()
    x = rule.nodes
    fx = np.asarray(f.evaluate(x), dtype=float)
    out = np.empty(degree + 1)
    block = max(1, basis.TABLE_ENTRIES // x.size)
    for j0 in range(0, degree + 1, block):
        rows = basis.term_table(fam, range(j0, min(j0 + block, degree + 1)), x)
        with np.errstate(over="ignore", invalid="ignore"):
            rows *= fx
            rows *= rule.weights
        sums = quadrature.row_sums(len(rows), x, lambda at: rows[:, at])
        for j, ip in enumerate(sums, j0):
            out[j] = ip / math.pi if j == 0 else 2.0 * ip / math.pi
    return out


def approximate_chebyshev(f, degree: int,
                          settings: ExtractionSettings) -> ApproximationCertificate:
    """Degree-N weighted coefficient table with a sup-norm error report.

    The report is the maximum absolute deviation over a 513-point Chebyshev
    grid plus the absolute sum of the next eight coefficients, which keeps
    it an upper bound a finer verification scan cannot overshoot.
    """
    if degree < 0:
        raise ConfigurationError("degree must be >= 0")
    fam = basis.chebyshev_family()
    coeffs = chebyshev_coefficients(f, degree)
    tail_all = chebyshev_coefficients(f, degree + CHEB_TAIL_TERMS)
    tail = math.fsum(abs(a) for a in tail_all[degree + 1:])
    terms = [(j, float(a)) for j, a in enumerate(coeffs)]
    g = target_mod.series(fam, terms)
    grid = np.cos(np.pi * np.arange(CHEB_ERROR_GRID) / (CHEB_ERROR_GRID - 1))[::-1]
    grid_max = float(np.max(np.abs(np.asarray(f.evaluate(grid))
                                   - np.asarray(g.evaluate(grid)))))
    err = grid_max + tail
    if err >= settings.epsilon:
        raise ToleranceViolated(err, settings.epsilon, "degree too low")
    construction = Construction(
        "chebyshev_pipeline", f"grid max {grid_max:.6e} + tail estimate {tail:.6e}")
    norm = NormTag(quadrature.SUP, fam.domain)
    return assemble(f.descriptor, fam, terms, norm, settings.epsilon, err,
                    construction)


# ----------------------------------------------------------------------------
# matching pursuit
# ----------------------------------------------------------------------------

def approximate_greedy(f, elements, norm: NormTag,
                       settings: ExtractionSettings) -> ApproximationCertificate:
    """Matching pursuit: repeatedly pick the dictionary element with the
    largest normalized residual correlation.

    Ties within 1e-14 go to the lowest element index; the same element may
    be picked again. Selection order is preserved in the certificate. The
    residual norm is re-measured directly every step; three consecutive
    reductions below 1e-15 raise the stall error.
    """
    elements = tuple(elements)
    fam = _common_family(elements)
    k = len(elements)
    G, probes = _normal_system(f, elements, norm)
    norms = np.sqrt(np.diag(G))
    if np.any(norms == 0.0):
        raise ConfigurationError("dictionary contains a zero element")
    rho = probes.copy()
    picks: list[tuple[int, float]] = []
    err = math.inf
    stall = 0
    for _ in range(settings.max_terms):
        scores = np.abs(rho) / norms
        best = float(np.max(scores))
        tied = [i for i in range(k)
                if scores[i] >= best - TIE_BREAK_SLACK * max(1.0, best)]
        pick = min(tied, key=lambda i: elements[i].index)
        c = float(rho[pick] / G[pick, pick])
        picks.append((elements[pick].index, c))
        rho = rho - c * G[pick, :]
        g = target_mod.series(fam, picks)
        chosen = {j for j, _ in picks}
        sel = [e for e in elements if e.index in chosen]
        err_rule = quadrature.construction_rule(f, sel + [g], norm.domain)
        new_err = quadrature.norm_of_difference(f, g, norm, err_rule)
        if new_err < settings.epsilon:
            err = new_err
            break
        stall = stall + 1 if err - new_err < NO_PROGRESS_EPS else 0
        err = min(err, new_err)
        if stall >= NO_PROGRESS_RUNS:
            raise NoProgressError(
                f"residual stuck at {err:.6e} after {len(picks)} picks")
    else:
        raise ToleranceViolated(err, settings.epsilon,
                                f"after {settings.max_terms} picks")
    return assemble(f.descriptor, fam, picks, norm, settings.epsilon, err,
                    Construction("greedy", f"matching pursuit, {len(picks)} picks"))
