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
The sine probes and the Chebyshev coefficients come from one term-table
loop (_term_sums), the B-spline Gram pairs and probes from one span-table
gather (_band_sums), many pairs to one exact row sum per deriv flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import basis, quadrature, target as target_mod
from .certificate import ApproximationCertificate, Construction, assemble
from .errors import (ConfigurationError, IllConditionedBasisError,
                     NoProgressError, ToleranceViolated)
from .records import NormTag

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
    _term_sums gives them from f evaluated on it once.
    """
    end = 0
    while end < max_terms:
        start, end = end + 1, min(max(2 * end, 1), max_terms)
        rule = quadrature.construction_rule(f, [family.element(end)],
                                            interval=family.domain)
        yield from _term_sums(f, family, range(start, end + 1), rule.nodes, rule.weights)


def _term_sums(f, family: basis.BasisFamily, js: range, x: np.ndarray, w: np.ndarray):
    """(j, the weighted sum of f e_j on the nodes x with weights w) for j in
    js in turn, with f evaluated once. The indices go in batches of
    basis.TABLE_ENTRIES // min(nodes, quadrature.FSUM_CHUNK): per node
    slice of a batch, one term table, times f, then times the weights, as
    w * (f * e_j) per node, and one quadrature.row_sums over its rows. A
    batch is summed only once the sums before it are taken, so a caller
    that stops early skips the rest.
    """
    fx = np.asarray(f.evaluate(x), dtype=float)
    batch = basis.TABLE_ENTRIES // min(x.size, quadrature.FSUM_CHUNK)
    for lo in range(0, len(js), batch):
        rows = js[lo:lo + batch]

        def products(at):
            t = basis.term_table(family, rows, x[at])
            t *= fx[at]
            t *= w[at]
            return t
        with np.errstate(over="ignore", invalid="ignore"):
            sums = quadrature.row_sums(len(rows), x, products)
        yield from zip(rows, sums)


# ----------------------------------------------------------------------------
# gram solve and raw probes
# ----------------------------------------------------------------------------

def gram_matrix(elements, norm: NormTag,
                rule: quadrature.QuadratureRule | None = None) -> np.ndarray:
    """Symmetric matrix of pairwise inner products in the norm.

    Only pairs whose supports overlap in an interval of positive length are
    integrated, for cubic B-splines the band |i - j| <= 3; every other entry
    stays +0.0, exactly its integral: an element is +0.0 off its support, no
    rule node sits on a panel edge, where two touching supports meet, and a
    sum of zeros is +0.0. Cubic B-splines share `rule`, by default the
    construction rule of all of them over the norm's domain (_band_sums);
    every other pair has its own construction_rule(a, [b], norm.domain).
    """
    k = len(elements)
    G = np.zeros((k, k))
    ends = np.array([e.support() for e in elements], dtype=float).reshape(k, 2)
    i, j = _overlapping_pairs(ends)
    if k and elements[0].family.kind == basis.CUBIC_BSPLINE:
        rule = rule or quadrature.construction_rule(elements[0], elements, norm.domain)
        G[i, j] = G[j, i] = _band_sums(elements, ends, norm, rule, j, left=i)
        return G
    for a, b in zip(i.tolist(), j.tolist()):
        u, v = elements[a], elements[b]
        G[a, b] = G[b, a] = quadrature.inner_product(
            u, v, norm, quadrature.construction_rule(u, [v], norm.domain))
    return G


def _overlapping_pairs(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j), i <= j, whose supports (rows of ends) meet in an interval
    of positive length, each support checked against the run of those that
    start at or after it and before it ends: no k x k temporary."""
    (lo, hi), k = ends.T, len(ends)
    order = np.argsort(lo, kind="stable")
    run = np.maximum(np.searchsorted(lo[order], hi[order]) - np.arange(k), 0)
    a = np.repeat(np.arange(k), run)
    b = order[a + np.arange(a.size) - np.repeat(np.cumsum(run) - run, run)]
    i, j = np.minimum(order[a], b), np.maximum(order[a], b)
    meets = np.minimum(hi[i], hi[j]) > np.maximum(lo[i], lo[j])
    return i[meets], j[meets]


def _band_sums(elements, ends: np.ndarray, norm: NormTag, rule: quadrature.QuadratureRule,
               right: np.ndarray, left: np.ndarray | None = None, f=None) -> np.ndarray:
    """For each row r, <u, e> on `rule` over the nodes in both closed
    supports (rows of ends), a contiguous range: e is element right[r] and u
    element left[r], or f, evaluated once, if left is None. Bit for bit the
    integral on the pair's own rule where `rule` has its panels: every other
    node's product is an exact zero. The elements are read from one span
    table, which refuses nodes as e.evaluate does; w (u v) goes in blocks of
    about basis.TABLE_ENTRIES, rows padded with +0.0, one quadrature.row_sums
    per deriv flag: math.fsum of each row, which a zero cannot change, added
    in quadrature.paired's order as inner_product adds them. A product that
    is not finite raises row_sums' EvaluationError at its node, a block's
    values summed before its slopes."""
    x, w, fam = rule.nodes, rule.weights, elements[0].family
    fx = [quadrature._at(f, x, d) for d in quadrature.paired(norm)] if left is None else None
    table = basis.pointwise(fam.domain, partial(basis.SpanTable, fam), x)
    index = np.array([e.index for e in elements])[:, None]
    first, last = np.searchsorted(x, ends[:, 0]), np.searchsorted(x, ends[:, 1], "right")
    starts, stops = first[right], last[right]
    if left is not None:
        starts, stops = np.maximum(starts, first[left]), np.minimum(stops, last[left])
    width = max(1, int(np.max(stops - starts, initial=0)))
    out, batch = [], max(1, basis.TABLE_ENTRIES // width)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(starts), batch):
            rows = np.arange(lo, min(lo + batch, len(starts)))
            pad = np.arange(width) >= (stops - starts)[rows, None]
            nodes = np.minimum(starts[rows, None] + np.arange(width), x.size - 1)
            sums = []
            for d in quadrature.paired(norm):
                u = fx[d][nodes] if left is None else table.gather(index[left[rows]], nodes, d)
                p = w[nodes] * (u * table.gather(index[right[rows]], nodes, d))
                p[pad] = 0.0
                sums.append(quadrature.row_sums(rows.size, x[nodes], lambda at: p[:, at]))
            out += map(sum, zip(*sums))
    return np.array(out)


def _probes(f, elements, norm: NormTag, rule=None) -> np.ndarray:
    """<f, e> for every element. B-splines share `rule` (by default that of
    f and them), f evaluated on it once (_band_sums); others probe on
    construction_rule(f, [e], norm.domain)."""
    if elements[0].family.kind != basis.CUBIC_BSPLINE:
        return np.array([quadrature.inner_product(
            f, e, norm, quadrature.construction_rule(f, [e], norm.domain)) for e in elements])
    rule = rule or quadrature.construction_rule(f, elements, norm.domain)
    ends = np.array([e.support() for e in elements], dtype=float).reshape(-1, 2)
    return _band_sums(elements, ends, norm, rule, np.arange(len(elements)), f=f)


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
    condition estimate over CONDITION_LIMIT, or under it a non-positive
    pivot, is IllConditionedBasisError; the estimate gates, reaching no claim."""
    cond = math.inf
    try:
        cond = float(np.linalg.cond(G))
        if not math.isfinite(cond) or cond > CONDITION_LIMIT:
            raise IllConditionedBasisError(cond, CONDITION_LIMIT)
        L, first = envelope_cholesky(G)
    except np.linalg.LinAlgError as e:  # the estimate's, cond left at inf, or a pivot's
        raise IllConditionedBasisError(cond, CONDITION_LIMIT, str(e)) from None
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

    Integrates f * T_j on the n = 2(degree+1) point Gauss-Chebyshev rule
    (Mason & Handscomb 2003), by _term_sums: the ascending nodes
    cos((2k-1) pi / (2n)) for k = n..1, each weighted pi/n, which carries
    1/sqrt(1-x^2); a_0 takes the 1/pi normalization, the rest 2/pi.
    """
    n = 2 * (degree + 1)
    if not 1 <= n <= 1_000_000:
        raise ConfigurationError(f"unreasonable node count {n}")
    x = np.cos((2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n))
    sums = _term_sums(f, basis.chebyshev_family(), range(degree + 1), x, np.full(n, np.pi / n))
    return np.array([ip / math.pi if j == 0 else 2.0 * ip / math.pi for j, ip in sums])


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
    G, probes = gram_matrix(elements, norm), _probes(f, elements, norm)
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
