r"""Basis families on an interval, with one shared element interface.

Five families: Chebyshev polynomials T_j on [-1, 1], the orthonormal sine
system sqrt(2) sin(j pi x) on [0, 1], raw monomials x^j, the dyadic tent
hierarchy phi_{2^k} on [0, 1], and clamped uniform cubic B-splines on an
arbitrary interval. An element evaluates pointwise or on numpy arrays,
differentiates (one-sided, right-hand convention at kinks), and reports a
support interval that is sound: the element vanishes identically outside it.
A B-spline and its derivative come from one loop up the Cox-de Boor
triangle over the element's five knots, degree 0 to 3, with no recursion.

Index conventions: chebyshev, monomial and tent start at 0 (T_0, x^0 and
phi_1 are all needed downstream), fourier_sine starts at 1, cubic_bspline
runs 1..M over the clamped family of M functions on M-3 uniform spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError

CHEBYSHEV = "chebyshev"
FOURIER_SINE = "fourier_sine"
MONOMIAL = "monomial"
TENT = "tent"
CUBIC_BSPLINE = "cubic_bspline"

_KINDS = (CHEBYSHEV, FOURIER_SINE, MONOMIAL, TENT, CUBIC_BSPLINE)


# ----------------------------------------------------------------------------
# families
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFamily:
    """A named family with its domain; m is the size of a B-spline family."""

    kind: str
    domain: tuple[float, float]
    m: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown basis kind {self.kind!r}")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigurationError(f"invalid domain [{lo}, {hi}]")
        if self.kind == CHEBYSHEV and self.domain != (-1.0, 1.0):
            raise ConfigurationError("chebyshev family lives on [-1, 1]")
        if self.kind in (FOURIER_SINE, TENT) and self.domain != (0.0, 1.0):
            raise ConfigurationError(f"{self.kind} family lives on [0, 1]")
        if self.kind == CUBIC_BSPLINE:
            if self.m is None or self.m < 4:
                raise ConfigurationError("cubic_bspline needs m >= 4 functions")
        elif self.m is not None:
            raise ConfigurationError(f"{self.kind} takes no size parameter")

    # lowest valid element index; B-spline families are also bounded above
    @property
    def min_index(self) -> int:
        return 1 if self.kind in (FOURIER_SINE, CUBIC_BSPLINE) else 0

    @property
    def max_index(self) -> int | None:
        return self.m if self.kind == CUBIC_BSPLINE else None

    def element(self, index: int) -> "BasisElement":
        return BasisElement(self, index)

    def elements(self) -> tuple["BasisElement", ...]:
        if self.max_index is None:
            raise ConfigurationError(f"{self.kind} family is not finite")
        return tuple(self.element(j) for j in range(self.min_index, self.max_index + 1))

    def interior_elements(self) -> tuple["BasisElement", ...]:
        """The B-spline elements vanishing at both interval endpoints (2..M-1)."""
        if self.kind != CUBIC_BSPLINE:
            raise ConfigurationError("interior subset only defined for cubic_bspline")
        return tuple(self.element(j) for j in range(2, self.m))

    def knots(self) -> np.ndarray:
        """Padded clamped knot vector, length m + 4."""
        if self.kind != CUBIC_BSPLINE:
            raise ConfigurationError(f"{self.kind} has no knot vector")
        return _clamped_knots(self.domain[0], self.domain[1], self.m)


def chebyshev_family() -> BasisFamily:
    return BasisFamily(CHEBYSHEV, (-1.0, 1.0))


def fourier_sine_family() -> BasisFamily:
    return BasisFamily(FOURIER_SINE, (0.0, 1.0))


def monomial_family(domain: tuple[float, float] = (0.0, 1.0)) -> BasisFamily:
    return BasisFamily(MONOMIAL, domain)


def tent_family() -> BasisFamily:
    return BasisFamily(TENT, (0.0, 1.0))


def cubic_bspline_family(m: int, domain: tuple[float, float] = (0.0, 1.0)) -> BasisFamily:
    return BasisFamily(CUBIC_BSPLINE, domain, m)


@lru_cache(maxsize=256)
def _clamped_knots(lo: float, hi: float, m: int) -> np.ndarray:
    # m functions, m-3 spans, m-4 interior knots; ends carry multiplicity 4.
    interior = np.linspace(lo, hi, m - 2)[1:-1]
    k = np.concatenate([[lo] * 4, interior, [hi] * 4])
    k.setflags(write=False)
    return k


# ----------------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """One element of a family. value and deriv map a float array inside the
    domain, unchecked; evaluate and evaluate_deriv add the domain check and
    the scalar-in, scalar-out rule."""

    family: BasisFamily
    index: int

    def __post_init__(self):
        j, fam = self.index, self.family
        if j < fam.min_index:
            raise ConfigurationError(
                f"{fam.kind} index {j} below minimum {fam.min_index}")
        if fam.max_index is not None and j > fam.max_index:
            raise ConfigurationError(
                f"{fam.kind} index {j} above family size {fam.max_index}")

    def evaluate(self, x):
        return pointwise(self.family.domain, self.value, x)

    def evaluate_deriv(self, x):
        return pointwise(self.family.domain, self.deriv, x)

    def value(self, xs: np.ndarray) -> np.ndarray:
        kind, j = self.family.kind, self.index
        if kind == CHEBYSHEV:
            return np.cos(j * np.arccos(np.clip(xs, -1.0, 1.0)))
        if kind == FOURIER_SINE:
            return math.sqrt(2.0) * np.sin(j * np.pi * xs)
        if kind == MONOMIAL:
            return xs ** j
        if kind == TENT:
            frac = np.ldexp(xs, j)  # 2^j * x, exact scaling
            frac -= np.floor(frac)  # exact, and in place: no third array
            return 2.0 * np.minimum(frac, 1.0 - frac)
        return _bspline(self.family.knots(), j - 1, xs)

    def deriv(self, xs: np.ndarray) -> np.ndarray:
        kind, j = self.family.kind, self.index
        if kind == CHEBYSHEV:
            return _chebyshev_deriv(j, xs)
        if kind == FOURIER_SINE:
            return math.sqrt(2.0) * j * np.pi * np.cos(j * np.pi * xs)
        if kind == MONOMIAL:
            return j * xs ** (j - 1) if j > 0 else np.zeros_like(xs)
        if kind == TENT:
            frac = np.ldexp(xs, j)
            frac -= np.floor(frac)
            # right-hand derivative: rising on [0, 1/2), falling on [1/2, 1)
            return np.where(frac < 0.5, 2.0 ** (j + 1), -(2.0 ** (j + 1)))
        return _bspline(self.family.knots(), j - 1, xs, slope=True)

    def support(self) -> tuple[float, float]:
        fam = self.family
        if fam.kind == CUBIC_BSPLINE:
            t = fam.knots()
            j0 = self.index - 1
            return (float(t[j0]), float(t[j0 + 4]))
        return fam.domain

    def panel_edges(self) -> np.ndarray:
        """Breakpoints a composite quadrature rule should honor for this element.

        Smooth oscillatory elements get uniform refinement tied to the index;
        piecewise elements get their actual kinks and knots.
        """
        lo, hi = self.family.domain
        kind, j = self.family.kind, self.index
        if kind == CHEBYSHEV:
            return np.linspace(lo, hi, _ceil_div(j + 1, 8) + 1)
        if kind == MONOMIAL:
            return np.linspace(lo, hi, _ceil_div(j + 1, 16) + 1)
        if kind == FOURIER_SINE:
            return np.linspace(lo, hi, j + 1)
        if kind == TENT:
            return np.linspace(0.0, 1.0, 2 ** (j + 1) + 1)
        a, b = self.support()
        t = self.family.knots()
        inside = t[(t >= a) & (t <= b)]
        return np.unique(inside)


def pointwise(domain: tuple[float, float], fn, x):
    """fn on x as a float array after the domain check; a scalar x gives a float."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = domain
    flat = xs.reshape(-1)
    bad = flat[~((flat >= lo) & (flat <= hi))]  # NaN fails both comparisons
    if bad.size:
        raise DomainError(f"x = {bad[0]} outside [{lo}, {hi}]")
    v = fn(xs)
    return v if np.ndim(x) else float(v[0])


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _chebyshev_deriv(j: int, x: np.ndarray) -> np.ndarray:
    if j == 0:
        return np.zeros_like(x)
    out = np.empty_like(x)
    near_hi = x > 1.0 - 1e-12
    near_lo = x < -1.0 + 1e-12
    mid = ~(near_hi | near_lo)
    theta = np.arccos(np.clip(x[mid], -1.0, 1.0))
    out[mid] = j * np.sin(j * theta) / np.sin(theta)
    out[near_hi] = float(j * j)
    out[near_lo] = float((-1) ** (j + 1) * j * j)
    return out


# ----------------------------------------------------------------------------
# Cox-de Boor triangle, vectorized over x
# ----------------------------------------------------------------------------

def _bspline(t: np.ndarray, i: int, x: np.ndarray, slope: bool = False) -> np.ndarray:
    """N_{i,3}(x), or with slope its right-hand derivative, by the Cox-de
    Boor triangle over the knots t[i..i+4] (de Boor, A Practical Guide to
    Splines, rev. 2001). row starts as the four span indicators; pass p
    overwrites row[r] with N_{k,p} = (x - t_k)/d1 N_{k,p-1}
    + (t_{k+p+1} - x)/d2 N_{k+1,p-1}, k = i + r, leaving out a term over a
    zero-width span. The slope weighs the top entry by 3/d1 and -3/d2."""
    row = []
    for k in range(i, i + 4):
        if t[k] >= t[k + 1]:
            row.append(np.zeros_like(x))
        else:
            # close the final span so x == hi belongs to the last element
            below = x <= t[k + 1] if t[k + 1] == t[-1] else x < t[k + 1]
            row.append(np.where((x >= t[k]) & below, 1.0, 0.0))
    for p in (1, 2, 3):
        top = slope and p == 3
        for r in range(4 - p):
            k = i + r
            v = np.zeros_like(x)
            d1 = t[k + p] - t[k]
            if d1 > 0.0:
                v = v + (p / d1 if top else (x - t[k]) / d1) * row[r]
            d2 = t[k + p + 1] - t[k + 1]
            if d2 > 0.0:
                v = v + (-p / d2 if top else (t[k + p + 1] - x) / d2) * row[r + 1]
            row[r] = v
    return row[0]
