"""End-to-end acceptance battery.

Each test prints one unconditional pass/fail line to the real stdout so the
battery's outcome survives output capture. Tolerances are pinned; loosening
any of them is a defect, not a fix.
"""

import contextlib
import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from certapprox import quadrature, target
from certapprox.approximate import (ExtractionSettings, approximate_chebyshev,
                                    approximate_gram, approximate_greedy,
                                    approximate_orthonormal,
                                    approximate_raw_probe)
from certapprox.basis import (cubic_bspline_family, fourier_sine_family,
                              monomial_family, tent_family)
from certapprox.certificate import (check_overlap, compute_digest, deserialize,
                                    serialize, verify, verify_glued, verify_limit)
from certapprox.errors import EvidenceContradictionError
from certapprox.glue import (Cover, extract_local, glue, local_bspline_family,
                             make_cover)
from certapprox.limit import (Modulus, tent_certificate, tent_sequence,
                              transfer)
from certapprox.records import parse_frac


@contextlib.contextmanager
def _scored(n: int, label: str, capsys):
    """Emit the one-line verdict past pytest's capture, pass or fail."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n}: FAIL ({label})", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {n}: PASS ({label})", flush=True)


# ----------------------------------------------------------------------------
# 1: weighted coefficient table for exp, against an outside oracle
# ----------------------------------------------------------------------------

def test_c1_exp_coefficient_table(capsys):
    with _scored(1, "weighted coefficients of exp", capsys):
        t0 = time.perf_counter()
        f = target.from_builtin("exp")
        cert = approximate_chebyshev(f, 4, ExtractionSettings(5e-3))
        elapsed = time.perf_counter() - t0
        got = [a for _, a in cert.terms]
        bessel = [float(scipy.special.iv(0, 1.0))] + [
            float(2.0 * scipy.special.iv(j, 1.0)) for j in range(1, 5)]
        assert got == pytest.approx(bessel, rel=1e-13)
        published = {2: 0.2715, 3: 0.0443, 4: 0.0055}
        for j, rounded in published.items():
            assert abs(got[j] - rounded) < 5e-4, j
        assert got == pytest.approx([1.2660658777520084, 1.13031820798497,
                                     0.27149533953407656, 0.04433684984866407,
                                     0.005474240442094149], rel=1e-12)
        assert elapsed < 1.0, f"{elapsed:.2f}s"


# ----------------------------------------------------------------------------
# 2: spline fit lands under a millinorm budget
# ----------------------------------------------------------------------------

def test_c2_spline_fit_under_budget(capsys):
    with _scored(2, "sobolev spline fit under 1e-3", capsys):
        t0 = time.perf_counter()
        f = target.from_builtin("sinpi")
        fam = cubic_bspline_family(12)
        cert = approximate_gram(f, fam.interior_elements(),
                                quadrature.w12_norm(), ExtractionSettings(1e-3))
        elapsed = time.perf_counter() - t0
        assert cert.reported_error == pytest.approx(5.595343593589852e-4,
                                                    rel=1e-9)
        assert cert.reported_error < 1e-3
        assert verify(cert, f).verdict
        assert elapsed < 5.0, f"{elapsed:.2f}s"


# ----------------------------------------------------------------------------
# 3: verification is an independent measurement, not a replay
# ----------------------------------------------------------------------------

def test_c3_independent_recheck(capsys):
    with _scored(3, "sup-norm recheck on a finer scan", capsys):
        f = target.from_builtin("exp")
        cert = approximate_chebyshev(f, 4, ExtractionSettings(5e-3))
        t0 = time.perf_counter()
        rep = verify(cert, f)
        elapsed = time.perf_counter() - t0
        assert rep.verdict
        assert rep.method == "grid_4097+golden"
        assert rep.recomputed_error == pytest.approx(5.913128972312442e-4,
                                                     rel=1e-9)
        assert rep.recomputed_error <= cert.reported_error * (1.0 + 1e-6) + 1e-12
        assert rep.recomputed_error < cert.reported_error
        assert elapsed < 2.0, f"{elapsed:.2f}s"


# ----------------------------------------------------------------------------
# 4: the probe route certifies the minimal rank for its tolerance
# ----------------------------------------------------------------------------

def test_c4_minimal_rank_for_the_identity(capsys):
    with _scored(4, "2026-term sine expansion of x at 1e-2", capsys):
        f = target.from_builtin("linear")
        cert = approximate_orthonormal(f, fourier_sine_family(),
                                       ExtractionSettings(1e-2, max_terms=2500))
        assert len(cert.terms) == 2026
        assert cert.reported_error == pytest.approx(0.009999811574160421,
                                                    rel=1e-9)
        # independent minimality oracle: the exact L2 remainder after N terms
        # is sqrt(2/pi^2 * psi'(N+1))
        def remainder(n):
            return math.sqrt(2.0 / math.pi ** 2
                             * float(scipy.special.polygamma(1, n + 1)))
        assert remainder(2026) == pytest.approx(cert.reported_error, rel=1e-9)
        assert remainder(2025) >= 1e-2
        # the probe rules outgrow FSUM_CHUNK nodes: pins integrate's bytes
        assert hashlib.sha256(serialize(cert)).hexdigest() == (
            "9b8e5215632070c362d12e3c4dc6912b181a5ed2da4f6e4136867bfd1b6cf93e")
        assert verify(cert, f).verdict


# ----------------------------------------------------------------------------
# 5: gluing keeps the global error under the budget
# ----------------------------------------------------------------------------

def test_c5_gluing_across_patch_counts(capsys):
    with _scored(5, "glued spline covers at 1e-2", capsys):
        eps = 1e-2
        f = target.from_builtin("sinpi")
        settings = ExtractionSettings(0.5 * eps)
        xs = np.linspace(0.0, 1.0, 8193)
        for m in (1, 3, 5):
            cover = make_cover((0.0, 1.0), m)
            locals_ = [
                extract_local(f, i, p, local_bspline_family(p, 8), settings)
                for i, p in enumerate(cover.patches)]
            g = glue(f, locals_, cover, eps)
            direct = float(np.max(np.abs(g.approximant().evaluate(xs)
                                         - f.evaluate(xs))))
            assert direct < eps, m
            assert verify_glued(g, f).verdict, m
            if m == 1:
                assert serialize(g.locals[0].cert) == serialize(locals_[0].cert)
        # independently extracted restrictions agree on their overlaps
        explicit = Cover(((0.0, 0.3), (0.2, 0.7), (0.6, 1.0)))
        rs = [extract_local(f, i, p, local_bspline_family(p, 8), settings)
              for i, p in enumerate(explicit.patches)]
        assert check_overlap(rs[0], rs[1]) < 5e-4
        assert check_overlap(rs[1], rs[2]) < 5e-4


# ----------------------------------------------------------------------------
# 6: limit transfer anchors where the modulus says, and a lying modulus
#    is caught by its own ladder
# ----------------------------------------------------------------------------

def test_c6_limit_transfer_and_contradiction(capsys):
    with _scored(6, "dyadic limit transfer with evidence ladder", capsys):
        t0 = time.perf_counter()
        seq = tent_sequence()
        for eps, depth in ((0.5, 3), (0.125, 5), (1e-3, 12)):
            lim = transfer(seq, eps)
            assert lim.n_star == depth, eps
            assert Fraction(1, 2 ** lim.n_star) <= Fraction(eps) / 2
            assert verify_limit(lim).verdict, eps
        bad = tent_sequence(Modulus("constant 1", lambda q: 1))
        with pytest.raises(EvidenceContradictionError) as e:
            transfer(bad, 1e-3)
        assert e.value.pair == (1, 2)
        assert parse_frac(e.value.measured) == Fraction(1, 4)
        assert parse_frac(e.value.measured) >= parse_frac(e.value.bound)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"{elapsed:.2f}s"


# ----------------------------------------------------------------------------
# 7: documents survive storage and rebuilds bit for bit
# ----------------------------------------------------------------------------

C7_PINS = Path(__file__).resolve().parent / "data" / "c7_battery.sha256"


def _battery():
    certs = []
    for n in range(60):
        certs.append(tent_certificate(n))
    f_exp = target.from_builtin("exp")
    for d in range(2, 22):
        certs.append(approximate_chebyshev(f_exp, d, ExtractionSettings(1.0)))
    f_sin = target.from_builtin("sinpi")
    for m in range(6, 16):
        fam = cubic_bspline_family(m)
        certs.append(approximate_gram(f_sin, fam.interior_elements(),
                                      quadrature.w12_norm(),
                                      ExtractionSettings(1.0)))
    f_lin = target.from_builtin("linear")
    sine = fourier_sine_family()
    for eps in (0.3, 0.25, 0.2, 0.15, 0.12, 0.1):
        certs.append(approximate_orthonormal(f_lin, sine,
                                             ExtractionSettings(eps,
                                                                max_terms=64)))
    els3 = [sine.element(j) for j in range(1, 4)]
    certs.append(approximate_raw_probe(f_lin, els3, quadrature.l2_norm(),
                                       ExtractionSettings(1.0)))
    els8 = [sine.element(j) for j in range(1, 9)]
    certs.append(approximate_greedy(f_lin, els8, quadrature.l2_norm(),
                                    ExtractionSettings(0.16)))
    mono = monomial_family((-1.0, 1.0))
    certs.append(approximate_gram(f_exp, [mono.element(j) for j in range(7)],
                                  quadrature.l2_norm((-1.0, 1.0)),
                                  ExtractionSettings(1.0)))
    tents = tent_family()
    certs.append(approximate_gram(f_sin, [tents.element(j) for j in range(8)],
                                  quadrature.w12_norm(),
                                  ExtractionSettings(1.0)))
    return certs


def test_c7_durability_and_determinism(capsys):
    with _scored(7, "100-certificate battery, bit-stable", capsys):
        first = _battery()
        assert len(first) == 100
        blobs = [serialize(c) for c in first]
        for c, b in zip(first, blobs):
            again = deserialize(b)
            assert serialize(again) == b
            assert c.digest == compute_digest(c.to_dict())
        second = [serialize(c) for c in _battery()]
        assert blobs == second
        # every route's bytes, pinned across refactors: each document's
        # sha256 in C7_PINS ("sha256 index basis method target" per line), so
        # a change lists the documents it moves, then the hash of them joined
        pins = C7_PINS.read_text().splitlines()
        assert len(pins) == len(blobs)
        moved = [pin for pin, b in zip(pins, blobs)
                 if pin.split()[0] != hashlib.sha256(b).hexdigest()]
        assert not moved, "documents that moved:\n" + "\n".join(moved)
        assert hashlib.sha256(b"".join(blobs)).hexdigest() == (
            "033ea756af62d6af204ee33c6f0dc78cd5f5db0080c8faf4c5296cec558c9659")
        # forged copies must fail the recheck
        for victim, fn in ((first[70], target.from_builtin("sinpi")),
                           (first[30], target.from_builtin("exp"))):
            doc = json.loads(serialize(victim))
            doc["reported_error"] = doc["reported_error"] * 0.5 + 1e-18
            forged = deserialize(json.dumps(doc))
            rep = verify(forged, fn)
            assert not rep.verdict
            assert not rep.structural_ok
