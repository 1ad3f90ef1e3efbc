"""Tolerance sweep for the limit transfer, plus a lying modulus.

Every row re-runs the transfer and its verification from scratch; the tail
arithmetic is exact rationals, so the anchor depth and tail bound are stable
across runs by construction. The last section hands the transfer a modulus
that always answers 1 and shows the evidence ladder contradicting it.

    python3 scripts/tent_stability.py
"""

import sys
import time
from fractions import Fraction

sys.path.insert(0, "src")

from certapprox.certificate import verify_limit
from certapprox.errors import EvidenceContradictionError
from certapprox.limit import Modulus, tent_sequence, transfer


def main() -> int:
    seq = tent_sequence()
    print(f"{'eps':>10} {'n*':>4} {'tail':>12} {'reported':>13}"
          f" {'genealogy':>10} {'verify':>7}")
    for eps in (0.5, 0.25, 0.125, 1e-2, 1e-3, 1e-4):
        t0 = time.perf_counter()
        lim = transfer(seq, eps)
        rep = verify_limit(lim)
        dt = time.perf_counter() - t0
        print(f"{eps:>10g} {lim.n_star:>4} {lim.tail_bound:>12}"
              f" {lim.reported_error:>13.6e} {len(lim.genealogy):>10}"
              f" {'PASS' if rep.verdict else 'FAIL'} ({dt:.2f}s)")

    print("\nladder at eps = 1e-3:")
    lim = transfer(seq, 1e-3)
    for rec in lim.ladder:
        print(f"  pair {rec.pair}: gap {rec.measured} < {rec.bound}")
    print(f"  tail {lim.tail_bound} within budget {lim.tail_budget}")

    print("\nmodulus that always answers 1:")
    bad = tent_sequence(Modulus("constant 1", lambda q: 1))
    try:
        transfer(bad, 1e-3)
    except EvidenceContradictionError as e:
        print(f"  contradicted on pair {e.pair}: measured {e.measured},"
              f" claimed {e.bound}")
        return 0
    print("  not contradicted; the ladder failed its job")
    return 1


if __name__ == "__main__":
    sys.exit(main())
