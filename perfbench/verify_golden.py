"""Recompute the poly workload's golden values without sievegap.

    python3 perfbench/verify_golden.py

* ``system-info --file poly:n^3+2 --x 20000``: the number of roots of
  n^3 + 2 mod p comes from cubic-residue theory, not from evaluating the
  polynomial: one root for p = 2, 3 and for p = 2 (mod 3), where cubing is
  a bijection; for p = 1 (mod 3), three roots if (-2)^((p-1)/3) = 1
  (mod p) and none otherwise.  sigma is the exact rational product of
  (1 - k_p/p), and the Mertens track, rho_hat, the period bit length and
  the drift flag follow from it by their definitions.
* ``composite-runs --poly n^2+1 --X 100000``: every n^2 + 1 is tested
  with ``sympy.isprime``, and the longest run of non-prime values (first
  occurrence on ties) is found by a plain scan.

Exits 0 when every golden value in golden.json matches to a relative
1e-9 (the reports print 12 significant digits), 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from checks import mismatches

GOLDEN = Path(__file__).with_name("golden.json")


def _primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return [n for n in range(limit + 1) if flags[n]]


def _cubic_roots(p: int) -> int:
    """Number of roots of n^3 + 2 modulo the prime p."""
    if p in (2, 3) or p % 3 == 2:
        return 1
    return 3 if pow(-2 % p, (p - 1) // 3, p) == 1 else 0


def system_info(x: int = 20_000) -> dict:
    checkpoints = [100, 1_000, 10_000, x]
    active = [(p, _cubic_roots(p)) for p in _primes(x) if _cubic_roots(p)]
    track = []
    for cp in checkpoints:
        sig = Fraction(1)
        for p, k in active:
            if p <= cp:
                sig *= Fraction(p - k, p)
        track.append([cp, float(sig) * math.log(cp)])
    drift = abs(track[-1][1] / track[-2][1] - 1)
    deltas = [b[1] - a[1] for a, b in zip(track, track[1:])]
    monotone = all(d > 0 for d in deltas) or all(d < 0 for d in deltas)
    return {
        "drift_ratio": drift,
        "flagged_not_one_dimensional": monotone and drift > 0.1,
        "mertens_track": track,
        "period_bitlength": math.prod(p for p, _ in active).bit_length(),
        "rho_hat": len(active) / (x / math.log(x)),
        "sigma": float(sig),
        "x": x,
    }


def composite_runs(X: int = 100_000) -> dict:
    from sympy import isprime
    best_start, best_len, start, run = 1, 0, 1, 0
    for n in range(1, X + 1):
        if isprime(n * n + 1):
            start, run = n + 1, 0
        else:
            run += 1
            if run > best_len:
                best_start, best_len = start, run
    return {"length": best_len, "probabilistic_checks": 0,
            "start": best_start}


def main() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = (mismatches("system-info", golden["system-info"], system_info())
           + mismatches("composite-runs", golden["composite-runs"],
                         composite_runs()))
    for line in bad:
        print(line)
    print("golden values", "MISMATCH" if bad else "confirmed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
