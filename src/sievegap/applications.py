"""Composite runs of polynomial values and coprimality witnesses,
built on the sieving construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import primality, primes_in_range, primes_upto
from .rng import derive_seed, uniform_residues
from .systems import IntPolynomial, SievingSystem, polynomial_system
from .window import ShiftVector, sift, verify_empty

__all__ = [
    "RunResult", "composite_run_bruteforce", "ConstructedRun",
    "composite_run_constructed", "coprimality_witness",
    "CoprimalityWitness", "coprimality_constructed",
]

_OVERFLOW_LIMIT = 1 << 128
_PRESIEVE_LIMIT = 300
_BRUTE_X_CAP = 100_000_000
_SEGMENT = 1 << 16              # values per Horner pass
_ROOT_BATCH = 1 << 14           # primes per root-finder call


# ---------------------------------------------------------------------------
# brute-force composite runs


@dataclass
class RunResult:
    start: int
    length: int
    probabilistic_checks: int = 0


def composite_run_bruteforce(f, X: int) -> RunResult:
    """Longest run of consecutive n in [1, X] with f(n) not prime.

    f(n) counts as prime when |f(n)| is prime, so a negative value -q
    with q prime is prime, and |f(n)| <= 1 is not.  Ties break to the
    smallest start.

    The values are sieved by the root classes of f: spf[n - 1] is the
    smallest prime p <= depth with p | f(n), or 0.  A prime p <= deg f
    divides the values directly, since f mod p need not have period p
    there (n(n + 1)/2 mod 2 has period 4).  |f(n)| > p makes f(n)
    composite and |f(n)| = p prime.  An unstruck |f(n)| > 1 below
    (depth + 1)^2 has no prime factor up to its square root, so it is
    prime; only the unstruck values above that reach the primality
    test.  With B = isqrt of a bound on |f| over [1, X], depth is B
    while B <= max(X, 300), so that no value reaches the test, and 300
    otherwise.
    """
    system = polynomial_system(f)
    if X < 1 or X > _BRUTE_X_CAP:
        raise DomainError(f"X must lie in [1, {_BRUTE_X_CAP}]")
    poly = system.poly
    coeffs, fact = poly.scaled_standard_coeffs()
    bound = sum(abs(c) * X ** i for i, c in enumerate(coeffs))
    B = math.isqrt(bound // fact)
    depth = B if B <= max(X, _PRESIEVE_LIMIT) else _PRESIEVE_LIMIT
    d = system.degree_d
    small = primes_upto(min(d, depth)).tolist()[::-1]
    spf = np.zeros(X, dtype=np.int32)
    primes = primes_in_range(d, depth)
    for hi in range(len(primes), 0, -_ROOT_BATCH):
        p, r = system.residue_tables(primes[max(0, hi - _ROOT_BATCH):hi])
        # largest prime first, so that the smallest is struck last; the
        # primes <= d, all below these, divide each segment's values
        for q, s in zip(p[::-1].tolist(), ((r[::-1] - 1) % p[::-1]).tolist()):
            spf[s::q] = q
    # Horner stays exact in int64 while sum |c_i| X^i < 2^63
    dtype = np.int64 if bound < 1 << 63 else object
    is_p = np.zeros(X, dtype=bool)
    prob = 0
    for lo in range(0, X, _SEGMENT):
        hi = min(lo + _SEGMENT, X)
        v = np.abs(poly(np.arange(lo + 1, hi + 1).astype(dtype)))
        big = np.flatnonzero(v >= _OVERFLOW_LIMIT)
        if big.size:
            raise DomainError(f"|f({lo + 1 + big[0]})| exceeds 128 bits")
        s = spf[lo:hi]
        for p in small:
            s = np.where(v % p == 0, p, s)
        is_p[lo:hi] = (v > 1) & ((s == 0) | (s == v))
        for i in np.flatnonzero((s == 0) & (v >= (depth + 1) ** 2)):
            is_p[lo + i], tag = primality(int(v[i]))
            prob += tag == "probabilistic"
    # runs lie between consecutive primes, with sentinels at 0 and X + 1
    edges = np.concatenate(([0], np.flatnonzero(is_p) + 1, [X + 1]))
    runs = np.diff(edges) - 1
    i = int(np.argmax(runs))    # the first maximum has the smallest start
    return RunResult(start=int(edges[i]) + 1, length=int(runs[i]),
                     probabilistic_checks=prob)


# ---------------------------------------------------------------------------
# constructed composite runs


@dataclass
class ConstructedRun:
    start: int
    length: int
    x: int
    period: int
    verified: bool
    probabilistic_checks: int = 0


def _greedy_empty_shift(system: SievingSystem, primes: list[int], x: int,
                        z: int, key: int) -> tuple[ShiftVector, int]:
    """Seeded random start (rng.uniform_residues(key, p)), then coordinate
    ascent: re-choose each prime's residue to maximize the initial empty
    run of the shifted sifted set (primes in (z, x])."""
    shift = ShiftVector().with_residues(primes, uniform_residues(key, primes))
    target = max(x, 4) * 4

    def initial_run() -> int:
        surv = sift(system, x, shift, 1, target, z=z).members()
        return int(surv[0]) - 1 if len(surv) else target

    for _ in range(3):
        start = shift.b.copy()
        for i in reversed(range(len(shift.p))):
            base = int(shift.b[i])
            best_r, best_len = base, initial_run()
            for r in range(int(shift.p[i])):
                if r == base:
                    continue
                shift.b[i] = r
                run = initial_run()
                if run > best_len:
                    best_r, best_len = r, run
            shift.b[i] = best_r
        if np.array_equal(shift.b, start):
            break
    return shift, initial_run()


def _pick_cutoff(system: SievingSystem, X: int) -> int:
    """Largest prime cutoff x whose active-prime product stays <= X/4,
    so the CRT-mapped run fits inside [X/2, X]."""
    limit = max(100, int(math.log(X) ** 2))
    active = set(system.active_primes(limit))
    prod, x = 1, 2
    for p in primes_upto(limit).tolist():
        if p in active:
            if prod * p > X // 4:
                break
            prod *= p
        x = p
    return max(x, 2)


def composite_run_constructed(f, X: int, seed: int) -> ConstructedRun:
    """Sieve-constructed interval in [X/2, X] on which f is composite.

    Builds the root system of f, finds a shift b emptying an initial
    interval of the shifted sifted set at a small cutoff x (nominally
    (1/2) log X; enlarged at desk scale while the period still fits in
    X/4), maps the interval into [X/2, X] through the CRT position of b,
    and verifies every element composite with the primality test.
    """
    system = polynomial_system(f)
    poly = system.poly
    if X < 1:
        raise DomainError("X must be >= 1")
    x = _pick_cutoff(system, X)
    active = system.active_primes(x)
    if not active:
        raise DomainError("no prime sieves any value; cannot construct a run")
    # randomized shift, then greedy clean-up: give every prime whose
    # residue is still free the class that kills the first survivor
    shift, L = _greedy_empty_shift(system, active, x, 1,
                                   derive_seed(seed, "composite-run"))
    if not verify_empty(system, x, shift, 1, L):
        raise DomainError("internal error: constructed interval not empty")
    b, P = shift.crt_value()
    # integers m = n - b for n in [1, L] are all sieved; place the run
    # representative in [X/2, X]
    n0 = (1 - b) % P
    start = n0 + P * ((X // 2 - n0 + P - 1) // P)
    if start + L - 1 > X:
        raise DomainError("period too large to map the run into [X/2, X]")
    # a sieving prime p <= x divides each f(n) of the run, which makes f(n)
    # composite unless |f(n)| = p; at tiny X the run can land there
    prob = 0
    for n in range(start, start + L):
        v = abs(poly(n))
        is_p, tag = primality(v)
        if tag == "probabilistic":
            prob += 1
        if is_p and v <= x:
            raise DomainError(f"X = {X} is too small for a constructed run: "
                              f"|f({n})| = {v} is itself a sieving prime")
        if is_p:
            raise DomainError(
                f"verification failed: f({n}) = {v} is prime (bug)")
    return ConstructedRun(start=start, length=L, x=x, period=P,
                          verified=True, probabilistic_checks=prob)


# ---------------------------------------------------------------------------
# coprimality witnesses


def _has_prime_factor_above(g: int, d: int) -> bool:
    """True iff g has a prime factor > d (strip the small ones).  Every
    prime divides 0, so g = 0 has one."""
    if g == 0:
        return True
    g = abs(g)
    for p in primes_upto(d).tolist():
        while g % p == 0:
            g //= p
    return g > 1


def _verify_witness(poly: IntPolynomial, d: int, n: int, k: int) -> bool:
    """Every i in [1, k] must share a prime > d with some j != i."""
    vals = [poly(n + i) for i in range(1, k + 1)]
    for i in range(k):
        ok = False
        for j in range(k):
            if i != j and _has_prime_factor_above(
                    math.gcd(vals[i], vals[j]), d):
                ok = True
                break
        if not ok:
            return False
    return True


@dataclass
class CoprimalityWitness:
    found: bool
    n: int | None
    k: int
    checked_up_to: int


def coprimality_witness(f, k: int, search_bound: int) -> CoprimalityWitness:
    """Smallest n <= search_bound such that no f(n+i), i = 1..k, is
    coprime to all the others (witnessed by shared primes > deg f)."""
    poly = polynomial_system(f).poly
    if k < 2:
        raise DomainError("k must be >= 2")
    d = max(1, poly.degree)
    for n in range(0, search_bound + 1):
        if _verify_witness(poly, d, n, k):
            return CoprimalityWitness(found=True, n=n, k=k,
                                      checked_up_to=n)
    return CoprimalityWitness(found=False, n=None, k=k,
                              checked_up_to=search_bound)


@dataclass
class ConstructedCoprimality:
    n: int
    k_requested: int
    k_verified: int
    x: int

    def to_dict(self) -> dict:
        return {"n": str(self.n), "k_requested": self.k_requested,
                "k_verified": self.k_verified, "x": self.x}


def coprimality_constructed(f, x: int, seed: int = 0) -> ConstructedCoprimality:
    """Witness built from a sieve-constructed gap using primes in (d, x].

    A shift b emptying [1, L] of the shifted sifted set means every
    index m in [1, L] has some prime p in (d, x] dividing f(n + m) with
    n = -b (mod product of the primes).  Each value is then re-checked
    independently: after stripping all prime factors <= d, a nontrivial
    cofactor must remain, certifying divisibility by a prime > d.  The
    pairwise form (every value sharing its large prime with a partner
    inside the window) needs a window at least twice the largest sieving
    prime, which the available prime density cannot reach at small x, so
    only the per-index check is enforced here; `coprimality_witness`
    performs the full pairwise verification on searched witnesses.
    """
    system = polynomial_system(f)
    poly, d = system.poly, system.poly.degree
    primes = system.active_primes(x, d)
    if not primes:
        raise DomainError(f"no usable primes in ({d}, {x}]")
    shift, L = _greedy_empty_shift(system, primes, x, max(d, 1),
                                   derive_seed(seed, "coprime"))
    if L < 2:
        raise DomainError("constructed gap shorter than 2; x too small")
    b, mod = shift.crt_value()
    n = (-b) % mod
    if n == 0:
        n = mod
    for i in range(1, L + 1):
        if not _has_prime_factor_above(poly(n + i), d):
            raise DomainError(
                f"verification failed: f(n+{i}) has no prime factor > {d}")
    return ConstructedCoprimality(n=n, k_requested=L, k_verified=L, x=x)
