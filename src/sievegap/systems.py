"""Sieving systems: residue tables, densities, periods, classification stats.

A sieving system assigns to each prime p a set of forbidden residue
classes I_p.  Supported kinds:

* ``eratosthenes`` -- I_p = {0} for every p;
* ``polynomial``   -- I_p = roots of an integer-valued polynomial mod p;
* ``table``        -- explicit finite residue table (empty elsewhere).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp, mpf

from .errors import DegenerateSystemError, DomainError
from .primes import is_prime, primes_in_range

SIGMA_PRECISION_BITS = 120      # >= 80-bit significand requirement
BRUTE_ROOT_LIMIT = 100_000      # brute-force root finding cap on p
DRIFT_TOL = 0.1                 # relative last step that flags a drift


# ---------------------------------------------------------------------------
# integer-valued polynomials


class IntPolynomial:
    """Integer-valued polynomial stored as f(n) = sum_j a_j * C(n, j).

    The binomial-basis coefficients a_j are integers exactly when f maps
    the integers to the integers, which is the acceptance test applied by
    :meth:`from_coefficients`.  Evaluation runs Horner's rule on the
    integer standard-basis coefficients of d! * f, computed once here.
    """

    def __init__(self, binomial_coeffs: Sequence[int]):
        coeffs = [int(c) for c in binomial_coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.binomial_coeffs = tuple(coeffs)
        # d! * C(n, j) = (d!/j!) * n (n-1) ... (n-j+1) has integer
        # coefficients, so d! * f does too
        d = self.degree
        fact = math.factorial(d)
        out = [0] * (d + 1)
        for j, a in enumerate(self.binomial_coeffs):
            poly = [1]  # falling factorial n (n-1) ... (n-j+1)
            for i in range(j):
                new = [0] * (len(poly) + 1)
                for k, c in enumerate(poly):
                    new[k + 1] += c
                    new[k] -= i * c
                poly = new
            scale = a * (fact // math.factorial(j))
            for k, c in enumerate(poly):
                out[k] += scale * c
        self._scaled = (tuple(out), fact)

    @property
    def degree(self) -> int:
        return len(self.binomial_coeffs) - 1

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[int | Fraction]) -> "IntPolynomial":
        """Build from standard-basis coefficients [c0, c1, ...] (rationals ok)."""
        cs = [Fraction(c) for c in coeffs]
        if not cs:
            cs = [Fraction(0)]
        d = len(cs) - 1

        def f(n: int) -> Fraction:
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * n + c
            return acc

        binom = []
        for j in range(d + 1):
            a = sum((-1) ** (j - i) * math.comb(j, i) * f(i) for i in range(j + 1))
            if a.denominator != 1:
                raise DomainError(f"polynomial is not integer-valued (a_{j} = {a})")
            binom.append(int(a))
        return cls(binom)

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse e.g. "n^2+1", "x^3 - 2x + 7" or "(n^7-n+7)/7"."""
        s = text.strip().replace(" ", "").replace("x", "n").replace("**", "^")
        denom = 1
        m = re.fullmatch(r"\((?P<body>.+)\)/(?P<d>\d+)", s)
        if m:
            s, denom = m.group("body"), int(m.group("d"))
        s = s.replace("-", "+-")
        coeffs: dict[int, Fraction] = {}
        for term in filter(None, s.split("+")):
            m = re.fullmatch(r"(?P<c>-?\d*)(?P<v>n(\^(?P<e>\d+))?)?", term)
            if not m or (not m.group("c") and not m.group("v")):
                raise DomainError(f"cannot parse polynomial term {term!r}")
            c = m.group("c")
            coef = Fraction(-1 if c == "-" else int(c) if c else 1)
            exp = 0
            if m.group("v"):
                exp = int(m.group("e") or 1)
            coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
        top = max(coeffs) if coeffs else 0
        std = [coeffs.get(i, Fraction(0)) / denom for i in range(top + 1)]
        return cls.from_coefficients(std)

    def __call__(self, n: int) -> int:
        coeffs, fact = self._scaled
        acc = 0
        for c in reversed(coeffs):
            acc = acc * n + c
        return acc // fact

    def scaled_standard_coeffs(self) -> tuple[tuple[int, ...], int]:
        """Return (coeffs of d! * f in the standard basis, d!)."""
        return self._scaled

    def __repr__(self) -> str:
        return f"IntPolynomial(binomial_coeffs={list(self.binomial_coeffs)})"


# ---------------------------------------------------------------------------
# modular root finding


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _roots_brute(poly: IntPolynomial, p: int) -> tuple[int, ...]:
    """All n in [0, p) with poly(n) == 0 mod p, by direct evaluation."""
    d = poly.degree
    if p <= d or p <= 3:
        # tiny modulus: exact integer evaluation (d! may vanish mod p)
        return tuple(n for n in range(p) if poly(n) % p == 0)
    if p > BRUTE_ROOT_LIMIT:
        raise DomainError(
            f"brute-force root finding capped at p <= {BRUTE_ROOT_LIMIT} (got {p})")
    coeffs, _ = poly.scaled_standard_coeffs()
    cm = [c % p for c in coeffs]
    ns = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(cm):
        vals = (vals * ns + c) % p
    return tuple(int(n) for n in np.flatnonzero(vals == 0))


def _roots_quadratic(poly: IntPolynomial, p: int) -> tuple[int, ...]:
    """Fast path for degree-2 polynomials, p odd and p > 2 = degree."""
    c0, c1, c2 = poly.scaled_standard_coeffs()[0]   # 2 f = c2 n^2 + c1 n + c0
    a, b, c = c2 % p, c1 % p, c0 % p
    if a == 0:
        if b == 0:
            return tuple(range(p)) if c == 0 else ()
        return ((-c * pow(b, -1, p)) % p,)
    disc = (b * b - 4 * a * c) % p
    if disc == 0:
        return ((-b * pow(2 * a, -1, p)) % p,)
    r = sqrt_mod_p(disc, p)
    if r is None:
        return ()
    inv = pow(2 * a, -1, p)
    return tuple(sorted({(-b + r) * inv % p, (-b - r) * inv % p}))


# ---------------------------------------------------------------------------
# sieving systems


@dataclass
class DensityReport:
    """Empirical classification statistics for a system at cutoff x."""

    x: int
    sigma: float
    period_bitlength: int
    rho_hat: float
    mertens_track: list[tuple[int, float]]
    flagged_not_one_dimensional: bool = False
    drift_ratio: float = 0.0

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "sigma": self.sigma,
            "period_bitlength": self.period_bitlength,
            "rho_hat": self.rho_hat,
            "mertens_track": [[int(a), float(b)] for a, b in self.mertens_track],
            "flagged_not_one_dimensional": self.flagged_not_one_dimensional,
            "drift_ratio": self.drift_ratio,
        }


class SievingSystem:
    """Residue classes I_p per prime, with metadata.

    ``residues`` is the one source of I_p: it serves each prime from a
    single cache and, on a miss only, checks primality and computes the
    table.  Every count, activity test and degeneracy test reads it.
    """

    def __init__(self, kind: str, *, poly: IntPolynomial | None = None,
                 table: dict[int, tuple[int, ...]] | None = None,
                 small_prime_mode: str = "roots"):
        if kind not in ("eratosthenes", "polynomial", "table"):
            raise DomainError(f"unknown system kind {kind!r}")
        self.kind = kind
        self.poly = poly
        self.table = dict(table) if table else {}
        if kind == "polynomial" and poly is None:
            raise DomainError("polynomial kind requires a polynomial")
        if small_prime_mode not in ("roots", "empty"):
            raise DomainError("small_prime_mode must be 'roots' or 'empty'")
        self.small_prime_mode = small_prime_mode
        self.degree_d = poly.degree if (kind == "polynomial" and poly) else 0
        self.degenerate_primes: set[int] = set()
        self._cache: dict[int, tuple[int, ...]] = {}

    # -- residue tables ----------------------------------------------------

    def _raw_residues(self, p: int) -> tuple[int, ...]:
        if self.kind == "eratosthenes":
            return (0,)
        if self.kind == "table":
            return tuple(sorted(set(self.table.get(p, ()))))
        assert self.poly is not None
        if p <= self.degree_d and self.small_prime_mode == "empty":
            return ()
        if self.degree_d == 2 and p > 2:
            return _roots_quadratic(self.poly, p)
        return _roots_brute(self.poly, p)

    def residues(self, p: int) -> tuple[int, ...]:
        """Sorted forbidden residue set I_p (cached)."""
        res = self._cache.get(p)
        if res is not None:
            return res
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        res = self._raw_residues(p)
        if len(res) == p:
            self.degenerate_primes.add(p)
        self._cache[p] = res
        return res

    def active_primes(self, x: float, z: float = 1) -> list[int]:
        """Primes p in (z, x] with I_p nonempty."""
        return [p for p in map(int, primes_in_range(z, x)) if self.residues(p)]


# ---------------------------------------------------------------------------
# densities and periods


def sigma(system: SievingSystem, z: float, x: float, exact: bool = False):
    """The density product over primes in (z, x].

    Returns an mpmath float carrying a >= 80-bit significand, or an exact
    Fraction when ``exact`` is set.  sigma(1, x) is the sifted-set density.
    """
    if not (1 <= z <= x):
        raise DomainError(f"need 1 <= z <= x, got z={z}, x={x}")
    return _sigma_prefixes(system, system.active_primes(x, z), [x], exact)[0]


def _sigma_prefixes(system: SievingSystem, primes: list[int],
                    cuts: Sequence[float], exact: bool) -> list:
    """Products of (1 - |I_p|/p) over the p <= c of the increasing
    ``primes``, one for each c of the increasing ``cuts``, from one running
    product: each equals the product over its prefix alone, bit for bit."""
    out = []
    i = 0
    with mp.workprec(SIGMA_PRECISION_BITS):
        prod = Fraction(1) if exact else mpf(1)
        for c in cuts:
            while i < len(primes) and primes[i] <= c:
                p = primes[i]
                k = len(system.residues(p))
                if k >= p:
                    raise DegenerateSystemError(p)
                prod *= Fraction(p - k, p) if exact else mpf(p - k) / p
                i += 1
            out.append(prod)
    return out


def _balanced_prod(vals: list[int]) -> int:
    if not vals:
        return 1
    while len(vals) > 1:
        vals = [vals[i] * vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


def period(system: SievingSystem, x: float) -> int:
    """P(x): product of primes p <= x with nonempty I_p."""
    if x < 1:
        raise DomainError("x must be >= 1")
    return _balanced_prod(system.active_primes(x))


def _rho(active: list[int], x: int) -> float:
    return len(active) / (x / math.log(x))


def estimate_rho(system: SievingSystem, x: int) -> float:
    """Empirical support density: #{p <= x : |I_p| >= 1} / (x / log x)."""
    if x < 10:
        raise DomainError("x must be >= 10")
    return _rho(system.active_primes(x), x)


def mertens_fit(system: SievingSystem,
                checkpoints: Sequence[int]) -> DensityReport:
    """Track sigma(x_i) * log(x_i) along increasing checkpoints.

    One walk over the active primes <= x_max gives the track, the period
    and rho_hat.  Flags non-one-dimensional behavior when the track drifts
    monotonically and its last step exceeds ``DRIFT_TOL`` (relative).
    """
    cps = [int(c) for c in checkpoints]
    if not cps or any(c < 100 for c in cps) or sorted(cps) != cps:
        raise DomainError("checkpoints must be increasing and >= 100")
    x = cps[-1]
    active = system.active_primes(x)
    sigmas = _sigma_prefixes(system, active, cps, exact=False)
    with mp.workprec(SIGMA_PRECISION_BITS):
        track = [(cp, float(s * mp.log(cp))) for cp, s in zip(cps, sigmas)]
    final_sigma = float(sigmas[-1])
    drift = 0.0
    flagged = False
    if len(track) >= 2 and track[-2][1] > 0:
        drift = abs(track[-1][1] / track[-2][1] - 1)
        deltas = [b2 - b1 for (_, b1), (_, b2) in zip(track, track[1:])]
        monotone = all(d > 0 for d in deltas) or all(d < 0 for d in deltas)
        flagged = monotone and drift > DRIFT_TOL
    return DensityReport(
        x=x,
        sigma=final_sigma,
        period_bitlength=_balanced_prod(active).bit_length(),
        rho_hat=_rho(active, x),
        mertens_track=track,
        flagged_not_one_dimensional=flagged,
        drift_ratio=drift,
    )


# ---------------------------------------------------------------------------
# construction / serialization helpers


def eratosthenes() -> SievingSystem:
    return SievingSystem("eratosthenes")


def polynomial_system(poly: IntPolynomial | str, *,
                      small_prime_mode: str = "roots") -> SievingSystem:
    if isinstance(poly, str):
        poly = IntPolynomial.parse(poly)
    return SievingSystem("polynomial", poly=poly,
                         small_prime_mode=small_prime_mode)


def twin_system() -> SievingSystem:
    """I_p = {0, p-2 mod p} at every prime p, the roots of n(n+2): a
    two-dimensional (non-one-dimensional) example."""
    return polynomial_system("n^2+2n")


def system_from_spec(spec: str) -> SievingSystem:
    """Resolve a CLI system string: builtin name, poly:<expr>, or a file path."""
    if spec == "eratosthenes":
        return eratosthenes()
    if spec == "twin":
        return twin_system()
    if spec.startswith("poly:"):
        return polynomial_system(spec[5:])
    return load_system_file(spec)


def load_system_file(path: str) -> SievingSystem:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read system file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"system file {path!r} must hold a JSON object")
    kind = data.get("kind")
    if kind == "eratosthenes":
        return eratosthenes()
    if kind == "polynomial":
        try:
            if "binomial_coeffs" in data:
                poly = IntPolynomial(data["binomial_coeffs"])
            elif "coeffs" in data:
                poly = IntPolynomial.from_coefficients(
                    [Fraction(c) if isinstance(c, str) else c
                     for c in data["coeffs"]])
            else:
                raise DomainError(
                    "polynomial file needs binomial_coeffs or coeffs")
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise DomainError(f"polynomial file {path!r} has a malformed "
                              f"coefficient list: {exc}") from exc
        return SievingSystem(
            "polynomial", poly=poly,
            small_prime_mode=data.get("small_prime_mode", "roots"))
    if kind == "table":
        try:
            table = {int(p): tuple(int(r) for r in rs)
                     for p, rs in data["entries"]}
        except (KeyError, ValueError, TypeError) as exc:
            raise DomainError(f"table file {path!r} needs "
                              '"entries": [[p, [r, ...]], ...]') from exc
        for p, rs in table.items():
            if not is_prime(p):
                raise DomainError(f"table modulus {p} is not prime")
            if any(not 0 <= r < p for r in rs):
                raise DomainError(f"residue out of range for p={p}")
        return SievingSystem("table", table=table)
    raise DomainError(f"unknown system kind {kind!r} in {path}")
