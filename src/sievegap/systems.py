"""Sieving systems: residue tables, densities, periods, classification stats.

A sieving system assigns to each prime p a set of forbidden residue
classes I_p.  Supported kinds:

* ``eratosthenes`` -- I_p = {0} for every p;
* ``polynomial``   -- I_p = roots of an integer-valued polynomial mod p;
* ``table``        -- explicit finite residue table (empty elsewhere).
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp

from .errors import DegenerateSystemError, DomainError
from .primes import is_prime, primes_in_range

SIGMA_PRECISION_BITS = 120      # >= 80-bit significand requirement
MAX_ROOT_PRIME = 1 << 31        # residue products stay in int64 below
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


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None when a is not a
    square (Tonelli-Shanks).  A non-square needs no separate test: for
    p = 3 mod 4 its candidate root does not square back to a, and
    otherwise t = a^q starts with the full order 2^s."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:    # Euler's criterion
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_poly(a: list[int], b: list[int],
                 p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b mod p (coefficient lists, lowest
    first, b with a nonzero leading coefficient)."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * inv % p
        q[i - db] = c
        if c:
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return q, _trim(r[:db])


def _gcd_poly(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a (nonzero) and b mod p."""
    while b:
        a, b = b, _divmod_poly(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pow_mod(c: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c^e mod p elementwise, for 0 <= c < p < 2^31 and e >= 0."""
    r = np.ones_like(c)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        r = r * r % p
        r = np.where((e >> bit) & 1 == 1, r * c % p, r)
    return r


def _square_mod(r: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """r^2 mod (f, p), one column per prime.

    r and f have shape (k, n): row j holds the coefficient of x^j, and f
    holds the low coefficients of the monic modulus x^k + f.  Residues
    stay below p < 2^31, so every product fits in int64."""
    k = len(f)
    prod = np.zeros((2 * k - 1, r.shape[1]), dtype=np.int64)
    for i in range(k):
        prod[i:i + k] += r[i] * r % p
    prod %= p
    for t in range(2 * k - 2, k - 1, -1):      # x^t = x^(t-k) (x^k - f)
        prod[t - k:t] -= prod[t] * f % p
        prod[t - k:t] %= p
    return prod[:k]


def _pow_x_plus_a(a: int, e: np.ndarray, f: np.ndarray,
                  p: np.ndarray) -> np.ndarray:
    """(x + a)^e mod (f, p) for every column, e[i] the i-th exponent:
    square and multiply from the top bit, each column taking the
    multiplication where its own exponent has the bit."""
    k, n = f.shape
    r = np.zeros((k, n), dtype=np.int64)
    r[0] = 1
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        r = _square_mod(r, f, p)
        xr = np.zeros_like(r)                  # x r = shift - top * f
        xr[1:] = r[:-1]
        xr = (xr - r[-1] * f % p + a * r) % p
        r = np.where((e >> bit) & 1 == 1, xr, r)
    return r


def _small_roots(g: list[int], p: int) -> list[int] | None:
    """Distinct roots mod an odd prime p of a monic g of degree at most 2,
    by the quadratic formula; None for higher degrees."""
    if len(g) > 3:
        return None
    if len(g) < 3:
        return [-g[0] % p] if len(g) == 2 else []
    b, c = g[1], g[0]
    r = sqrt_mod_p(b * b - 4 * c, p)
    if r is None:
        return []
    half = (p + 1) // 2
    return sorted({(-b + r) * half % p, (-b - r) * half % p})


def _roots_mod_primes(coeffs: Sequence[int],
                      primes: list[int]) -> list[tuple[int, ...]]:
    """Sorted roots mod p of sum_j coeffs[j] x^j, for each of ``primes``.

    Every prime must be odd and below 2^31.  Degree 1 is solved per prime.
    Otherwise f is made monic mod p for all primes at once.  A quadratic
    then has a closed form: Euler's criterion, run on every discriminant
    at once, leaves the quadratic formula only the primes where the
    discriminant is a square.  For higher degrees, x^p mod (f, p) is
    computed by vectorised square and multiply.  Per prime,
    g = gcd(f, x^p - x) is the product of (x - r) over the distinct roots
    r, and Cantor-Zassenhaus rounds split g: round a computes
    (x + a)^((p-1)/2) mod (g, p) for every pending g of one degree at
    once, and gcd(g, that - 1) separates the roots r with r + a a nonzero
    square.  Some a below p splits any two roots, and the roots
    do not depend on the a tried, so a simply counts up from 0.  A prime
    dividing the leading coefficient is solved for the lower-degree
    polynomial, and a prime dividing every coefficient forbids all p
    classes.
    """
    if primes and max(primes) >= MAX_ROOT_PRIME:
        raise DomainError(f"root finding mod p needs p < {MAX_ROOT_PRIME} "
                          f"(got {max(primes)})")
    coeffs = _trim(list(coeffs))
    if len(coeffs) <= 1:
        c = coeffs[0] if coeffs else 0
        return [tuple(range(p)) if c % p == 0 else () for p in primes]
    out: list = [None] * len(primes)
    lead = coeffs[-1]
    low = [i for i, p in enumerate(primes) if lead % p == 0]
    if low:
        sub = _roots_mod_primes(coeffs[:-1], [primes[i] for i in low])
        for i, res in zip(low, sub):
            out[i] = res
    idx = [i for i, p in enumerate(primes) if lead % p]
    qs = [primes[i] for i in idx]
    if len(coeffs) == 2:
        for i, p in zip(idx, qs):
            out[i] = (-coeffs[0] * pow(coeffs[1], -1, p) % p,)
        return out
    if not qs:
        return out
    ps = np.array(qs, dtype=np.int64)
    c = np.array([[coef % p for p in qs] for coef in coeffs], dtype=np.int64)
    f = c[:-1] * _pow_mod(c[-1], ps - 2, ps) % ps
    if len(coeffs) == 3:                       # x^2 + f[1] x + f[0]
        disc = (f[1] * f[1] - 4 * f[0]) % ps
        square = _pow_mod(disc, (ps - 1) // 2, ps) != ps - 1
        for i, p, g, sq in zip(idx, qs, f.T.tolist(), square.tolist()):
            out[i] = tuple(_small_roots(g + [1], p)) if sq else ()
        return out
    h = _pow_x_plus_a(0, ps, f, ps)            # x^p mod (f, p)
    h[1] = (h[1] - 1) % ps
    # (position in qs, monic factor of f whose roots are distinct roots of f)
    todo = [(j, _gcd_poly(fj + [1], _trim(hj), p)) for j, (fj, hj, p)
            in enumerate(zip(f.T.tolist(), h.T.tolist(), qs))]
    roots: list[list[int]] = [[] for _ in qs]
    a = 0
    while todo:
        pending = []
        for j, g in todo:
            rs = _small_roots(g, qs[j])
            if rs is None:
                pending.append((j, g))
            else:
                roots[j] += rs
        todo = []
        for k in sorted({len(g) for _, g in pending}):
            batch = [(j, g) for j, g in pending if len(g) == k]
            ps = np.array([qs[j] for j, _ in batch], dtype=np.int64)
            gl = np.array([g[:-1] for _, g in batch], dtype=np.int64).T
            hs = _pow_x_plus_a(a, (ps - 1) // 2, gl, ps)
            for (j, g), hj in zip(batch, hs.T.tolist()):
                p = qs[j]
                hj[0] = (hj[0] - 1) % p
                g1 = _gcd_poly(g, _trim(hj), p)
                if 1 < len(g1) < len(g):
                    todo += [(j, g1), (j, _divmod_poly(g, g1, p)[0])]
                else:
                    todo.append((j, g))
        a += 1
    for i, rs in zip(idx, roots):
        out[i] = tuple(sorted(rs))
    return out


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


class SievingSystem:
    """Residue classes I_p per prime, with metadata.

    One cache holds I_p.  ``residues`` serves one prime from it and, on
    a miss only, checks primality and computes the table;
    ``active_primes`` computes the tables of all its uncached primes in
    one batch.  Every count, activity test and degeneracy test reads the
    cache through these two.
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
        self._cache: dict[int, tuple[int, ...]] = {}

    # -- residue tables ----------------------------------------------------

    def _raw_residues(self, primes: list[int]) -> list[tuple[int, ...]]:
        """I_p for each of ``primes``; polynomial roots for every prime
        above max(d, 3) are found together."""
        if self.kind == "eratosthenes":
            return [(0,)] * len(primes)
        if self.kind == "table":
            return [tuple(sorted(set(self.table.get(p, ())))) for p in primes]
        assert self.poly is not None
        poly, d = self.poly, self.degree_d
        out: dict[int, tuple[int, ...]] = {}
        batch = []
        for p in primes:
            if p <= d and self.small_prime_mode == "empty":
                out[p] = ()
            elif p <= max(d, 3):
                # tiny modulus: exact evaluation (d! may vanish mod p)
                out[p] = tuple(n for n in range(p) if poly(n) % p == 0)
            else:
                batch.append(p)
        if batch:
            coeffs = poly.scaled_standard_coeffs()[0]
            out.update(zip(batch, _roots_mod_primes(coeffs, batch)))
        return [out[p] for p in primes]

    def _store(self, primes: list[int]) -> list[tuple[int, ...]]:
        """Compute and cache I_p for ``primes``, all prime."""
        tables = self._raw_residues(primes)
        self._cache.update(zip(primes, tables))
        return tables

    def residues(self, p: int) -> tuple[int, ...]:
        """Sorted forbidden residue set I_p (cached)."""
        res = self._cache.get(p)
        if res is not None:
            return res
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        return self._store([p])[0]

    def active_primes(self, x: float, z: float = 1) -> list[int]:
        """Primes p in (z, x] with I_p nonempty; the tables of all those
        not yet cached are computed in one batch."""
        primes = primes_in_range(z, x).tolist()
        cache = self._cache
        missing = [p for p in primes if p not in cache]
        if missing:
            self._store(missing)
        return [p for p in primes if cache[p]]


# ---------------------------------------------------------------------------
# densities and periods


def sigma(system: SievingSystem, z: float, x: float, exact: bool = False):
    """The density product over primes in (z, x].

    Returns an mpmath float carrying a >= 80-bit significand, or an exact
    Fraction when ``exact`` is set.  sigma(1, x) is the sifted-set density.
    """
    if not (1 <= z <= x):
        raise DomainError(f"need 1 <= z <= x, got z={z}, x={x}")
    primes = system.active_primes(x, z)
    return _sigma_prefixes(system, primes, [x], exact)[0][0]


def _sigma_prefixes(system: SievingSystem, primes: list[int],
                    cuts: Sequence[float], exact: bool) -> tuple[list, int]:
    """Products of (1 - |I_p|/p) over the p <= c of the increasing
    ``primes``, one for each c of the increasing ``cuts``, and prod p
    over the p <= the last cut.

    Each is the ratio of the exact integers prod (p - |I_p|) and prod p,
    multiplied segment by segment between cuts; it is divided once to
    SIGMA_PRECISION_BITS, or kept as a Fraction when ``exact`` is set."""
    out = []
    num = den = 1
    i = 0
    for c in cuts:
        j = bisect.bisect_right(primes, c, i)
        seg = primes[i:j]
        kept = [p - len(system.residues(p)) for p in seg]
        bad = next((p for p, k in zip(seg, kept) if k <= 0), None)
        if bad is not None:
            raise DegenerateSystemError(bad)
        num *= _balanced_prod(kept)
        den *= _balanced_prod(seg)
        i = j
        if exact:
            out.append(Fraction(num, den))
            continue
        # num / den <= 1, and the quotient below has at least
        # SIGMA_PRECISION_BITS + 2 bits, so flooring it costs under one
        # ulp; mpf(num) alone would take about 1 s at x = 10^6
        shift = den.bit_length() - num.bit_length() + SIGMA_PRECISION_BITS + 2
        with mp.workprec(SIGMA_PRECISION_BITS):
            out.append(mp.ldexp((num << shift) // den, -shift))
    return out, den


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
    (the denominator of the last sigma) and rho_hat.  Flags
    non-one-dimensional behavior when the track drifts monotonically and
    its last step exceeds ``DRIFT_TOL`` (relative).
    """
    cps = [int(c) for c in checkpoints]
    if not cps or any(c < 100 for c in cps) or sorted(cps) != cps:
        raise DomainError("checkpoints must be increasing and >= 100")
    x = cps[-1]
    active = system.active_primes(x)
    sigmas, period_x = _sigma_prefixes(system, active, cps, exact=False)
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
        period_bitlength=period_x.bit_length(),
        rho_hat=_rho(active, x),
        mertens_track=track,
        flagged_not_one_dimensional=flagged,
        drift_ratio=drift,
    )


# ---------------------------------------------------------------------------
# construction / serialization helpers


def eratosthenes() -> SievingSystem:
    return SievingSystem("eratosthenes")


def polynomial_system(poly: IntPolynomial | str) -> SievingSystem:
    if isinstance(poly, str):
        poly = IntPolynomial.parse(poly)
    return SievingSystem("polynomial", poly=poly)


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
