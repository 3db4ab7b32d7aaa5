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
from mpmath import mp

from .errors import DegenerateSystemError, DomainError
from .primes import is_prime, primes_in_range

SIGMA_PRECISION_BITS = 120      # >= 80-bit significand requirement
MAX_ROOT_PRIME = 1 << 31        # residue products stay in int64 below
DRIFT_TOL = 0.1                 # relative last step that flags a drift
Classes = tuple[np.ndarray, np.ndarray]  # int64 (p, r), sorted by p, then r


# ---------------------------------------------------------------------------
# integer-valued polynomials


class IntPolynomial:
    """Integer-valued polynomial stored as f(n) = sum_j a_j * C(n, j).

    The binomial-basis coefficients a_j are integers exactly when f maps
    the integers to the integers, which is the acceptance test applied by
    :meth:`from_coefficients`.  Evaluation runs Horner's rule on the
    integer standard-basis coefficients of d! * f, computed once here;
    it also runs elementwise on a numpy array of n, exactly while d! * f
    stays within the array's dtype.
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


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _degrees(a: np.ndarray) -> np.ndarray:
    """The degree of every column of a (row j the coefficient of x^j),
    -1 for a zero column."""
    rank = np.arange(1, len(a) + 1)[:, None] * (a != 0)
    return rank.max(axis=0, initial=0) - 1


def _inverse(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c^-1 mod p elementwise for c != 0 mod p: Fermat's c^(p-2), taken
    only where c is not 1."""
    inv = np.ones_like(c)
    m = np.flatnonzero(c != 1)
    inv[m] = _pow_mod(c[m], p[m] - 2, p[m])
    return inv


def _divmod_columns(a: np.ndarray, b: np.ndarray,
                    p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-quotient q and pseudo-remainder r of a by b mod p in every
    column: lc(b)^(e+1) a = q b + r with deg r < deg b, for e = deg a -
    deg b, which is plain division where b is monic.

    a is (k, n) and b is (m, n), row j the coefficient of x^j and column
    i reduced mod the odd prime p[i] < 2^31; q has max(e) + 1 rows and r
    has k.  A column with e < 0, b = 0 among them, gives q = 0 and r = a.
    b x^e is aligned with a once per column, so step s eliminates the
    coefficient of x^(deg a - s) in every column with s <= e by one row
    operation, r -> lc(b) r - r_top b x^(e-s), which takes no inverse."""
    k, n = a.shape
    da, db = _degrees(a), _degrees(b)
    e = np.where(db >= 0, da - db, -1)
    cols = np.arange(n)
    lead = b[np.maximum(db, 0), cols]
    r, shifted = a.copy(), np.zeros_like(a)    # shifted: b x^e
    q = np.zeros((e.max(initial=-1) + 1, n), dtype=np.int64)
    groups = [(v, e == v) for v in np.unique(e[e >= 0]).tolist()]
    for v, m in groups:
        shifted[v:v + len(b), m] = b[:k - v, m]
    for s in range(len(q)):                    # q[s]: coefficient of x^(e-s)
        on = s <= e
        top = r[np.where(on, da - s, 0), cols] * on
        scale = np.where(on, lead, 1)
        r[:k - s] *= scale
        r[:k - s] -= top * shifted[s:]
        r[:k - s] %= p
        q[:s] *= scale
        q[:s] %= p
        q[s] = top
    for v, m in groups:                        # low coefficient first
        q[:v + 1, m] = q[v::-1, m]
    return q, r


def _gcd_columns(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The monic gcd mod p of a and b in every column, laid out as
    :func:`_divmod_columns` takes them (a zero column where both are).

    Euclid's algorithm on pseudo-remainders runs on the columns whose
    divisor is not yet zero, trimmed to the rows their degrees use.  A
    pseudo-remainder is a unit times the remainder, so one inverse per
    column, where the last divisor is not monic, ends the gcd."""
    g = np.zeros((max(len(a), len(b)), a.shape[1]), dtype=np.int64)
    left = np.arange(a.shape[1])
    while left.size:
        db = _degrees(b)
        done = db < 0
        g[:len(a), left[done]] = a[:, done]
        left, keep = left[~done], np.flatnonzero(~done)
        top = int(db.max(initial=-1))
        a, b = a[:, keep], b[:top + 1, keep]
        a, b = b, _divmod_columns(a, b, p[left])[1][:top]
    d = _degrees(g)
    return g * _inverse(g[np.maximum(d, 0), np.arange(len(p))], p) % p


def _pow_mod(c: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c^e mod p elementwise, for 0 <= c < p < 2^31 and e >= 0."""
    r = np.ones_like(c)
    for bit in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
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
        prod[t - k:t] -= prod[t] * f
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
    for bit in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        r = _square_mod(r, f, p)
        xr = np.zeros_like(r)                  # x r = shift - top * f
        xr[1:] = r[:-1]
        xr = (xr - r[-1] * f + a * r) % p
        r = np.where((e >> bit) & 1 == 1, xr, r)
    return r


def _sqrt_mod(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A square root of a mod p elementwise (Tonelli-Shanks), for odd
    primes p < 2^31 and squares 0 <= a < p.

    With p - 1 = q 2^s and w = a^((q-1)/2), r = a w has r^2 = a t for
    t = a^q, of order dividing 2^(s-1).  Step i < s halves that bound:
    where t^(2^(s-1-i)) = -1, r takes a factor b and t takes b^2, for b
    = c^(2^(i-1)) and c = z^q, z the least non-square.  Only primes with
    t != 1 and steps left take part, so p = 3 mod 4 (s = 1) takes none."""
    two_s = (p - 1) & (1 - p)
    w = _pow_mod(a, (p - 1) // two_s // 2, p)
    root = a * w % p
    t = root * w % p
    j = np.flatnonzero(t > 1)                  # t = 0 only where a = 0
    p, two_s, t, r = p[j], two_s[j], t[j], root[j]
    z, k = np.full_like(p, 2), np.arange(len(p))
    while k.size:                              # Euler's criterion
        k = k[_pow_mod(z[k], (p[k] - 1) // 2, p[k]) != p[k] - 1]
        z[k] += 1 + z[k] % 2                   # the least non-square is prime
    b = _pow_mod(z, (p - 1) // two_s, p)
    for i in range(1, int(two_s.max(initial=1)).bit_length() - 1):
        keep = two_s >> i > 1                  # i < s
        j, p, two_s, t, r, b = (v[keep] for v in (j, p, two_s, t, r, b))
        k = np.flatnonzero(_pow_mod(t, two_s >> (i + 1), p) == p - 1)
        r[k] = r[k] * b[k] % p[k]
        b = b * b % p
        t[k] = t[k] * b[k] % p[k]
        root[j] = r
    return root


def _low_roots(f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct roots mod p of the monic x^k + sum_j f[j] x^j, k =
    len(f) <= 2, one column of f per odd prime p < 2^31, as arrays of
    (column, root) pairs: -f[0] at degree 1, and at degree 2 the
    quadratic formula with :func:`_sqrt_mod` on the columns where
    Euler's criterion finds the discriminant a square."""
    if len(f) == 1:
        return np.arange(len(p)), -f[0] % p
    disc = (f[1] * f[1] - 4 * f[0]) % p
    sq = np.flatnonzero(_pow_mod(disc, (p - 1) // 2, p) != p - 1)
    b, q = f[1][sq], p[sq]
    r, half = _sqrt_mod(disc[sq], q), (q + 1) // 2
    two = r > 0                                # a nonzero discriminant
    return (np.concatenate([sq, sq[two]]),
            np.concatenate([(r - b) * half % q, ((-r - b) * half % q)[two]]))


def _cz_roots(f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct roots mod p of the monic x^k + sum_j f[j] x^j, k =
    len(f) >= 3, as :func:`_low_roots` gives them.

    Every polynomial is a column, one per prime, as in
    :func:`_divmod_columns`.  g = gcd(f, x^p - x), with x^p mod (f, p)
    from vectorised square and multiply, is the product of (x - r) over
    the distinct roots r, taken for all primes by one
    :func:`_gcd_columns`.  Cantor-Zassenhaus round a splits every
    pending factor g of one degree >= 3 at once: g1 = gcd(g, (x +
    a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero square, and
    where it is proper, g1 and g / g1 replace g.  Some a below p splits
    any two roots, so a counts up from 0 and raises an internal error on
    reaching p.  Factors of degree 1 and 2 are solved after the last
    round, one :func:`_low_roots` call per degree."""
    h = _pow_x_plus_a(0, p, f, p)              # x^p mod (f, p)
    h[1] = (h[1] - 1) % p
    g = _gcd_columns(np.vstack([f, np.ones_like(p)]), h, p)
    col, deg = np.arange(len(p)), _degrees(g)
    found = {1: [], 2: []}      # degree -> (column, low coefficients) parts
    a = 0
    while True:
        for k, parts in found.items():
            parts.append((col[deg == k], g[:k, deg == k]))
        if not (deg > 2).any():
            break
        if p[col[deg > 2]].min() <= a:
            raise DomainError(f"internal error: no a < p splits a factor "
                              f"mod p = {p[col[deg > 2]].min()}")
        split = []
        for k in np.unique(deg[deg > 2]).tolist():
            j, gk = col[deg == k], g[:k + 1, deg == k]
            q = p[j]
            hk = _pow_x_plus_a(a, (q - 1) // 2, gk[:k], q)
            hk[0] = (hk[0] - 1) % q
            g1 = _gcd_columns(gk, hk, q)
            d1 = _degrees(g1)
            s = (d1 > 0) & (d1 < k)
            split += [(j[~s], gk[:, ~s]), (j[s], g1[:, s]),
                      (j[s], _divmod_columns(gk[:, s], g1[:, s], q[s])[0])]
        col, g = _join(split)
        deg = _degrees(g)
        a += 1
    pairs = []
    for k, parts in found.items():
        j, gk = _join(parts)
        c, root = _low_roots(gk[:k], p[j])
        pairs.append((j[c], root))
    return tuple(np.concatenate(v) for v in zip(*pairs))


def _join(parts: list[tuple[np.ndarray, np.ndarray]]
          ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (column, polynomial) parts, the polynomials padded with
    zero rows to the longest."""
    rows = max(len(g) for _, g in parts)
    return (np.concatenate([j for j, _ in parts]),
            np.hstack([np.pad(g, ((0, rows - len(g)), (0, 0)))
                       for _, g in parts]))


def _residues(coeffs: Sequence[int], p: np.ndarray) -> np.ndarray:
    """coeffs[j] mod p[i] at row j and column i: Horner over the 31-bit
    limbs of |c|, most significant first, so integers of any size take
    one path."""
    mag = [abs(c) for c in coeffs]
    n = max(1, -(-max(m.bit_length() for m in mag) // 31))
    limbs = np.array([[m >> 31 * i & 0x7FFFFFFF for i in range(n - 1, -1, -1)]
                      for m in mag], dtype=np.int64)
    r = np.zeros((len(coeffs), len(p)), dtype=np.int64)
    for limb in limbs.T:                       # r < 2^31, so r 2^31 + limb < 2^63
        r = ((r << 31) + limb[:, None]) % p
    neg = np.array([c < 0 for c in coeffs])
    r[neg] = -r[neg] % p
    return r


def _roots_mod_primes(coeffs: Sequence[int], primes: np.ndarray) -> Classes:
    """Every root mod p of sum_j coeffs[j] x^j, for each of the distinct
    ``primes``, as int64 arrays (p, r) sorted by p and then r.

    Every prime must be odd and below 2^31.  The coefficients are
    reduced and f made monic mod all primes at once, and f is solved by
    :func:`_low_roots` at degree 1 and 2, by :func:`_cz_roots` above.  A
    prime dividing the leading coefficient is solved for the
    lower-degree polynomial, and a prime dividing every coefficient
    forbids all p classes.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if primes.max(initial=0) >= MAX_ROOT_PRIME:
        raise DomainError(f"root finding mod p needs p < {MAX_ROOT_PRIME} "
                          f"(got {primes.max()})")
    coeffs = _trim(list(coeffs)) or [0]
    c = _residues(coeffs, primes)
    if len(coeffs) == 1:
        ps = primes[c[0] == 0]
        p = np.repeat(ps, ps)
        return p, np.arange(len(p)) - np.repeat(np.cumsum(ps) - ps, ps)
    low = c[-1] == 0
    ps, c = primes[~low], c[:, ~low]
    f = c[:-1] * _inverse(c[-1], ps) % ps
    col, root = (_low_roots if len(f) <= 2 else _cz_roots)(f, ps)
    sub = _roots_mod_primes(coeffs[:-1], primes[low]) if low.any() \
        else (primes[:0], primes[:0])
    p, r = np.concatenate([ps[col], sub[0]]), np.concatenate([root, sub[1]])
    order = np.lexsort((r, p))
    return p[order], r[order]


def _columns(pairs: list[tuple[int, int]]) -> Classes:
    return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)


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

    One class table holds every class (p, r), r in I_p, of every prime
    up to a bound, sorted by p and then r.  ``classes`` raises the bound
    to x with one batch over the new primes (so a first request for a far
    range computes every prime below it too) and returns the slice that
    every layer reads; ``residue_tables`` computes classes without it.
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
        self._p = self._r = np.zeros(0, dtype=np.int64)
        self._upto = 1.0

    # -- residue tables ----------------------------------------------------

    def residue_tables(self, primes: np.ndarray) -> Classes:
        """The classes of the increasing ``primes``, all prime, as
        ``classes`` gives them but without the table; polynomial roots
        for every prime above max(d, 3) are found together.

        At p <= max(d, 3), f mod p can lack period p, as (n^2 + n)/2 does
        at 2, so r is in I_p only when p divides f on the whole class
        r mod p.  f(r + kp) is integer-valued of degree <= d in k, so its
        values at k = 0..d decide that.
        """
        primes = np.asarray(primes, dtype=np.int64)
        if self.kind == "eratosthenes":
            return primes, np.zeros_like(primes)
        if self.kind == "table":
            return _columns([(p, r) for p in primes.tolist()
                             for r in sorted(set(self.table.get(p, ())))])
        assert self.poly is not None
        poly, d = self.poly, self.degree_d
        p0, r0 = _columns([
            (p, r) for p in primes[primes <= max(d, 3)].tolist()
            if p > d or self.small_prime_mode == "roots" for r in range(p)
            if all(poly(r + k * p) % p == 0 for k in range(d + 1))])
        p1, r1 = _roots_mod_primes(poly.scaled_standard_coeffs()[0],
                                   primes[primes > max(d, 3)])
        return np.concatenate([p0, p1]), np.concatenate([r0, r1])

    def classes(self, x: float, z: float = 1) -> Classes:
        """The classes (p, r), r in I_p, p in (z, x], sorted by p and then r:
        read-only int64 views of the table, after one batch extends it."""
        if self.kind == "polynomial" and x >= MAX_ROOT_PRIME:
            raise DomainError(f"root finding mod p needs p < "
                              f"{MAX_ROOT_PRIME} (got x = {x})")
        if not x <= self._upto:                # a NaN x fails in the sieve
            p, r = self.residue_tables(primes_in_range(self._upto, x))
            self._p = np.concatenate([self._p, p])
            self._r = np.concatenate([self._r, r])
            self._p.flags.writeable = self._r.flags.writeable = False
            self._upto = x
        lo, hi = (self._p.searchsorted(c, "right") for c in (z, x))
        return self._p[lo:hi], self._r[lo:hi]

    def residues(self, p: int) -> tuple[int, ...]:
        """Sorted forbidden residue set I_p: the table's slice, or above its
        bound I_p computed alone, leaving the table unchanged."""
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        lo, hi = self._p.searchsorted(p), self._p.searchsorted(p, "right")
        r = self._r[lo:hi] if p <= self._upto else self.residue_tables([p])[1]
        return tuple(r.tolist())

    def least_classes(self, x: float, z: float = 1) -> Classes:
        """The primes p in (z, x] with I_p nonempty, and min I_p of each."""
        p, r = self.classes(x, z)
        first = np.concatenate(([True], p[1:] != p[:-1]))[:len(p)]
        return p[first], r[first]

    def active_primes(self, x: float, z: float = 1) -> list[int]:
        """Primes p in (z, x] with I_p nonempty."""
        return self.least_classes(x, z)[0].tolist()


# ---------------------------------------------------------------------------
# densities and periods


def sigma(system: SievingSystem, z: float, x: float, exact: bool = False):
    """The density product over primes in (z, x].

    Returns an mpmath float carrying a >= 80-bit significand, or an exact
    Fraction when ``exact`` is set.  sigma(1, x) is the sifted-set density.
    """
    if not (1 <= z <= x):
        raise DomainError(f"need 1 <= z <= x, got z={z}, x={x}")
    return _sigma_prefixes(system, z, [x], exact)[0][0]


def _sigma_prefixes(system: SievingSystem, z: float, cuts: Sequence[float],
                    exact: bool) -> tuple[list, int]:
    """Products of (1 - |I_p|/p) over the primes p in (z, c], one for each
    c of the increasing ``cuts``, and prod p over the active primes in
    (z, the last cut].

    Each is the ratio of the exact integers prod (p - |I_p|) and prod p,
    multiplied segment by segment between cuts; it is divided once to
    SIGMA_PRECISION_BITS, or kept as a Fraction when ``exact`` is set."""
    primes, sizes = np.unique(system.classes(cuts[-1], z)[0],
                              return_counts=True)
    if (primes <= sizes).any():
        raise DegenerateSystemError(int(primes[primes <= sizes][0]))
    ends = primes.searchsorted(cuts, "right").tolist()
    primes, kept = primes.tolist(), (primes - sizes).tolist()
    out = []
    num = den = 1
    i = 0
    for j in ends:
        num *= _balanced_prod(kept[i:j])
        den *= _balanced_prod(primes[i:j])
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
    sigmas, period_x = _sigma_prefixes(system, 1, cps, exact=False)
    with mp.workprec(SIGMA_PRECISION_BITS):
        track = [(cp, float(s * mp.log(cp))) for cp, s in zip(cps, sigmas)]
    drift = 0.0
    flagged = False
    if len(track) >= 2 and track[-2][1] > 0:
        drift = abs(track[-1][1] / track[-2][1] - 1)
        deltas = [b2 - b1 for (_, b1), (_, b2) in zip(track, track[1:])]
        monotone = all(d > 0 for d in deltas) or all(d < 0 for d in deltas)
        flagged = monotone and drift > DRIFT_TOL
    return DensityReport(
        x=x,
        sigma=float(sigmas[-1]),
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
            entries = [(int(p), tuple(int(r) for r in rs))
                       for p, rs in data["entries"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise DomainError(f"table file {path!r} needs "
                              '"entries": [[p, [r, ...]], ...]') from exc
        table: dict[int, tuple[int, ...]] = {}
        for p, rs in entries:
            if p in table:
                raise DomainError(f"table file {path!r} lists p={p} twice")
            if not is_prime(p):
                raise DomainError(f"table modulus {p} is not prime")
            if any(not 0 <= r < p for r in rs):
                raise DomainError(f"residue out of range for p={p}")
            table[p] = rs
        return SievingSystem("table", table=table)
    raise DomainError(f"unknown system kind {kind!r} in {path}")
