"""Sieving systems: residue tables, density products, classification."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import binomial_eval, brute_roots, random_table_system
from mpmath import mp

from sievegap import primes, systems
from sievegap.cli import dispatch
from sievegap.errors import DomainError
from sievegap.primes import is_prime, primes_in_range, primes_upto
from sievegap.systems import (SIGMA_PRECISION_BITS, IntPolynomial,
                              SievingSystem, eratosthenes, estimate_rho,
                              mertens_fit, period, polynomial_system, sigma,
                              system_from_spec, twin_system)

N2P1 = polynomial_system("n^2+1")


# ---------------------------------------------------------------------------
# residue tables


def test_eratosthenes_residues():
    era = eratosthenes()
    for p in (2, 3, 5, 7, 97):
        assert era.residues(p) == (0,)
        assert len(era.residues(p)) == 1


def test_n2p1_residue_examples():
    assert N2P1.residues(3) == ()
    assert N2P1.residues(5) == (2, 3)
    assert N2P1.residues(2) == (1,)


def test_residues_require_prime():
    with pytest.raises(DomainError):
        eratosthenes().residues(6)


@pytest.mark.parametrize("spec", ["eratosthenes", "twin", "poly:n^3+2"])
def test_residues_above_the_bound_leave_the_table_alone(spec):
    """A prime above the table's bound is solved alone: the bound and
    both arrays stay the same objects, and a later fill agrees with it.
    A composite is refused below and above the bound."""
    sys_ = system_from_spec(spec)
    sys_.classes(100)
    p0, r0 = sys_._p, sys_._r

    def unchanged():
        return sys_._upto == 100 and sys_._p is p0 and sys_._r is r0

    far = 10 ** 9 + 7 if spec == "eratosthenes" else 100_003
    alone = sys_.residues(far)
    assert alone == _expected_classes(sys_, far) and unchanged()
    for q in (6, 91, 3 * far):
        with pytest.raises(DomainError, match="is not prime"):
            sys_.residues(q)
    assert unchanged()
    if spec != "eratosthenes":
        p, r = sys_.classes(far, far - 1)
        assert sys_.residues(far) == alone == tuple(r.tolist())


def test_polynomial_root_count_bounded_by_degree():
    polys = ["n^2+1", "n^3-2n+7", "(n^7-n+7)/7", "n^4+n+1"]
    for text in polys:
        sys_ = polynomial_system(text)
        d = sys_.degree_d
        for p in (int(q) for q in primes_upto(200)):
            if p > d:
                assert len(sys_.residues(p)) <= d


def test_residues_match_bruteforce_random_pairs():
    rng = random.Random(20240817)
    primes = [int(p) for p in primes_upto(997)]
    for _ in range(100):
        d = rng.randint(1, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(d)] + [rng.randint(1, 20)]
        poly = IntPolynomial.from_coefficients(coeffs)
        sys_ = polynomial_system(poly)
        p = rng.choice(primes)
        brute = tuple(n for n in range(p) if binomial_eval(poly, n) % p == 0)
        if len(brute) == p:
            continue  # degenerate at p; flag tested elsewhere
        assert sys_.residues(p) == brute


def test_quadratic_fast_path_matches_bruteforce():
    rng = random.Random(7)
    primes = [int(p) for p in primes_upto(500) if p > 2]
    cases = [([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)],
              rng.choice(primes)) for _ in range(50)]
    # p = 3 divides the leading coefficient of 2f: 3n^2+n+1 has the one
    # root 2, 3n^2+1 none, and 3n^2+3n+3 all three classes (degenerate)
    cases += [([1, 1, 3], 3), ([1, 0, 3], 3), ([3, 3, 3], 3)]
    for coeffs, p in cases:
        poly = IntPolynomial.from_coefficients(coeffs)
        brute = tuple(n for n in range(p) if binomial_eval(poly, n) % p == 0)
        sys_ = polynomial_system(poly)
        assert sys_.residues(p) == brute
    assert brute == (0, 1, 2)          # so the last case is degenerate


# n^3-n splits completely at every prime; 7n^3+n+1 loses its leading
# coefficient at 7, where its root is that of n+1; 5n^3+5 vanishes at 5.
# Quadratics take the closed form: n^2+2n is twin, 5n^2+n+1 loses its
# leading coefficient at 5, 4n^2+4n+1 = (2n+1)^2 has a double root, and
# (n^2+n)/2 is scaled by d! = 2.
QUADRATICS = ["n^2+1", "n^2+2n", "3n^2+5n+7", "5n^2+n+1", "4n^2+4n+1",
              "(n^2+n)/2"]
BATCH_POLYS = ["n^3+2", "n^3-n", "n^4+n+7", "n^5-3n+1", "7n^3+n+1",
               "5n^3+5"] + QUADRATICS


@pytest.mark.parametrize("text", BATCH_POLYS)
def test_active_primes_batch_matches_evaluation_oracle(text):
    sys_ = polynomial_system(text)
    primes = [int(p) for p in primes_upto(20_000)]
    active = sys_.active_primes(20_000)
    want = {p: brute_roots(sys_.poly, p) for p in primes}
    assert active == [p for p in primes if want[p]]
    assert all(sys_.residues(p) == want[p] for p in primes)


def test_batch_special_primes():
    assert polynomial_system("n^3-n").residues(19_997) == (0, 1, 19_996)
    assert polynomial_system("7n^3+n+1").residues(7) == (6,)
    five = polynomial_system("5n^3+5")
    assert five.residues(5) == (0, 1, 2, 3, 4)


def test_raising_the_bound_runs_one_batch_over_the_new_primes(monkeypatch):
    """The table is a prefix of the primes: each x above its bound runs
    one root-finding batch over the primes of (bound, x], and every
    request at or below the bound runs none."""
    calls = []
    batch = systems._roots_mod_primes

    def counted(coeffs, primes):
        calls.append(np.asarray(primes).tolist())
        return batch(coeffs, primes)

    monkeypatch.setattr(systems, "_roots_mod_primes", counted)
    sys_ = polynomial_system("n^3+2")
    sys_.active_primes(1_000, 500)
    assert calls == [primes_in_range(3, 1_000).tolist()]
    sys_.classes(1_000)
    sys_.least_classes(700, 24.3)
    sys_.active_primes(2)
    assert sys_.residues(101) == brute_roots(sys_.poly, 101)
    assert len(calls) == 1
    sys_.classes(3_000.5, 2_000)
    assert calls[1:] == [primes_in_range(1_000, 3_000.5).tolist()]
    sys_.classes(3_000, 5)
    sys_.active_primes(3_000.5)
    assert len(calls) == 2 and sys_._upto == 3_000.5
    p, r = sys_.classes(3_000.5)
    want = [(q, s) for q in primes_upto(3_000).tolist()
            for s in brute_roots(sys_.poly, q)]
    assert list(zip(p.tolist(), r.tolist())) == want


@pytest.mark.parametrize("spec", ["table", "eratosthenes", "twin",
                                  "poly:n^3+2"])
def test_an_extension_adding_no_prime_keeps_the_table(spec):
    """x = 1.5 on a fresh system, and an x between two primes, raise the
    bound without adding a class, and return empty int64 slices; a NaN x
    is refused and leaves the bound."""
    sys_ = random_table_system(random.Random(5), prime_cap=100) \
        if spec == "table" else system_from_spec(spec)
    bound = 1
    for x, z in [(1.5, 1), (24.3, 1), (28.5, 24.3), (28, 23)]:
        p, r = sys_.classes(x, z)
        bound = max(bound, x)
        assert p.dtype == r.dtype == np.int64 and sys_._upto == bound
        got = list(zip(p.tolist(), r.tolist()))
        assert got == [(q, s) for q in primes_in_range(z, x).tolist()
                       for s in _expected_classes(sys_, q)]
        assert x != 28.5 or got == []
    assert not sys_._p.flags.writeable and not sys_._r.flags.writeable
    with pytest.raises(ValueError):
        sys_.classes(float("nan"))
    assert sys_._upto == 28.5


def _expected_classes(sys_, q):
    if sys_.kind == "polynomial":
        return brute_roots(sys_.poly, q)
    if sys_.kind == "table":
        return tuple(sorted(set(sys_.table.get(q, ()))))
    return (0,)


@pytest.mark.parametrize("spec", ["table", "eratosthenes", "twin"]
                         + [f"poly:{t}" for t in BATCH_POLYS])
def test_classes_equal_flattened_residues(spec):
    """classes(x, z) is the flattening of residues(p) over the primes of
    (z, x], after single primes read above the table's bound, over a
    range missing one prime (499) and over ranges holding inactive
    primes."""
    rng = random.Random(spec)
    sys_ = random_table_system(rng, prime_cap=400) if spec == "table" \
        else system_from_spec(spec)
    for q in (2_999, 101, 7, 2, 3_001):
        assert sys_.residues(q) == _expected_classes(sys_, q)
    for x, z in [(50, 1), (1_000, 500), (1_000, 496), (600, 40.5),
                 (3_000, 1), (2, 1), (3_100, 2_999), (100, 100)]:
        p, r = sys_.classes(x, z)
        assert p.dtype == r.dtype == np.int64
        got = list(zip(p.tolist(), r.tolist()))
        qs = primes_in_range(z, x).tolist()
        assert got == [(q, s) for q in qs for s in sys_.residues(q)]
        assert got == [(q, s) for q in qs for s in _expected_classes(sys_, q)]
        assert sys_.active_primes(x, z) == sorted(set(p.tolist()))


@pytest.mark.parametrize("text,sympy_text", [
    ("n^3+2", "n**3+2"), ("n^4+n+7", "n**4+n+7"),
    ("n^5-3n+1", "n**5-3*n+1"), ("7n^3+n+1", "7*n**3+n+1")])
def test_roots_near_1e6_and_1e7_match_sympy(text, sympy_text):
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.residue_ntheory import polynomial_congruence
    expr = sympy.sympify(sympy_text)
    primes = [int(p) for p in primes_in_range(10 ** 6 - 200, 10 ** 6)]
    primes += [p for p in range(10 ** 7, 10 ** 7 + 200) if is_prime(p)]
    got, roots = polynomial_system(text).residue_tables(primes)
    for p in primes:
        want = tuple(sorted(polynomial_congruence(expr, p)))
        assert tuple(roots[got == p].tolist()) == want, (text, p)


@pytest.mark.parametrize("text", QUADRATICS)
def test_quadratic_roots_near_1e6_match_numpy_evaluation(text):
    """The closed form for about 30 primes near 10^6, found in one batch,
    against f evaluated on every class mod p."""
    sys_ = polynomial_system(text)
    primes = [int(p) for p in primes_in_range(10 ** 6 - 500, 10 ** 6)]
    assert len(primes) >= 30
    got, roots = sys_.residue_tables(primes)
    for p in primes:
        assert tuple(roots[got == p].tolist()) == brute_roots(sys_.poly, p), \
            (text, p)


# found with is_prime: sieving up to 2^31 would take a 2 GiB flag array
NEAR_2_31 = [p for p in range((1 << 31) - 3000, 1 << 31) if is_prime(p)]


def test_sqrt_mod_matches_squares():
    """A root of every square mod every odd prime below 300, p = 1 and 3
    mod 4, including p = 1 mod 8 where Tonelli-Shanks takes more than one
    step, and of random squares mod the primes just below 2^31."""
    for p in (int(p) for p in primes_in_range(2, 300)):
        a = np.array(sorted({n * n % p for n in range(p)}), dtype=np.int64)
        r = systems._sqrt_mod(a, np.full_like(a, p))
        assert ((0 <= r) & (r < p) & (r * r % p == a)).all(), p
    rng = random.Random(31)
    ps = np.array(NEAR_2_31 * 4, dtype=np.int64)
    a = np.array([rng.randrange(p) ** 2 % p for p in ps.tolist()])
    r = systems._sqrt_mod(a, ps)
    assert ((0 <= r) & (r < ps) & (r * r % ps == a)).all()


@pytest.mark.parametrize("coeffs,count", [
    ([1, 0, 1], 138), ([0, 2, 1], 276),
    ([2147483647, 2147483587, 2147483629], 161)])
def test_quadratic_roots_near_2_31(coeffs, count):
    """Near 2^31 the quadratic formula's products reach about 2^62.  The
    last polynomial's coefficients are primes in this range, so it loses
    a coefficient at each of them."""
    assert len(NEAR_2_31) == 138
    ps, roots = systems._roots_mod_primes(coeffs, NEAR_2_31)
    assert set(ps.tolist()) <= set(NEAR_2_31)
    for p in NEAR_2_31:
        rs = roots[ps == p].tolist()
        assert len(rs) <= 2 and list(rs) == sorted(set(rs)), p
        assert all((coeffs[2] * r * r + coeffs[1] * r + coeffs[0]) % p == 0
                   for r in rs), p
    assert len(roots) == count


# per-prime oracle for the column helpers: long division and Euclid on
# coefficient lists, lowest first

_trim = systems._trim


def _divmod_poly(a: list[int], b: list[int],
                 p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b mod p (coefficient lists, lowest
    first, b with a nonzero leading coefficient)."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * inv % p
        q[i - db] = c
        if c:
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _trim(q), _trim(r[:db])


def _gcd_poly(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a (nonzero) and b mod p."""
    while b:
        a, b = b, _divmod_poly(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mul_poly(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % p
    return _trim(out)


def _add_poly(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(c + d) % p for c, d in zip(a, b)])


def _as_columns(polys: list[list[int]], rows: int) -> np.ndarray:
    out = np.zeros((rows, len(polys)), dtype=np.int64)
    for i, c in enumerate(polys):
        out[:len(c), i] = c
    return out


def _column(a: np.ndarray, i: int) -> list[int]:
    return _trim(a[:, i].tolist())


def _random_poly(rng: random.Random, p: int, degree: int) -> list[int]:
    """Degree exactly ``degree`` mod p, -1 for the zero polynomial."""
    if degree < 0:
        return []
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _division_cases(rng: random.Random, p: int) -> list[tuple[list, list]]:
    """(a, b) pairs mod p of degree <= 6, random and of the shapes that
    long division over every column at once must keep apart."""
    cases = [(_random_poly(rng, p, rng.randint(-1, 6)),
              _random_poly(rng, p, rng.randint(-1, 6))) for _ in range(6)]
    b = _random_poly(rng, p, 4)
    drop = _add_poly(_mul_poly(b, _random_poly(rng, p, 2), p),
                     _random_poly(rng, p, 1), p)  # remainder 3 degrees down
    gap = _mul_poly(b, [rng.randrange(1, p), 0, 1], p)  # quotient x^2 + c
    cases += [
        (_random_poly(rng, p, 5), []),                   # zero divisor
        (_random_poly(rng, p, 2), _random_poly(rng, p, 5)),  # a below b
        (drop, b), (gap, b), ([], b), (b, b),
        (_random_poly(rng, p, 6), [rng.randrange(1, p)]),
        (_random_poly(rng, p, 6), _random_poly(rng, p, 3)[:-1] + [1])]
    return cases


def _column_primes(rng: random.Random, count: int) -> list[int]:
    ps = []
    while len(ps) < count:
        p = rng.choice((rng.randrange(5, 1000), rng.randrange(1 << 30, 1 << 31)))
        if is_prime(p):
            ps.append(p)
    return ps


def _check_divmod(pairs: list[tuple[list, list]], ps: list[int],
                  rows: int = 7) -> None:
    a, b = _as_columns([x for x, _ in pairs], rows), \
        _as_columns([y for _, y in pairs], rows)
    q, r = systems._divmod_columns(a, b, np.array(ps, dtype=np.int64))
    assert q.shape[1] == r.shape[1] == len(pairs)
    for i, ((x, y), p) in enumerate(zip(pairs, ps)):
        e = len(x) - len(y)
        if not y or e < 0:
            want = [], x
        else:   # lc(b)^(e+1) a = q b + r
            scale = pow(y[-1], e + 1, p)
            want = _divmod_poly([c * scale % p for c in x], y, p)
        assert (_column(q, i), _column(r, i)) == want, (x, y, p)


def test_divmod_columns_matches_per_prime_oracle():
    """Pseudo-division of random columns of degree <= 6 mod random primes
    up to 2^31 against list long division of lc(b)^(e+1) a by b: zero
    divisors, dividends below their divisor, remainders three degrees
    down, zero quotient coefficients, and monic divisors, where it is
    plain division."""
    rng = random.Random(27)
    for _ in range(30):
        ps = _column_primes(rng, 14)
        pairs = [c for p in ps[:1] for c in _division_cases(rng, p)]
        _check_divmod(pairs, ps[:1] * len(pairs))
        pairs = [rng.choice(_division_cases(rng, p)) for p in ps]
        _check_divmod(pairs, ps)


def test_divmod_columns_leading_coefficient_zero_mod_p():
    """Coefficients written as multiples of p reduce to zero, so each
    column's degree is below its row count and differs between columns."""
    rng = random.Random(5)
    ps = _column_primes(rng, 8)
    pairs = []
    for p in ps:
        a = [rng.randrange(p) for _ in range(6)] + [p * rng.randint(1, 3)]
        b = [rng.randrange(p) for _ in range(3)] + [0, 7 * p]
        pairs.append(([c % p for c in a], [c % p for c in b]))
    _check_divmod([(_trim(a), _trim(b)) for a, b in pairs], ps)


def test_divmod_columns_zero_and_one_column():
    q, r = systems._divmod_columns(np.zeros((7, 0), dtype=np.int64),
                                   np.zeros((5, 0), dtype=np.int64),
                                   np.zeros(0, dtype=np.int64))
    assert q.shape == (0, 0) and r.shape == (7, 0)
    rng = random.Random(3)
    for p in _column_primes(rng, 5):
        for pair in _division_cases(rng, p):
            _check_divmod([pair], [p])


def _check_gcd(pairs: list[tuple[list, list]], ps: list[int]) -> None:
    a, b = _as_columns([x for x, _ in pairs], 13), \
        _as_columns([y for _, y in pairs], 13)
    g = systems._gcd_columns(a, b, np.array(ps, dtype=np.int64))
    assert g.shape[1] == len(pairs)
    for i, ((x, y), p) in enumerate(zip(pairs, ps)):
        want = _gcd_poly(x, y, p) if x else _gcd_poly(y, x, p) if y else []
        assert _column(g, i) == want, (x, y, p)


def test_gcd_columns_matches_per_prime_oracle():
    """Monic gcds of random columns of degree <= 12 mod random primes up
    to 2^31, with a common factor of degree 0 to 6 planted, against
    Euclid on lists; Euclid's steps differ in number between columns."""
    rng = random.Random(2027)
    for _ in range(20):
        ps = _column_primes(rng, 16)
        pairs = []
        for p in ps:
            g = _random_poly(rng, p, rng.randint(0, 6))
            x, y = _division_cases(rng, p)[rng.randrange(14)]
            pairs.append((_mul_poly(g, x, p) or g, _mul_poly(g, y, p)))
        _check_gcd(pairs, ps)


def test_gcd_columns_edge_columns():
    """b = 0, b above a, a = b, a = 0 and a zero gcd where both are zero,
    alone and together, and an empty batch."""
    rng = random.Random(11)
    ps = _column_primes(rng, 6)
    f = [_random_poly(rng, p, 4) for p in ps]
    pairs = [(f[0], []), (_random_poly(rng, ps[1], 2), f[1]), (f[2], f[2]),
             ([], f[3]), ([], []), (_mul_poly(f[5], [1, 1], ps[5]), f[5])]
    _check_gcd(pairs, ps)
    for pair, p in zip(pairs, ps):
        _check_gcd([pair], [p])
    g = systems._gcd_columns(np.zeros((4, 0), dtype=np.int64),
                             np.zeros((3, 0), dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
    assert g.shape == (4, 0)


def test_cantor_zassenhaus_raises_when_no_round_splits(monkeypatch):
    """With a gcd that never splits a factor, every column of n^3 + 2
    stays pending until a reaches its prime: root finding raises an
    internal error instead of counting a up for ever."""
    monkeypatch.setattr(systems, "_gcd_columns", lambda a, b, p: a)
    with pytest.raises(DomainError, match="^internal error: no a < p "
                                          "splits a factor mod p = 5$"):
        systems._roots_mod_primes([2, 0, 0, 1], primes_in_range(3, 50))


def test_cantor_zassenhaus_rounds_with_several_degrees(monkeypatch):
    """n(n-1)...(n-5), expanded, has the roots 0..5 at every prime above
    6: g = f, whose degree-6 factor splits over rounds in which factors
    of degree >= 3 survive a round and one round splits several
    degrees."""
    rounds = []
    pow_x_plus_a = systems._pow_x_plus_a

    def spy(a, e, f, p):
        rounds.append((a, len(f)))
        return pow_x_plus_a(a, e, f, p)

    monkeypatch.setattr(systems, "_pow_x_plus_a", spy)
    sextic = polynomial_system("n^6-15n^5+85n^4-225n^3+274n^2-120n")
    primes = primes_in_range(6, 5000)
    p, r = sextic.residue_tables(primes)
    assert p.tolist() == np.repeat(primes, 6).tolist()
    assert r.tolist() == list(range(6)) * len(primes)
    degrees = {}
    for a, k in rounds[1:]:        # rounds[0] is x^p mod f
        degrees.setdefault(a, set()).add(k)
    assert max(max(ks) for a, ks in degrees.items() if a > 0) >= 3
    assert max(len(ks) for ks in degrees.values()) >= 2


def test_residues_of_coefficients_above_2_63():
    """Horner over 31-bit limbs against Python's % for coefficients at
    and around the limb boundaries, negative ones and one above 2^100."""
    ps = np.array([5, 7, 65537, (1 << 31) - 1] + NEAR_2_31[:3], dtype=np.int64)
    coeffs = [0, 1, -1, (1 << 31) - 1, 1 << 31, -(1 << 62), (1 << 63) + 5,
              -(1 << 93) - 17, 3 ** 70, -(7 ** 41)]
    got = systems._residues(coeffs, ps)
    assert got.tolist() == [[c % p for p in ps.tolist()] for c in coeffs]


def test_roots_of_a_polynomial_with_coefficients_above_2_63():
    """A cubic with a coefficient above 2^63 written in decimal and a
    negative one, against evaluation at every class mod p."""
    text = "-7n^3+12345678901234567890123n^2-98765n+123456789012345678901"
    sys_ = polynomial_system(text)
    assert max(abs(c) for c in sys_.poly.scaled_standard_coeffs()[0]) > 2 ** 63
    primes = [int(p) for p in primes_upto(3000)]
    assert all(sys_.residues(p) == brute_roots(sys_.poly, p) for p in primes)


def test_root_finding_refuses_primes_from_2_31():
    p = (1 << 31) + 11
    assert is_prime(p)
    with pytest.raises(DomainError, match="2147483648"):
        polynomial_system("n^3+2").residues(p)


def test_active_primes_refuses_x_from_2_31_before_sieving(monkeypatch,
                                                          capsys):
    def refuse(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(primes, "sieve_flags", refuse)
    argv = ["system-info", "--file", "poly:n^3+2", "--x", "2147483660"]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: root finding mod p needs p < 2147483648")


def test_degenerate_prime_flagged_not_error():
    sys_ = SievingSystem("table", table={2: (0, 1), 3: (0,)})
    assert sys_.residues(2) == (0, 1)


# ---------------------------------------------------------------------------
# integer-valued polynomials


def test_parse_standard_and_scaled_forms():
    assert [IntPolynomial.parse("n^2+1")(n) for n in range(5)] == \
        [1, 2, 5, 10, 17]
    f = IntPolynomial.parse("(n^7-n+7)/7")
    assert all((n ** 7 - n + 7) % 7 == 0 for n in range(20))
    assert [f(n) for n in range(5)] == [(n ** 7 - n + 7) // 7
                                        for n in range(5)]


def test_non_integer_valued_rejected():
    with pytest.raises(DomainError):
        IntPolynomial.from_coefficients([0, Fraction(1, 2)])


def test_scaled_standard_coeffs_consistent():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(1, 5)
        poly = IntPolynomial([rng.randint(-10, 10) for _ in range(d + 1)])
        coeffs, fact = poly.scaled_standard_coeffs()
        for n in range(-5, 6):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * n + c
            assert acc == fact * binomial_eval(poly, n)
            assert poly(n) == binomial_eval(poly, n)


# ---------------------------------------------------------------------------
# sigma / period / rho


def test_sigma_examples_exact():
    assert sigma(eratosthenes(), 1, 10, exact=True) == Fraction(8, 35)
    assert sigma(eratosthenes(), 10, 10, exact=True) == 1
    assert sigma(N2P1, 1, 5, exact=True) == Fraction(3, 10)


def _sigma_oracle(system, z, x) -> Fraction:
    """prod (1 - |I_p|/p) over primes p in (z, x], one Fraction at a time,
    with primes found by trial division."""
    out = Fraction(1)
    for p in range(int(z) + 1, int(x) + 1):
        if p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)):
            out *= Fraction(p - len(system.residues(p)), p)
    return out


@pytest.mark.parametrize("spec", ["eratosthenes", "twin", "poly:n^2+1",
                                  "poly:n^3+2"])
def test_sigma_matches_fraction_oracle(spec):
    """float(sigma) is the correctly rounded exact product on random
    (z, x), and exact mode is that product."""
    sys_ = system_from_spec(spec)
    rng = random.Random(spec)
    for _ in range(30):
        x = rng.randint(2, 5_000)
        z = rng.randint(1, x)
        expect = _sigma_oracle(sys_, z, x)
        assert float(sigma(sys_, z, x)) == float(expect), (z, x)
        assert sigma(sys_, z, x, exact=True) == expect


def test_sigma_multiplicative_chain():
    rng = random.Random(5)
    from conftest import random_table_system
    for _ in range(10):
        sys_ = random_table_system(rng)
        a = float(sigma(sys_, 1, 20)) * float(sigma(sys_, 20, 50))
        b = float(sigma(sys_, 1, 50))
        assert a == pytest.approx(b, rel=1e-9)


def test_sigma_degenerate_error_names_prime():
    sys_ = SievingSystem("table", table={3: (0, 1, 2)})
    with pytest.raises(Exception, match="3"):
        sigma(sys_, 1, 10)


def test_period_examples():
    assert period(eratosthenes(), 10) == 210
    assert period(N2P1, 4) == 2
    assert period(SievingSystem("table", table={}), 100) == 1


def test_period_divisibility():
    for x, x2 in ((10, 30), (30, 100), (7, 7)):
        assert period(N2P1, x2) % period(N2P1, x) == 0


def test_estimate_rho():
    era = eratosthenes()
    assert estimate_rho(era, 10_000) == pytest.approx(
        1229 * math.log(10_000) / 10_000, rel=1e-12)
    assert estimate_rho(SievingSystem("table", table={}), 1000) == 0.0


# ---------------------------------------------------------------------------
# mertens_fit


def test_mertens_fit_eratosthenes_tracks_constant():
    rep = mertens_fit(eratosthenes(), [1_000, 10_000, 100_000])
    assert not rep.flagged_not_one_dimensional
    assert rep.mertens_track[-1][1] == pytest.approx(0.5615, rel=0.02)
    assert 0 < rep.sigma <= 1
    assert rep.period_bitlength > 0


def test_mertens_fit_flags_single_prime_divergence():
    sys_ = SievingSystem("table", table={2: (0,)})
    rep = mertens_fit(sys_, [100, 1_000, 10_000])
    assert rep.flagged_not_one_dimensional
    assert rep.mertens_track[-1][1] == pytest.approx(0.5 * math.log(10_000),
                                                     rel=1e-9)


def test_twin_residues_at_every_prime():
    """I_p = {0, -2 mod p} from the roots of n(n+2), also above 10^6."""
    twin = twin_system()
    assert twin.residues(1_000_003) == (0, 1_000_001)
    twin.active_primes(100_000)
    for p in (int(p) for p in primes_upto(100_000)):
        assert twin.residues(p) == tuple(sorted({0, (p - 2) % p})), p


def test_mertens_fit_flags_twin_system():
    rep = mertens_fit(twin_system(), [1_000, 10_000, 100_000])
    assert rep.flagged_not_one_dimensional


@pytest.mark.parametrize("make", [
    eratosthenes, twin_system, lambda: polynomial_system("n^2+1"),
    lambda: random_table_system(random.Random(17), prime_cap=10_000)],
    ids=["eratosthenes", "twin", "n2p1", "random-table"])
def test_mertens_fit_one_walk_equals_per_checkpoint_sigma(make):
    """One walk over the primes: at most 2 residue lookups per prime
    <= x, and every figure equal bit for bit to sigma(1, cp), period
    and estimate_rho computed separately."""
    cps = [100, 1_000, 3_000, 10_000]
    sys_ = make()
    calls = []
    lookup = sys_.residues

    def counted(p):
        calls.append(p)
        return lookup(p)

    sys_.residues = counted
    rep = mertens_fit(sys_, cps)
    assert len(calls) <= 2 * len(primes_upto(cps[-1]))
    del sys_.residues
    with mp.workprec(SIGMA_PRECISION_BITS):
        track = [(cp, float(sigma(sys_, 1, cp) * mp.log(cp))) for cp in cps]
    assert rep.mertens_track == track
    assert rep.sigma == float(sigma(sys_, 1, cps[-1]))
    assert rep.period_bitlength == period(sys_, cps[-1]).bit_length()
    assert rep.rho_hat == estimate_rho(sys_, cps[-1])


@pytest.mark.parametrize("spec", ["eratosthenes", "twin", "poly:n^3+2"])
def test_mertens_fit_period_bitlength_is_period(spec):
    sys_ = system_from_spec(spec)
    for x in (100, 101, 1_000, 7_919, 30_000):
        rep = mertens_fit(sys_, sorted({100, x}))
        assert rep.period_bitlength == period(sys_, x).bit_length()


def test_mertens_fit_rejects_bad_checkpoints():
    with pytest.raises(DomainError):
        mertens_fit(eratosthenes(), [50, 1000])
    with pytest.raises(DomainError):
        mertens_fit(eratosthenes(), [1000, 100])


# ---------------------------------------------------------------------------
# system loading


def test_system_from_spec_builtins():
    assert system_from_spec("eratosthenes").kind == "eratosthenes"
    assert system_from_spec("twin").residues(5) == (0, 3)
    assert system_from_spec("poly:n^2+1").residues(5) == (2, 3)


def test_load_system_file_roundtrip(tmp_path):
    f = tmp_path / "sys.json"
    f.write_text('{"kind": "polynomial", "binomial_coeffs": [1, 1, 2]}')
    sys_ = system_from_spec(str(f))
    # a_0 + a_1 C(n,1) + a_2 C(n,2) with a=[1,1,2] is n^2 + 1
    assert [sys_.poly(n) for n in range(4)] == [1, 2, 5, 10]

    g = tmp_path / "table.json"
    g.write_text('{"kind": "table", "entries": [[5, [2, 3]], [7, []]]}')
    sys2 = system_from_spec(str(g))
    assert sys2.residues(5) == (2, 3)
    assert sys2.residues(7) == ()
