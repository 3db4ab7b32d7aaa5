"""Exact correlation / error-function computations and the moment
identities under a uniform random shift."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sievegap.cli import _stats
from sievegap.construction import Params, build_weight_tables, derive_params
from sievegap.cover import sequential_sum
from sievegap.errors import DomainError, EnumerationLimitError
from sievegap import moments
from sievegap.moments import (correlation_exact, error_E, exact_first_moment,
                              iii_inner_sums, mc_first_moment,
                              mc_lambda_moments, mc_second_moment)
from sievegap.primes import primes_in_range
from sievegap.systems import (SievingSystem, eratosthenes, period,
                              polynomial_system, sigma)
from sievegap.rng import derive_seed
from sievegap.window import ShiftVector, sift

ERA = eratosthenes()


# ---------------------------------------------------------------------------
# error_E


def test_error_e_empty_range():
    # no primes in (H^M, z]
    assert error_E(ERA, 1, 5, 2.0, 4.6, 20) == 0


def test_error_e_single_prime():
    # primes in (24.2, 30] = {29}; I_29 = {0} so I - I = {0}
    assert error_E(ERA, 1, 29, 2.0, 4.6, 30) == Fraction(1, 29)
    assert error_E(ERA, 1, 30, 2.0, 4.6, 30) == 0
    assert error_E(ERA, Fraction(3, 2), 58, 2.0, 4.6, 30) == Fraction(3, 58)


def test_error_e_two_primes_bruteforce():
    # primes in (24.2, 36] = {29, 31}
    for m in (0, 29, 31, 29 * 31, 17):
        expect = Fraction(0)
        for d in (29, 31, 29 * 31):
            omega = 2 if d == 29 * 31 else 1
            if all(m % p == 0 for p in (29, 31) if d % p == 0):
                expect += Fraction(2 ** omega, d)
        assert error_E(ERA, 2, m, 2.0, 4.6, 36) == expect


def test_error_e_even_and_monotone_in_a():
    rng = random.Random(13)
    for _ in range(10):
        m = rng.randint(-500, 500)
        assert error_E(ERA, 1, m, 2.0, 4.6, 60) == \
            error_E(ERA, 1, -m, 2.0, 4.6, 60)
        vals = [error_E(ERA, a, m, 2.0, 4.6, 60) for a in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]


def test_error_e_closed_form_when_all_primes_good():
    # m = 0 lies in I_p - I_p for every p, so the product takes every
    # prime: sum = prod(1 + A/p) - 1
    ps = [int(p) for p in primes_in_range(2.0 ** 4.6, 60)]
    expect = math.prod(Fraction(p + 2, p) for p in ps) - 1
    assert error_E(ERA, 2, 0, 2.0, 4.6, 60) == expect


def test_error_e_float_a_is_the_exact_sum_rounded_once():
    for m in (0, 29, 31, 29 * 31, 17, -58, 12_345):
        got = error_E(ERA, 1.5, m, 2.0, 4.6, 60)
        assert type(got) is float
        assert got == float(error_E(ERA, Fraction(3, 2), m, 2.0, 4.6, 60))


def test_error_e_has_no_enumeration_cap():
    """159 primes in (2^4.6, 1000]: the product needs no walk over the
    2^159 - 1 squarefree d, and with m = 0 every prime is good."""
    ps = [p for p in range(25, 1001)
          if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(ps) == 159
    expect = math.prod(Fraction(p + 1, p) for p in ps) - 1
    assert error_E(ERA, 1, 0, 2.0, 4.6, 1000) == expect


def test_error_e_finds_the_roots_in_one_batch(monkeypatch):
    """For a polynomial system, error_E finds every residue table it
    needs in one root-finding call, over the primes of (3, z] that a
    fresh system's table takes, and its value equals the product over
    each prime of (H^M, z] read one at a time."""
    from sievegap import systems
    calls = []
    batch = systems._roots_mod_primes
    monkeypatch.setattr(systems, "_roots_mod_primes",
                        lambda coeffs, ps: calls.append(len(ps)) or
                        batch(coeffs, ps))
    got = {m: error_E(polynomial_system("n^2+1"), 1, m, 2.0, 4.6, 3000)
           for m in (0, 1, 4, 12)}
    assert calls == [len(primes_in_range(3, 3000))] * 4
    one = polynomial_system("n^2+1")
    for m, value in got.items():
        expect = Fraction(1)
        for p in primes_in_range(2.0 ** 4.6, 3000).tolist():
            res = one.residues(p)
            if m % p in {(a - b) % p for a in res for b in res}:
                expect *= Fraction(p + 1, p)
        assert value == expect - 1
    assert got[0] > got[12] > 0


def test_error_e_and_correlation_read_the_class_table_once(monkeypatch):
    """Neither error_E nor correlation_exact asks for I_p one prime at a
    time: each reads the classes of (H^M, z] in one call, and its value is
    unchanged."""
    sys_ = polynomial_system("n^2+1")
    want = (error_E(sys_, 1, 4, 2.0, 4.6, 3000),
            correlation_exact(sys_, [0, 2, 6], 2.0, 4.6, 3000, exact=True))
    calls = {"residues": 0, "classes": 0}
    for name in calls:
        method = getattr(SievingSystem, name)

        def spy(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SievingSystem, name, spy)
    assert error_E(sys_, 1, 4, 2.0, 4.6, 3000) == want[0]
    assert calls == {"residues": 0, "classes": 1}
    assert correlation_exact(sys_, [0, 2, 6], 2.0, 4.6, 3000,
                             exact=True) == want[1]
    assert calls == {"residues": 0, "classes": 2}


def test_error_e_averaged_bound_one_sided():
    # desk-scale reading of the averaged estimate: the error sum over a
    # block of shifts stays within an explicit constant of
    # X*A/H^M + R*exp(A*B^2*loglog y)
    H, M, z, A, B = 2.0, 4.6, 50, 1, 1
    X = 100
    total = sum(error_E(ERA, A, m, H, M, z) for m in range(1, X + 1))
    bound = 100 * (X * A / H ** M + X * math.exp(A * B * B
                                                 * math.log(math.log(z))))
    assert float(total) <= bound


# ---------------------------------------------------------------------------
# correlation_exact


def test_correlation_empty_and_singleton():
    assert correlation_exact(ERA, [], 2.0, 4.6, 60, exact=True) == 1
    s2 = sigma(ERA, 2.0 ** 4.6, 60, exact=True)
    for n in (0, 5, 123):
        assert correlation_exact(ERA, [n], 2.0, 4.6, 60, exact=True) == s2


def test_correlation_monotone_under_subsets():
    rng = random.Random(3)
    for _ in range(10):
        u = [rng.randint(0, 300) for _ in range(4)]
        full = correlation_exact(ERA, u, 2.0, 4.6, 60)
        sub = correlation_exact(ERA, u[:2], 2.0, 4.6, 60)
        assert full <= sub + 1e-15


def test_correlation_float_is_the_exact_product_rounded_once():
    rng = random.Random(29)
    quad = polynomial_system("n^2+1")
    for _ in range(20):
        U = [rng.randint(-500, 500) for _ in range(rng.randint(0, 5))]
        for sys_, z in ((ERA, 60), (ERA, 2000), (quad, 3000)):
            got = correlation_exact(sys_, U, 2.0, 4.6, z)
            assert type(got) is float
            assert got == float(correlation_exact(sys_, U, 2.0, 4.6, z,
                                                  exact=True))


def test_correlation_matches_full_enumeration():
    # primes in (H^M, z] with H^M ~ 3.17: {5, 7, 11, 13}, P2 = 5005
    H, M, z = 1.2857, 4.6, 13
    ps = [int(p) for p in primes_in_range(H ** M, z)]
    assert ps == [5, 7, 11, 13]
    P2 = math.prod(ps)
    rng = random.Random(8)
    for _ in range(5):
        U = sorted({rng.randint(0, 100) for _ in range(2)})
        hits = 0
        for b in range(P2):
            if all(all((u + b) % p != 0 for p in ps) for u in U):
                hits += 1
        assert correlation_exact(ERA, [-u for u in U], H, M, z,
                                 exact=True) == Fraction(hits, P2)


# ---------------------------------------------------------------------------
# first and second moments


def test_exact_first_moment_fixture():
    rep = exact_first_moment(ERA, 7, 50)
    assert rep.exact
    assert rep.extras["equal"]
    assert rep.extras["mean_fraction"] == "80/7"
    assert rep.estimated == pytest.approx(80 / 7)


def test_exact_first_moment_random_systems():
    from conftest import random_table_system
    rng = random.Random(55)
    done = 0
    while done < 5:
        sys_ = random_table_system(rng, prime_cap=13)
        if any(len(sys_.residues(p)) >= p for p in sys_.active_primes(13)):
            continue
        if period(sys_, 13) > 100_000:
            continue
        rep = exact_first_moment(sys_, 13, rng.randint(1, 80))
        assert rep.extras["equal"]
        done += 1


def test_exact_first_moment_guard():
    with pytest.raises(EnumerationLimitError):
        exact_first_moment(ERA, 19, 50)   # P(19) = 9699690


def test_mc_first_moment_zscore_and_edge():
    rep = mc_first_moment(ERA, 7, 50, trials=1000, seed=12)
    assert abs(rep.z_score) <= 3
    assert mc_first_moment(ERA, 7, 0, trials=10, seed=1).estimated == 0.0
    with pytest.raises(DomainError):
        mc_first_moment(ERA, 7, 50, trials=0, seed=0)


def test_mc_second_moment_two_prime_closed_form():
    sys_ = SievingSystem("table", table={2: (0,), 3: (0,)})
    # counts over the 6 shifts are exact; compare MC mean of count^2
    y = 60
    counts = [sift(sys_, 3, ShiftVector({2: b % 2, 3: b % 3}),
                   1, y).count() for b in range(6)]
    exact2 = sum(c * c for c in counts) / 6
    rep = mc_second_moment(sys_, 3, y, trials=2000, seed=21)
    se = rep.std_error if rep.std_error > 0 else 1e-9
    assert abs(rep.estimated - exact2) <= 3 * se
    assert "relative_deviation" in rep.extras


def test_mc_second_moment_shrinks_with_y():
    devs = {}
    for y in (200, 2000):
        ds = []
        for s in range(5):
            rep = mc_second_moment(ERA, 13, y, trials=300, seed=100 + s)
            ds.append(rep.extras["relative_deviation"])
        devs[y] = sorted(ds)[2]
    assert devs[2000] < devs[200]


# ---------------------------------------------------------------------------
# lambda moments (identities ii and iii)


def toy_params() -> Params:
    # z_eff < H^M so sigma2 = 1 and lambda is identically 1
    return Params(x=100, delta=0.1, M=4.6, K=3, xi=1.1, y=60, z=20, z_eff=20,
                  scales=[2.0], Q={2.0: [29]}, sigma2={2.0: 1.0},
                  degraded=False, rho_hat=1.0)


def test_lambda_moment_ii_j0_exact():
    rep = mc_lambda_moments(ERA, toy_params(), 2.0, 0, trials=20, seed=3,
                            identity="ii")
    assert rep.estimated == rep.predicted == 1.0
    assert rep.std_error == 0.0


def test_lambda_moment_ii_j1_sigma2_one_exact():
    p = toy_params()
    rep = mc_lambda_moments(ERA, p, 2.0, 1, trials=10, seed=4, identity="ii")
    assert rep.predicted == (p.K + 1) * p.y
    assert rep.estimated == rep.predicted
    assert rep.std_error == 0.0


def test_lambda_moments_desk_instance_zscores():
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    rep2 = mc_lambda_moments(ERA, p, 3.0, 1, trials=60, seed=5,
                             identity="ii")
    assert abs(rep2.z_score) <= 3.5
    rep3 = mc_lambda_moments(ERA, p, 3.0, 1, trials=60, seed=6,
                             identity="iii")
    assert abs(rep3.z_score) <= 3.5


@pytest.mark.parametrize("identity", ["ii", "iii"])
def test_lambda_moments_sigma_calls_do_not_grow_with_trials(identity,
                                                            monkeypatch):
    """sigma2 comes from params, so the number of density products is
    the same for 2 trials as for 5."""
    from sievegap import construction, moments
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    assert 3.0 ** p.M < p.z_eff                   # sigma2 is a real product
    counts = []
    for trials in (2, 5):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return sigma(*args, **kwargs)

        monkeypatch.setattr(construction, "sigma", spy)
        monkeypatch.setattr(moments, "sigma", spy)
        mc_lambda_moments(ERA, p, 3.0, 1, trials=trials, seed=7,
                          identity=identity)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_lambda_moments_validation():
    p = toy_params()
    with pytest.raises(DomainError):
        mc_lambda_moments(ERA, p, 2.0, 3, trials=5, seed=0)
    with pytest.raises(DomainError):
        mc_lambda_moments(ERA, p, 2.0, 1, trials=5, seed=0, identity="iv")
    with pytest.raises(DomainError):
        mc_lambda_moments(ERA, p, 9.0, 1, trials=5, seed=0)


# ---------------------------------------------------------------------------
# the order of floating-point sums


# left to right 1e100 swallows both ones; a compensated sum keeps them
SWALLOWED = [1.0, 1e100, 1.0, -1e100]


def test_sequential_sum_adds_left_to_right():
    assert math.fsum(SWALLOWED) == 2.0
    assert sequential_sum(SWALLOWED) == 0.0
    assert sequential_sum([]) == 0.0
    rng = random.Random(26)
    for _ in range(50):
        vals = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
                for _ in range(rng.randint(1, 40))]
        acc = 0.0
        for v in vals:
            acc += v
        assert sequential_sum(vals) == acc
        assert sequential_sum(np.array(vals)) == acc


def test_cli_stats_mean_is_the_sequential_sum():
    # sorted: -1e100, 1, 1, 1e100; a compensated sum would give 2 / 4
    assert _stats(SWALLOWED)["mean"] == 0.0


# ---------------------------------------------------------------------------
# identity iii's inner sums against the per-(q, h) loop


def _inner_sums_oracle(tables, members, J):
    """One pass per (q, h): inner += lambda(H; q, members - qh)."""
    inner = np.zeros(len(members))
    for q, tab in tables.items():
        for h in range(1, J + 1):
            k = members - q * h - tab.n_lo
            valid = (k >= 0) & (k < len(tab.codes))
            lam = tab.lut[tab.codes.take(k, mode="clip")]
            inner += np.where(valid, lam, 0.0)
    return inner


def _power_sum_oracle(inner, j):
    """sum of inner[i] ** j, one Python addition and power at a time."""
    v = 0.0
    for s in inner.tolist():
        v += s ** j
    return v


def _assert_iii_matches_oracle(tables, members, J):
    """The helper's inner sums and their j-th power sums equal the loop's
    for j = 1, 2; returns the loop's inner sums."""
    fast = iii_inner_sums(tables, members, J)
    slow = _inner_sums_oracle(tables, members, J)
    assert fast.shape == slow.shape and bool(np.all(fast == slow))
    for j in (1, 2):
        assert sequential_sum([s ** j for s in fast.tolist()]) == \
            _power_sum_oracle(slow, j)
    return slow


def _trials(system, params, H, seed, trials):
    """(tables, members) of each trial of mc_lambda_moments."""
    for t in range(trials):
        b = ShiftVector.uniform(system, params.z_eff,
                                derive_seed(seed, "lam", t))
        yield (build_weight_tables(system, params, b, H),
               sift(system, params.z_eff, b, 1, params.y).members())


def _reported_values(monkeypatch):
    """The per-trial values that mc_lambda_moments hands to _report."""
    seen = []
    report = moments._report
    monkeypatch.setattr(moments, "_report",
                        lambda ident, pred, vals, **kw:
                        seen.append(vals) or report(ident, pred, vals, **kw))
    return seen


def test_iii_inner_sums_match_loop_at_criterion_06(monkeypatch):
    """The helper and mc_lambda_moments' per-trial values, bit for bit."""
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    J = int(p.K * 3.0)
    seen = _reported_values(monkeypatch)
    for j in (1, 2):
        mc_lambda_moments(ERA, p, 3.0, j, trials=200, seed=26,
                          identity="iii")
    for t, (tables, members) in enumerate(_trials(ERA, p, 3.0, 26, 200)):
        slow = _assert_iii_matches_oracle(tables, members, J)
        for j, vals in zip((1, 2), seen):
            assert vals[t] == _power_sum_oracle(slow, j)


def test_iii_j2_powers_are_python_float_powers(monkeypatch):
    """numpy's ** 2 squares, and a libm pow that is not correctly rounded
    differs from that in the last bit of some values.  Where it does, the
    sum of trial 10 of seed 115 at criterion 06 is among those it changes
    (2 of 8,000 trials), so the powers must stay Python's."""
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    seen = _reported_values(monkeypatch)
    mc_lambda_moments(ERA, p, 3.0, 2, trials=11, seed=115, identity="iii")
    *_, (tables, members) = _trials(ERA, p, 3.0, 115, 11)
    inner = _inner_sums_oracle(tables, members, int(p.K * 3.0))
    assert seen[0][10] == _power_sum_oracle(inner, 2)


def test_iii_inner_sums_match_loop_two_classes_per_prime():
    system = polynomial_system("n^2+1")
    p = derive_params(system, 1_000, delta=0.001, force_z=200,
                      force_scales=[3.0])
    assert len(p.Q[3.0]) >= 2
    for tables, members in _trials(system, p, 3.0, 27, 40):
        _assert_iii_matches_oracle(tables, members, int(p.K * 3.0))


def test_iii_inner_sums_one_member_none_and_outside_the_tables():
    """One member gives a single column, which np.add.reduce would add
    pairwise down axis 0; every single member of a trial must match.  At
    criterion 06 every n - qh lies in the tables, so members moved below
    and above [1, y] exercise the range mask."""
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    J = int(p.K * 3.0)
    tables, members = next(_trials(ERA, p, 3.0, 28, 1))
    assert J >= 9              # rows np.add.reduce would add pairwise
    for n in members.tolist():
        _assert_iii_matches_oracle(tables, np.array([n]), J)
    for moved in (members - 2 * p.y, members + p.y):
        _assert_iii_matches_oracle(tables, moved, J)
        _assert_iii_matches_oracle(tables, moved[:1], J)
    below = members - (p.K + 1) * p.y          # every n - qh below the tables
    assert iii_inner_sums(tables, below, J).max() == 0.0
    assert iii_inner_sums(tables, members[:0], J).shape == (0,)
    _assert_iii_matches_oracle(tables, members[:0], J)


def test_lambda_moment_iii_sigma2_one_exact(monkeypatch):
    """sigma2 = 1 makes lambda identically 1, so every member's inner sum
    is |Q_H| floor(KH) = 6: per trial, iii-j1 is 6 times the member count
    and iii-j2 is 36 times it.  A dropped (q, h) term, or an h that runs
    past the table's low end, changes some member's sum."""
    p = toy_params()
    assert len(p.Q[2.0]) * int(p.K * 2.0) == 6
    seen = _reported_values(monkeypatch)
    for j in (0, 1, 2):
        mc_lambda_moments(ERA, p, 2.0, j, trials=20, seed=3, identity="iii")
    counts, j1, j2 = seen
    assert all(c > 0 for c in counts)
    assert j1 == [6 * c for c in counts]
    assert j2 == [36 * c for c in counts]
