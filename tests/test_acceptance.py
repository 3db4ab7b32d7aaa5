"""Acceptance gate: ten end-to-end criteria with frozen fixtures.

Each test prints one "[criterion NN] PASS/FAIL" line (visible even under
pytest capture) and enforces its wall-clock budget.  Fixtures marked
FROZEN were produced once by independent brute-force runs and are
asserted exactly.
"""

import math
import random
import time
from fractions import Fraction

from conftest import brute_gap, brute_members, random_table_system

from sievegap.applications import (composite_run_bruteforce,
                                   composite_run_constructed,
                                   coprimality_constructed,
                                   coprimality_witness)
from sievegap.constants import c_rho
from sievegap.construction import construct, derive_params, trivial_baseline
from sievegap.cover import (assign_indices, check_hypotheses, plan_rounds,
                            progression_instance, run_cover)
from sievegap.moments import (correlation_exact, error_E, exact_first_moment,
                              mc_lambda_moments)
from sievegap.primes import primality, primes_in_range, primes_upto
from sievegap.rng import derive_seed
from sievegap.systems import (estimate_rho, eratosthenes, mertens_fit,
                              polynomial_system, sigma)
from sievegap.window import ShiftVector, largest_gap, sift, verify_empty

ERA = eratosthenes()


class _Gate:
    """Run a criterion body, print its pass/fail line, check the budget."""

    def __init__(self, capsys, number: int, budget_s: float):
        self.capsys = capsys
        self.number = number
        self.budget = budget_s
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget \
            else "FAIL"
        with self.capsys.disabled():
            print(f"[criterion {self.number:02d}] {verdict} "
                  f"({elapsed:.1f}s / budget {self.budget:.0f}s) "
                  f"{self.detail}")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded {self.budget}s"
        return False


def test_criterion_01_constants(capsys):
    with _Gate(capsys, 1, 1.0) as g:
        c1 = c_rho(1.0)
        c_half = c_rho(0.5)
        assert c1 > 1 / 128
        assert c_half > 1 / 6001
        for k in range(1, 11):
            rho = k / 10
            assert c_rho(rho) > math.exp(-1 - 4 / rho)
        g.detail = f"c(1)={c1:.6f} c(1/2)={c_half:.2e}"


def test_criterion_02_sifted_set_oracle_equivalence(capsys):
    with _Gate(capsys, 2, 10.0) as g:
        rng = random.Random(424242)
        for _ in range(50):
            system = random_table_system(rng, prime_cap=50, max_classes=3)
            x = 50
            shift = ShiftVector({p: rng.randrange(p)
                                 for p in system.active_primes(x)})
            lo = rng.randint(-5000, 5000)
            hi = lo + 10 ** 4 - 1
            window = sift(system, x, shift, lo, hi)
            expect = brute_members(system, x, shift, lo, hi)
            assert list(window.members()) == expect
            gap = largest_gap(window)
            length, left, sentinel = brute_gap(expect, lo, hi)
            assert (gap.length, gap.left, gap.sentinel) == \
                (length, left, sentinel)
        g.detail = "50 systems, 10^4-wide windows, exact match"


def test_criterion_03_mertens_track(capsys):
    with _Gate(capsys, 3, 60.0) as g:
        report = mertens_fit(ERA, [10 ** k for k in range(2, 7)])
        track = dict(report.mertens_track)[10 ** 6]
        assert abs(track / 0.5615 - 1) < 0.05
        assert not report.flagged_not_one_dimensional
        # rho-supportedness of n^2+1 with rho = 1/2: the defining quantity
        # is the relative density of supported primes among all primes.
        # The x/log-x-normalized rho_hat is reported alongside; at finite
        # x it runs ~10% high because x/log x undercounts primes.
        system = polynomial_system("n^2+1")
        x = 10 ** 5
        active = len(system.active_primes(x))
        total = len(primes_upto(x))
        density = active / total
        assert abs(density / 0.5 - 1) < 0.10
        rho_hat = estimate_rho(system, x)
        g.detail = (f"sigma*log={track:.6f} density={density:.4f} "
                    f"rho_hat={rho_hat:.4f}")


def test_criterion_04_exact_first_moment(capsys):
    with _Gate(capsys, 4, 1.0) as g:
        report = exact_first_moment(ERA, 7, 50)
        assert report.exact
        assert report.extras["mean_fraction"] == "80/7"
        assert report.extras["equal"]
        g.detail = "mean over 210 shifts = 80/7 exactly"


def test_criterion_05_correlation_and_error_exactness(capsys):
    with _Gate(capsys, 5, 30.0) as g:
        # correlation_exact vs full enumeration over b mod P2 = 5005
        H, M, z = 1.2857, 4.6, 13
        ps = [int(p) for p in primes_in_range(H ** M, z)]
        assert ps == [5, 7, 11, 13]
        P2 = math.prod(ps)
        assert P2 <= 10 ** 5
        rng = random.Random(515)
        for _ in range(20):
            U = sorted({rng.randint(0, 200) for _ in range(rng.randint(1, 3))})
            hits = sum(
                all(all((u + b) % p != 0 for p in ps) for u in U)
                for b in range(P2))
            got = correlation_exact(ERA, [-u for u in U], H, M, z)
            assert abs(got - hits / P2) <= 1e-9 * max(hits / P2, 1e-30)
        # error_E vs its definitional sum over squarefree d | P2
        H2, M2 = 2.0, 4.6
        for _ in range(20):
            zz = rng.choice([36, 45, 60])
            qs = [int(p) for p in primes_in_range(H2 ** M2, zz)]
            assert 2 ** len(qs) <= 10 ** 4
            A = rng.randint(1, 3)
            m = rng.randint(-300, 300)
            expect = Fraction(0)
            for mask in range(1, 2 ** len(qs)):
                sub = [q for i, q in enumerate(qs) if mask >> i & 1]
                if all(m % q == 0 for q in sub):
                    expect += Fraction(A ** len(sub), math.prod(sub))
            assert error_E(ERA, A, m, H2, M2, zz) == expect
        g.detail = "20 + 20 instances, exact agreement"


def test_criterion_06_lambda_moment_monte_carlo(capsys):
    with _Gate(capsys, 6, 600.0) as g:
        params = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                               force_scales=[3.0])
        assert params.z <= 200 and params.y <= 10 ** 4 and params.K == 3
        zs = {}
        for identity in ("ii", "iii"):
            for j in (0, 1):
                rep = mc_lambda_moments(ERA, params, 3.0, j, trials=1000,
                                        seed=606, identity=identity)
                zs[(identity, j)] = rep.z_score
                assert abs(rep.z_score) <= 3
        # j = 2: relative deviation from the prediction shrinks (median
        # of 5 seeds) when the window doubles
        devs = {}
        for x in (2_950, 5_900):
            p = derive_params(ERA, x, delta=0.001, force_z=200,
                              force_scales=[3.0])
            ds = []
            for s in range(1000, 1005):
                rep = mc_lambda_moments(ERA, p, 3.0, 2, trials=60, seed=s,
                                        identity="ii")
                ds.append(abs(rep.estimated / rep.predicted - 1))
            devs[x] = sorted(ds)[2]
        assert devs[5_900] < devs[2_950]
        g.detail = (f"max|z|={max(abs(v) for v in zs.values()):.2f}, "
                    f"j=2 dev {devs[2_950]:.4f}->{devs[5_900]:.4f}")


def test_criterion_07_covering(capsys):
    with _Gate(capsys, 7, 300.0) as g:
        instance = progression_instance(10 ** 4, 4.0, 0.05)
        hyp = check_hypotheses(instance, 0.25, y=10 ** 5)
        assert hyp.all_ok, [c.name for c in hyp.conditions if not c.ok]
        plan = plan_rounds(0.05, 0.25, 4.0)
        target = 10 * instance.eta
        successes = 0
        for seed in range(100):
            part = assign_indices(instance.s, plan,
                                  derive_seed(seed, "assign"))
            res = run_cover(instance, plan, part, derive_seed(seed, "run"))
            successes += res.uncovered_fraction <= target
        assert successes >= 50
        fixed = plan_rounds(0.01, 0.25, 4.0, beta=4.0)
        assert fixed.m == 4
        g.detail = f"{successes}/100 seeds uncovered<=0.5, m(0.01,0.25,b=4)=4"


def test_criterion_08_construction_beats_baseline(capsys):
    with _Gate(capsys, 8, 600.0) as g:
        wins = {}
        for x in (100, 200, 300):
            params = derive_params(ERA, x)
            won = 0
            for seed in range(50):
                built = construct(ERA, params, seed)
                base = trivial_baseline(ERA, x, seed)
                assert verify_empty(ERA, x, built.shift, 1, built.length)
                assert verify_empty(ERA, x, base.shift, 1, base.length)
                won += built.length >= base.length
            assert won >= 40
            wins[x] = won
        g.detail = "wins/50: " + " ".join(f"x={x}:{w}"
                                          for x, w in wins.items())


def test_criterion_09_composite_runs(capsys):
    with _Gate(capsys, 9, 300.0) as g:
        brute = composite_run_bruteforce("n^2+1", 10 ** 6)
        # FROZEN fixture: longest run of n in [1, 10^6] with n^2+1 composite
        assert (brute.start, brute.length) == (840_905, 211)
        assert brute.probabilistic_checks == 0
        failures = 0
        for seed in range(20):
            r = composite_run_constructed("n^2+1", 10 ** 6, seed)
            assert r.verified
            for n in range(r.start, r.start + r.length):
                if primality(n * n + 1)[0]:
                    failures += 1
        assert failures == 0
        g.detail = f"brute=({brute.start},{brute.length}), 20 seeds verified"


def test_criterion_10_coprimality(capsys):
    with _Gate(capsys, 10, 300.0) as g:
        # f(n) = n: searched witnesses pass independent pairwise gcd checks
        w = coprimality_witness("n", 17, 3_000)
        assert w.found
        vals = [w.n + i for i in range(1, 18)]
        for i, v in enumerate(vals):
            shared = False
            for j, u in enumerate(vals):
                if i != j and math.gcd(v, u) > 1:
                    shared = True
                    break
            assert shared, f"index {i} coprime to the rest"
        none = coprimality_witness("n", 10, 2_000)   # none exists for k<17
        assert not none.found
        # f(n) = n^2+1: constructed witness, per-index "divisible by some
        # prime > d" verified by stripping all prime factors <= d = 2
        c = coprimality_constructed("n^2+1", 100, seed=0)
        assert c.k_verified == c.k_requested >= 10
        for i in range(1, c.k_verified + 1):
            v = (c.n + i) ** 2 + 1
            while v % 2 == 0:
                v //= 2
            assert v > 1
        g.detail = f"n={w.n} (k=17); constructed k={c.k_verified}"
