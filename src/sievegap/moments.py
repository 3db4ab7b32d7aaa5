"""Exact correlation / error-function computations and Monte Carlo
verification of the moment identities for a uniform random shift.

Throughout, the shift b is uniform modulo P(z) and S denotes the shifted
sifted set S_z + b.  The identities verified are:

(i)   E |S cap [1,y]|   = sigma(z) y            (exact),
      E |S cap [1,y]|^2 = (1 + O(1/log y)) (sigma y)^2,
(ii)  E sum_q (sum_n lambda(H;q,n))^j = (1 + o) ((K+1)y)^j |Q_H|,
(iii) E sum_{n in S cap [1,y]} (sum_q sum_{h<=KH} lambda(H;q,n-qh))^j
        = (1 + o) (|Q_H| K H / sigma2)^j sigma y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from .construction import Params, WeightTable, build_weight_tables
from .cover import sequential_sum
from .errors import DomainError, EnumerationLimitError
from .rng import derive_seed
from .systems import SievingSystem, period, sigma
from .window import MAX_WINDOW, ShiftVector, _strike, sift

EXACT_PERIOD_CAP = 100_000
MAX_MOMENT_CELLS = 100_000_000   # weight-table cells of one lambda trial


@dataclass
class MomentReport:
    identity: str
    predicted: float
    estimated: float
    std_error: float
    trials: int
    z_score: float
    exact: bool = False
    extras: dict = field(default_factory=dict)


def _report(identity: str, predicted: float, values: list[float],
            **extras) -> MomentReport:
    n = len(values)
    if n == 0:
        raise DomainError("no trials: cannot form an estimate")
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z = (mean - predicted) / se if se > 0 else 0.0
    return MomentReport(identity=identity, predicted=float(predicted),
                        estimated=mean, std_error=se, trials=n,
                        z_score=z, extras=extras)


# ---------------------------------------------------------------------------
# error function E_A


def _classes_by_prime(system: SievingSystem, x: float, z: float):
    """(p, I_p) for each active prime p in (z, x], from one read of the
    class table."""
    p, r = system.classes(x, z)
    for q, group in groupby(zip(p.tolist(), r.tolist()), key=itemgetter(0)):
        yield q, [res for _, res in group]


def error_E(system: SievingSystem, A, m: int, H: float, M: float, z: int):
    """sum over squarefree d > 1 with prime factors in (H^M, z] of
    (A^{omega(d)} / d) * 1{m mod d in I_d - I_d}.

    By the Chinese remainder theorem the indicator factors through the
    per-prime difference sets, so the sum is the product
    prod(1 + A/p) - 1 over the primes p in (H^M, z] with
    m mod p in I_p - I_p.  Exact rational arithmetic when A is an int or
    Fraction; a float A gives the exact sum rounded once to a float.
    """
    exact = isinstance(A, (int, Fraction))
    Aq = Fraction(A if exact else float(A))
    total = Fraction(1)
    # I_p empty makes I_p - I_p empty: only the primes with a class count
    for p, res in _classes_by_prime(system, z, H ** M):
        if m % p in {(a - b) % p for a in res for b in res}:
            total *= 1 + Aq / p
    return total - 1 if exact else float(total - 1)


# ---------------------------------------------------------------------------
# exact correlation


def correlation_exact(system: SievingSystem, U, H: float, M: float, z: int,
                      exact: bool = False):
    """Pr(U + b2 subset of S_{H^M, z} + b2 shifted ... ) — precisely, the
    probability over a uniform shift that every u in U survives the
    primes in (H^M, z]: product of (1 - |N_p - I_p| / p) with
    N_p = U mod p.  The product is exact, a Fraction when exact is set
    and otherwise rounded once to a float.
    """
    U = sorted(set(int(u) for u in U))
    out = Fraction(1)
    for p, res in _classes_by_prime(system, z, H ** M):
        forbidden = {(u - r) % p for u in U for r in res}
        out *= Fraction(p - len(forbidden), p)
    return out if exact else float(out)


# ---------------------------------------------------------------------------
# first and second moments of |S cap [1, y]|


def exact_first_moment(system: SievingSystem, z: int, y: int) -> MomentReport:
    """Enumerate every shift b mod P(z); the mean member count is an
    exact rational equal to sigma(z) y."""
    if z < 1:
        raise DomainError("z must be >= 1")
    P = period(system, z)
    if P > EXACT_PERIOD_CAP:
        raise EnumerationLimitError(f"P(z) = {P} exceeds {EXACT_PERIOD_CAP}")
    if y < 0:
        raise DomainError("y must be >= 0")
    bit = np.ones(P, dtype=bool)
    _strike(bit, 0, *system.classes(z), ShiftVector())
    total = 0
    bs = np.arange(P, dtype=np.int64)
    for n in range(1, y + 1):
        total += int(bit[(n - bs) % P].sum())
    mean = Fraction(total, P)
    predicted = sigma(system, 1, z, exact=True) * y
    rep = MomentReport(identity="i-first-exact", predicted=float(predicted),
                       estimated=float(mean), std_error=0.0, trials=P,
                       z_score=0.0, exact=True,
                       extras={"mean_fraction": f"{mean}",
                               "predicted_fraction": f"{predicted}",
                               "equal": mean == predicted})
    return rep


def _mc_counts(system: SievingSystem, z: int, y: int, trials: int,
               seed: int, label: str) -> list[int]:
    """|S cap [1, y]| for each of ``trials`` uniform shifts mod P(z), the
    t-th keyed by derive_seed(seed, label, t)."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not 0 <= y <= MAX_WINDOW:
        raise DomainError(f"y must lie in [0, {MAX_WINDOW}]")
    if z < 1:
        raise DomainError("z must be >= 1")
    classes = system.classes(z)
    counts = []
    for t in range(trials):
        b = ShiftVector.uniform(system, z, derive_seed(seed, label, t))
        bits = np.ones(y, dtype=bool)
        _strike(bits, 1, *classes, b)
        counts.append(int(bits.sum()))
    return counts


def mc_first_moment(system: SievingSystem, z: int, y: int, trials: int,
                    seed: int) -> MomentReport:
    vals = [float(c) for c in _mc_counts(system, z, y, trials, seed, "first")]
    predicted = float(sigma(system, 1, z)) * y
    return _report("i-first-mc", predicted, vals)


def mc_second_moment(system: SievingSystem, z: int, y: int, trials: int,
                     seed: int) -> MomentReport:
    vals = [float(c) ** 2
            for c in _mc_counts(system, z, y, trials, seed, "second")]
    predicted = (float(sigma(system, 1, z)) * y) ** 2
    rep = _report("i-second-mc", predicted, vals)
    rep.extras["relative_deviation"] = abs(rep.estimated / predicted - 1) \
        if predicted > 0 else float("inf")
    return rep


# ---------------------------------------------------------------------------
# lambda moments (identities ii and iii)


def iii_inner_sums(tables: dict[int, WeightTable], members: np.ndarray,
                   J: int) -> np.ndarray:
    """inner[i] = sum_q sum_{h <= J} lambda(H; q, members[i] - qh), added
    per member in the order of the tables, then of h, from 0.0.

    Each table fills one (J, |members|) array with a single gather; its
    rows are then added one at a time, in h order, since np.add.reduce
    documents no order (it adds a single column pairwise).
    """
    inner = np.zeros(len(members))
    lam = np.empty((J, len(members)))
    hs = np.arange(1, J + 1)[:, None]
    for q, tab in tables.items():
        k = members - (q * hs + tab.n_lo)
        tab.lut.take(tab.codes.take(k, mode="clip"), out=lam, mode="clip")
        lam[(k < 0) | (k >= len(tab.codes))] = 0.0
        for row in lam:
            inner += row
    return inner


def mc_lambda_moments(system: SievingSystem, params: Params, H: float,
                      j: int, trials: int, seed: int,
                      identity: str = "ii") -> MomentReport:
    """Monte Carlo for identity (ii) or (iii) at moment order j in {0,1,2}.

    Raises EnumerationLimitError when one trial's weight tables would hold
    more than MAX_MOMENT_CELLS cells."""
    if j not in (0, 1, 2):
        raise DomainError("j must be 0, 1 or 2")
    if identity not in ("ii", "iii"):
        raise DomainError("identity must be 'ii' or 'iii'")
    if H not in params.Q:
        raise DomainError(f"H={H} has no prime family in params")
    qs = params.Q[H]
    K, y = params.K, params.y
    table_cells = len(qs) * (K + 1) * y
    if table_cells > MAX_MOMENT_CELLS:
        raise EnumerationLimitError(
            f"identity {identity} would build {table_cells} weight-table "
            f"cells per trial, above {MAX_MOMENT_CELLS}; use a smaller --x "
            f"or --delta, or a larger scale through --force-scales or --H")
    sigma2 = params.sigma2[H]
    J = int(K * H)
    vals = []
    for t in range(trials):
        b = ShiftVector.uniform(system, params.z_eff,
                                derive_seed(seed, "lam", t))
        tables = build_weight_tables(system, params, b, H)
        if identity == "ii":
            v = sequential_sum([tab.total ** j for tab in tables.values()])
        else:
            members = sift(system, params.z_eff, b, 1, y).members()
            if j == 0:
                v = float(len(members))
            else:
                # Python's float power: numpy's ** 2 squares, which differs
                # from libm's pow in the last bit of some values
                inner = iii_inner_sums(tables, members, J)
                v = sequential_sum([s ** j for s in inner.tolist()])
        vals.append(float(v))
    if identity == "ii":
        predicted = ((K + 1) * y) ** j * len(qs)
    else:
        sig = float(sigma(system, 1, params.z_eff))
        predicted = (len(qs) * K * H / sigma2) ** j * sig * y
    rep = _report(f"{identity}-j{j}", predicted, vals,
                  H=H, K=K, y=y, n_q=len(qs), sigma2=sigma2)
    return rep
