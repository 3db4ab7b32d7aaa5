"""Numeric constants: the admissible-exponent supremum C(rho) and the
derangement densities generic for degree-d polynomials."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

_BISECTION_ITERS = 200


def _boundary(delta: float) -> float:
    """g(delta) = (4 + delta) 10^{2 delta} / log(1/(2 delta)).

    Increasing on (0, 1/2); delta is admissible for rho iff g(delta) < rho.
    """
    return (4 + delta) * 10.0 ** (2 * delta) / math.log(1 / (2 * delta))


def c_rho(rho: float, tol: float = 1e-9) -> float:
    """sup{delta in (0, 1/2) : (4+delta) 10^{2 delta} / log(1/(2 delta)) < rho}.

    Bisection on the increasing boundary function, bracket
    [tol, 1/2 - tol], capped at 1/2.  tol must exceed 2^-55, or 1/2 - tol
    rounds to 1/2, where the boundary function divides by log 1 = 0.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    if not 2.0 ** -55 < tol < 0.25:
        raise DomainError(f"tol must lie in (2^-55, 1/4), got {tol}")
    lo, hi = tol, 0.5 - tol
    if _boundary(lo) >= rho:
        # even the smallest bracketed delta fails; the true sup is below tol
        return lo
    if _boundary(hi) < rho:
        return 0.5
    for _ in range(_BISECTION_ITERS):
        mid = (lo + hi) / 2
        if _boundary(mid) < rho:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return lo


def c_rho_lower_bound(rho: float) -> float:
    """The closed-form lower bound e^{-1 - 4/rho}."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    return math.exp(-1 - 4 / rho)


def rho_derangement(d: int) -> Fraction:
    """rho_d = sum_{k=1}^{d} (-1)^{k+1} / k!  (fixed-point density in S_d)."""
    if d < 1:
        raise DomainError("d must be >= 1")
    return sum((Fraction((-1) ** (k + 1), math.factorial(k))
                for k in range(1, d + 1)), Fraction(0))


@dataclass
class ConstantsReport:
    rho: float
    c_rho: float
    lower_bound: float
    delta1_check: bool


def constants_report(rho: float, tol: float = 1e-9) -> ConstantsReport:
    val = c_rho(rho, tol)
    eps = max(tol, 1e-12)
    inside = max(val - eps, eps)
    return ConstantsReport(
        rho=rho,
        c_rho=val,
        lower_bound=c_rho_lower_bound(rho),
        delta1_check=_boundary(inside) < rho,
    )
