"""Admissible-exponent supremum and derangement densities."""

import math
from fractions import Fraction

import pytest

from sievegap.constants import (_boundary, c_rho, c_rho_lower_bound,
                                constants_report, rho_derangement)
from sievegap.errors import DomainError


def test_c_rho_headline_bounds():
    assert c_rho(1.0) > 1 / 128
    assert c_rho(0.5) > 1 / 6001


def test_c_rho_beats_closed_form_lower_bound():
    for k in range(1, 11):
        rho = k / 10
        assert c_rho(rho) > c_rho_lower_bound(rho)


def test_c_rho_nondecreasing():
    vals = [c_rho(r) for r in [0.05 * k for k in range(1, 40)]]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_boundary_function_increasing():
    grid = [1e-6 + (0.5 - 2e-6) * k / 1000 for k in range(1001)]
    vals = [_boundary(d) for d in grid]
    for a, b in zip(vals, vals[1:]):
        assert b > a


def test_c_rho_value_is_the_boundary_crossing():
    for rho in (0.5, 1.0, 2.0):
        val = c_rho(rho)
        if val < 0.5 - 1e-6:
            assert _boundary(max(val - 1e-7, 1e-12)) < rho
            assert _boundary(val + 1e-7) >= rho


def test_c_rho_rejects_nonpositive():
    with pytest.raises(DomainError):
        c_rho(0)
    with pytest.raises(DomainError):
        c_rho_lower_bound(-1)


def test_c_rho_rejects_tol_outside_open_quarter():
    """The bracket [tol, 1/2 - tol] needs tol < 1/4, and tol > 2^-55:
    below, 1/2 - tol rounds to 1/2, where the boundary function would
    divide by log 1 = 0.  Just above 2^-55 it still bisects."""
    for tol in (0.0, -1.0, 0.25, 1.0, float("nan"), 2.0 ** -55, 2.7e-17,
                1e-300, 5e-324):
        with pytest.raises(DomainError,
                           match=r"tol must lie in \(2\^-55, 1/4\)"):
            c_rho(1.0, tol)
    assert c_rho(1.0, 0.2) == 0.2             # the sup lies below the bracket
    assert c_rho(1.0, 3e-17) == pytest.approx(0.0078412467401, abs=1e-13)


def test_rho_derangement_values():
    assert rho_derangement(1) == 1
    assert rho_derangement(2) == Fraction(1, 2)
    assert rho_derangement(3) == Fraction(2, 3)
    assert rho_derangement(3) >= Fraction(5, 8)
    with pytest.raises(DomainError):
        rho_derangement(0)


def test_rho_derangement_alternates_to_limit():
    limit = 1 - 1 / math.e
    for d in range(1, 12):
        assert abs(float(rho_derangement(d)) - limit) <= \
            1 / math.factorial(d + 1)


def test_constants_report():
    rep = constants_report(1.0)
    assert rep.c_rho == pytest.approx(c_rho(1.0))
    assert rep.delta1_check
    assert rep.lower_bound == pytest.approx(math.exp(-5))
