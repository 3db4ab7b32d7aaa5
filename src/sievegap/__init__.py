"""Sieving systems, long gaps in sifted sets, and desk-scale verification.

Modules:

- ``systems``: sieving systems (forbidden residue classes per prime),
  density products, empirical classification.
- ``window``: shifted sifted-set windows, gap search, certification.
- ``construction``: the three-stage randomized gap construction.
- ``cover``: hypergraph covering rounds (semi-random method).
- ``moments``: exact correlation/error sums and Monte Carlo moment checks.
- ``constants``: the admissible-exponent supremum and derangement densities.
- ``applications``: composite runs of polynomial values and coprimality
  witnesses.
- ``cli``: the ``sievegap`` command-line entry point.
"""

from .constants import c_rho, c_rho_lower_bound, constants_report, rho_derangement
from .rng import DEFAULT_SEED, derive_seed
from .systems import (IntPolynomial, SievingSystem, eratosthenes, mertens_fit,
                      period, polynomial_system, sigma, system_from_spec,
                      twin_system)
from .window import ShiftVector, largest_gap, sift, verify_empty

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED", "IntPolynomial", "ShiftVector", "SievingSystem",
    "c_rho", "c_rho_lower_bound", "constants_report", "derive_seed",
    "eratosthenes", "largest_gap", "mertens_fit", "period",
    "polynomial_system", "rho_derangement", "sift", "sigma",
    "system_from_spec", "twin_system", "verify_empty", "__version__",
]
