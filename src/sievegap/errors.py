"""Exception hierarchy."""

from contextlib import contextmanager


class SievegapError(Exception):
    """Base class for domain errors (CLI exit code 1)."""


class DomainError(SievegapError):
    """Invalid argument for an operation (non-prime modulus, bad range...)."""


class DegenerateSystemError(SievegapError):
    """A prime sieves out every residue class; sifting cannot proceed."""

    def __init__(self, p: int):
        super().__init__(f"sieving system is degenerate at p={p}")
        self.prime = p


class EnumerationLimitError(SievegapError):
    """An exact enumeration would exceed its configured size guard."""


@contextmanager
def fits_in_memory(what: str):
    """Refuse the block's MemoryError as DomainError("<what> does not fit
    in memory"), so that a size too large for this machine exits 1 with
    its size instead of a traceback."""
    try:
        yield
    except MemoryError:
        raise DomainError(f"{what} does not fit in memory") from None
