"""Exact computation and verification for the Yablonskii-Vorob'ev polynomials
and the rational solutions of the second Painleve equation."""

from .intpoly import IntPoly, newton_power_sums
from .quotient import QuotientContext
from .family import YvRecord, generate
from .painleve import RationalSolution, rational_solution
from .series import inverse_power_sums

__all__ = [
    "IntPoly", "QuotientContext",
    "YvRecord", "RationalSolution", "RootSet",
    "generate", "rational_solution", "roots_for_record",
    "inverse_power_sums", "newton_power_sums",
]

__version__ = "0.1.0"


def __getattr__(name):
    """RootSet and roots_for_record, from the root finder, which loads
    mpmath: imported on first use, so exact work never pays for either."""
    if name in ("RootSet", "roots_for_record"):
        from . import roots
        return getattr(roots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
