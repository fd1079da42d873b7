"""Exact computation and verification for the Yablonskii-Vorob'ev polynomials
and the rational solutions of the second Painleve equation."""

from .intpoly import IntPoly, newton_power_sums
from .quotient import QuotientContext
from .family import YvRecord, generate
from .painleve import RationalSolution, rational_solution
from .roots import RootSet, roots_for_record
from .series import inverse_power_sums

__all__ = [
    "IntPoly", "QuotientContext",
    "YvRecord", "RationalSolution", "RootSet",
    "generate", "rational_solution", "roots_for_record",
    "inverse_power_sums", "newton_power_sums",
]

__version__ = "0.1.0"
