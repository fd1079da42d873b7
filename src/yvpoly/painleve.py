"""Rational solutions of the second Painleve equation w'' = 2w^3 + zw + n.

w_n is kept as a numerator/denominator pair of integer polynomials, the
denominator Q_{n-1} Q_n. Identity checks (the P_II residual, the Backlund
recurrence) are exact polynomial computations; no floating point.

The pair is in lowest terms since consecutive Q_n are coprime with simple
roots (Fukutani-Okamoto-Umemura); `rational_solution` proves it for each n
by one Euclid run over GF(p), `intpoly.certify_coprime`. The Backlund step
stays unreduced, N/(D E), and is compared with the direct w_{n+1} by
cross-multiplication, no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .intpoly import IntPoly, certify_coprime
from .report import VerificationReport


class DegenerateDenominator(Exception):
    """The Backlund denominator expression vanished identically."""


@dataclass(frozen=True)
class RationalSolution:
    n: int
    numerator: IntPoly
    denominator: IntPoly

    def is_zero(self) -> bool:
        return not self.numerator

    def __eq__(self, other):
        if not isinstance(other, RationalSolution):
            return NotImplemented
        # equality of rational functions: cross-multiplication
        return (self.n == other.n
                and self.numerator * other.denominator
                == other.numerator * self.denominator)


def rational_solution(records: Sequence, n: int) -> RationalSolution:
    """w_n = Q_{n-1}'/Q_{n-1} - Q_n'/Q_n, certified in lowest terms."""
    if n == 0:
        return RationalSolution(0, IntPoly.zero(), IntPoly.one())
    if n < 1 or n >= len(records):
        raise ValueError(f"records up to {n} required")
    p, q = records[n - 1].poly, records[n].poly
    num = p.derivative() * q - p * q.derivative()
    den = p * q
    certify_coprime(num, den, f"w_{n}")
    return RationalSolution(n, num, den)


def pII_residual(w: RationalSolution) -> VerificationReport:
    """Numerator of w'' - 2w^3 - zw - n over D^3; pass iff identically zero."""
    nn, dd = w.numerator, w.denominator
    a = nn.derivative() * dd - nn * dd.derivative()
    wpp_num = a.derivative() * dd - 2 * a * dd.derivative()  # w'' * D^3
    z = IntPoly.z()
    residual = (wpp_num
                - 2 * (nn * nn * nn)
                - z * nn * (dd * dd)
                - w.n * (dd * dd * dd))
    rep = VerificationReport(suite="pii", n=w.n)
    if residual:
        rep.fail({"residual_degree": residual.degree})
    return rep


def backlund_next(w: RationalSolution, n: int) -> RationalSolution:
    """w_{n+1} = -w_n - (2n+1) / (2 w_n^2 + 2 w_n' + z), not reduced.

    Independent of the polynomial-family route: only the fraction for w_n
    enters. The result is N/(D E) with its integer content removed and a
    positive leading denominator coefficient; it must equal rational_solution
    at n+1 as a rational function (RationalSolution's cross-multiplied ==).
    """
    nn, dd = w.numerator, w.denominator
    z = IntPoly.z()
    # (2 w^2 + 2 w' + z) * D^2
    e = 2 * (nn * nn) + 2 * (nn.derivative() * dd - nn * dd.derivative()) + z * (dd * dd)
    if not e:
        raise DegenerateDenominator(f"Backlund denominator vanishes at n={n}")
    num = -(nn * e + (2 * n + 1) * (dd * dd * dd))
    den = dd * e
    c = gcd(*num.coeffs, *den.coeffs)
    if den.leading < 0:
        c = -c
    if c != 1:
        num = IntPoly([x // c for x in num.coeffs])
        den = IntPoly([x // c for x in den.coeffs])
    return RationalSolution(n + 1, num, den)
