"""Rational solutions of the second Painleve equation w'' = 2w^3 + zw + n.

w_n is kept as a numerator/denominator pair of integer polynomials, the
denominator Q_{n-1} Q_n. Identity checks (the P_II residual, the Backlund
recurrence) are exact polynomial computations; no floating point. Each
forms its products once: the numerator of w_n is 2 (p'q) - (pq)' with pq
the denominator; the P_II residual of N/D, D (a' - zND - nD^2) - 2aD' -
2N^3 with a = N'D - ND', is expanded to D U + 2N (D' - N)(D' + N), U =
D (N'' - zN - nD) - 2N'D' - ND'', six products; and the Backlund step
reuses D^2 in D^3.

The pair is in lowest terms since consecutive Q_n are coprime with simple
roots (Fukutani-Okamoto-Umemura); `rational_solution` proves it for each n
by one Euclid run over GF(p), `intpoly.certify_coprime`. The Backlund step
stays unreduced, N/(D E), and is compared with the direct w_{n+1} by
cross-multiplication, no gcd.
"""

from __future__ import annotations

from typing import Sequence

from .intpoly import IntPoly, certify_coprime
from .relations import TABLES
from .report import Frozen, VerificationReport, timed


class RationalSolution(Frozen):  # no hash: == cross-multiplies
    n: int
    numerator: IntPoly
    denominator: IntPoly

    def __init__(self, n, numerator, denominator):
        vars(self).update(n=n, numerator=numerator, denominator=denominator)

    def __eq__(self, other):
        if not isinstance(other, RationalSolution):
            return NotImplemented
        # equality of rational functions: cross-multiplication
        return (self.n == other.n
                and self.numerator * other.denominator
                == other.numerator * self.denominator)


def rational_solution(records: Sequence, n: int) -> RationalSolution:
    """w_n = Q_{n-1}'/Q_{n-1} - Q_n'/Q_n, certified in lowest terms, built
    once per pair of records and dropped with them (relations.TABLES)."""
    if n < 0 or n >= len(records):
        raise ValueError(f"records up to {n} required")
    return TABLES.get(records[max(n - 1, 0):n + 1], "w",
                      lambda: _build_solution(records, n))


def _build_solution(records: Sequence, n: int) -> RationalSolution:
    if n == 0:
        return RationalSolution(0, IntPoly.zero(), IntPoly.one())
    p, q = records[n - 1].poly, records[n].poly
    den = p * q
    num = 2 * (p.derivative() * q) - den.derivative()  # p'q - pq'
    certify_coprime(num, den, f"w_{n}")
    return RationalSolution(n, num, den)


@timed
def pII_residual(w: RationalSolution) -> VerificationReport:
    """Numerator of w'' - 2w^3 - zw - n over D^3; pass iff identically zero."""
    nn, dd = w.numerator, w.denominator
    n1, d1 = nn.derivative(), dd.derivative()
    # a'D - 2aD' - 2N^3 - zND^2 - nD^3, a = N'D - ND' = w' D^2, expanded
    # and regrouped: D U + 2N (D' - N)(D' + N)
    u = (dd * (n1.derivative() - IntPoly.z() * nn - w.n * dd)
         - 2 * (n1 * d1) - nn * d1.derivative())
    residual = dd * u + 2 * (nn * ((d1 - nn) * (d1 + nn)))
    rep = VerificationReport(suite="pii", n=w.n)
    if residual:
        rep.fail({"residual_degree": residual.degree})
    return rep


def backlund_next(w: RationalSolution, n: int) -> RationalSolution:
    """w_{n+1} = -w_n - (2n+1) / (2 w_n^2 + 2 w_n' + z), not reduced.

    Independent of the polynomial-family route: only the fraction for w_n
    enters. The result is N/(D E) as formed; for w_n from rational_solution
    D and E are monic (z D^2 leads E), and == cross-multiplies, so it must
    equal rational_solution at n+1 as a rational function. E = D^2 (2w^2 +
    2w' + z) != 0 for D != 0: at infinity z outranks 2w^2 + 2w' unless w
    grows, and then 2w^2 outranks 2w' + z.
    """
    nn, dd = w.numerator, w.denominator
    z = IntPoly.z()
    d2 = dd * dd
    # (2 w^2 + 2 w' + z) * D^2
    e = 2 * (nn * nn) + 2 * (nn.derivative() * dd - nn * dd.derivative()) + z * d2
    num = -(nn * e + (2 * n + 1) * (d2 * dd))
    return RationalSolution(n + 1, num, dd * e)
