"""Polynomials over the exact rationals, with division and extended Euclid.

Coefficients are fractions.Fraction, always in lowest terms by construction.
No verification route uses this module any more: the exact relations run
in the integer ring of `quotient`. It stays importable for the package's
exports and for perfbench/tracer.py, which traces every layer module by
name, until both drop it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .intpoly import IntPoly


def _trim(coeffs: list) -> list:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


class RatPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = tuple(_trim([Fraction(c) for c in coeffs]))

    @classmethod
    def from_intpoly(cls, p: IntPoly) -> "RatPoly":
        return cls(p.coeffs)

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((Fraction(other),) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]!r})"

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return RatPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, den: "RatPoly"):
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self or self.degree < den.degree:
            return RatPoly(), self
        rem = list(self.coeffs)
        dc = den.coeffs
        dd = len(dc) - 1
        inv_lead = 1 / dc[-1]
        q = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(q) - 1, -1, -1):
            c = rem[i + dd]
            if not c:
                continue
            qi = c * inv_lead
            q[i] = qi
            rem[i + dd] = Fraction(0)
            for k in range(dd):
                if dc[k]:
                    rem[i + k] -= qi * dc[k]
        return RatPoly(q), RatPoly(rem)

    def __mod__(self, den):
        return divmod(self, den)[1]

    def __floordiv__(self, den):
        return divmod(self, den)[0]

    def monic(self) -> "RatPoly":
        if not self:
            return self
        inv = 1 / self.leading
        return RatPoly([c * inv for c in self.coeffs])

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_intpoly(self) -> IntPoly:
        """Clear denominators must be trivial: all coefficients integral."""
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("non-integer coefficients")
        return IntPoly([int(c) for c in self.coeffs])


def rat_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    return a.monic()


def rat_gcd_ext(a: RatPoly, b: RatPoly):
    """Extended Euclid: returns (g, s, t) with g = s*a + t*b, g monic."""
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = a, b
    s0, s1 = RatPoly.one(), RatPoly.zero()
    t0, t1 = RatPoly.zero(), RatPoly.one()
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    scale = 1 / r0.leading
    return r0 * scale, s0 * scale, t0 * scale
