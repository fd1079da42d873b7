"""Arithmetic in Z[a]/(M(a)) for a fixed monic integer modulus M.

An element is the canonical remainder of an integer polynomial modulo M,
as `intpoly._divmod_seq`, the package's one division routine, computes it;
since M is monic, no coefficient is divided and reduction stays in the
integers.
Working modulo M evaluates an expression simultaneously at every root of M,
so an identity holds at all roots iff its residue is the literal zero. The
ring has no inverses: callers clear denominators instead, multiplying by
elements whose invertibility they have certified separately.
"""

from __future__ import annotations

from .intpoly import IntPoly, _divisor, _divmod_seq


class QuotientContext:
    """Fixed monic modulus; builds and canonicalizes residues."""

    __slots__ = ("modulus", "_divisor")

    def __init__(self, modulus: IntPoly):
        if not modulus or modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus.leading != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self._divisor = _divisor(modulus.coeffs)

    def _reduce(self, coeffs) -> IntPoly:
        return IntPoly(_divmod_seq(coeffs, self._divisor)[1])

    def element(self, poly) -> "QuotientElement":
        """The residue class of an IntPoly or an int."""
        if isinstance(poly, int):
            poly = IntPoly((poly,))
        return QuotientElement(self, self._reduce(poly.coeffs))

    def one(self) -> "QuotientElement":
        return self.element(1)

    def __eq__(self, other):
        return isinstance(other, QuotientContext) and self.modulus == other.modulus

    def __repr__(self):
        return f"QuotientContext(degree={self.modulus.degree})"


class QuotientElement:
    __slots__ = ("ctx", "residue")

    def __init__(self, ctx: QuotientContext, residue: IntPoly):
        self.ctx = ctx
        self.residue = residue

    def is_zero(self) -> bool:
        return not self.residue

    def __eq__(self, other):
        if isinstance(other, QuotientElement):
            return self.ctx == other.ctx and self.residue == other.residue
        return NotImplemented

    def __repr__(self):
        return f"QuotientElement({self.residue!r})"

    def __neg__(self):
        return QuotientElement(self.ctx, -self.residue)

    def __add__(self, other):
        return QuotientElement(self.ctx, self.residue + other.residue)

    def __sub__(self, other):
        return QuotientElement(self.ctx, self.residue - other.residue)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuotientElement(self.ctx, self.residue * other)
        return QuotientElement(self.ctx, self.ctx._reduce(
            (self.residue * other.residue).coeffs))

    __rmul__ = __mul__
