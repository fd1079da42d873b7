"""Reduction in Z[a]/(M(a)) for a fixed monic integer modulus M.

A residue is a plain IntPoly, the canonical remainder modulo M that
`intpoly._divmod_seq`, the package's one division routine, computes; since
M is monic, no coefficient is divided and reduction stays in the integers.
Callers add and multiply residues as IntPolys and reduce when they choose.
Working modulo M evaluates an expression simultaneously at every root of M,
so an identity holds at all roots iff its residue is the literal zero. The
ring has no inverses: callers clear denominators instead, multiplying by
residues whose invertibility they have certified separately.
"""

from __future__ import annotations

from .intpoly import IntPoly, _divisor, _divmod_seq


class QuotientContext:
    """Fixed monic modulus; reduces integer polynomials modulo it."""

    __slots__ = ("modulus", "_divisor")

    def __init__(self, modulus: IntPoly):
        if not modulus or modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus.leading != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self._divisor = _divisor(modulus.coeffs)

    def reduce(self, poly: IntPoly) -> IntPoly:
        """The canonical remainder of poly modulo the modulus."""
        return IntPoly(_divmod_seq(poly.coeffs, self._divisor)[1])

    def __repr__(self):
        return f"QuotientContext(degree={self.modulus.degree})"
