import pytest
from hypothesis import given
from hypothesis import strategies as st

from yvpoly.intpoly import IntPoly, UnexpectedCommonFactor, certify_coprime
from yvpoly.quotient import QuotientContext

ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
int_polys = st.lists(ints, max_size=6).map(IntPoly)
small_residues = st.lists(ints, max_size=8).map(IntPoly)


class TestQuotient:
    # Z[a]/(a^3 + 4): the ring has no inverses, only certified factors
    H = IntPoly([4, 0, 0, 1])

    def test_inverse_of_generator(self):
        # a (-a^2) = -a^3 = 4: a is a unit up to the integer 4
        ctx = QuotientContext(self.H)
        assert ctx.reduce(IntPoly.z() * IntPoly([0, 0, -1])) == IntPoly([4])

    def test_identity(self):
        ctx = QuotientContext(self.H)
        a, one = IntPoly.z(), IntPoly.one()
        assert ctx.reduce(one * a) == a
        assert ctx.reduce(one * one) == one

    def test_not_invertible(self):
        # z - 1 shares its root with z^2 - 1: the certificate rejects it
        with pytest.raises(UnexpectedCommonFactor) as exc:
            certify_coprime(IntPoly([-1, 1]), IntPoly([-1, 0, 1]), "test")
        assert exc.value.gcd_degree == 1

    def test_family_coprimality(self, records16):
        # the certificates the exact route relies on: consecutive Q_n share
        # no root, and every root of Q_n is simple
        for n in range(16):
            q, nxt = records16[n].poly, records16[n + 1].poly
            certify_coprime(q, nxt, f"Q_{n}, Q_{n + 1}")
            certify_coprime(q.derivative(), q, f"Q_{n}', Q_{n}")

    def test_pow_negative(self):
        # a^3 = -4: a power of a is a product, never an inverse
        ctx = QuotientContext(self.H)
        a = IntPoly.z()
        assert ctx.reduce(ctx.reduce(a * a) * a) == IntPoly([-4])
        assert ctx.reduce(a * a * a) == IntPoly([-4])

    def test_rejects_non_monic_modulus(self):
        with pytest.raises(ValueError):
            QuotientContext(IntPoly([4, 0, 0, 2]))

    @given(f=int_polys, r=st.lists(ints, max_size=3).map(IntPoly),
           x=small_residues, y=small_residues, w=small_residues)
    def test_inv_roundtrip(self, f, r, x, y, w):
        # the canonical remainder, and the ring laws on reduced residues
        ctx = QuotientContext(self.H)
        assert ctx.reduce(f * self.H + r) == r
        x, y, w = ctx.reduce(x), ctx.reduce(y), ctx.reduce(w)

        def mul(u, v):
            return ctx.reduce(u * v)

        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), w) == mul(x, mul(y, w))
        assert mul(x + y, w) == mul(x, w) + mul(y, w)
