import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from yvpoly.intpoly import IntPoly, UnexpectedCommonFactor, certify_coprime
from yvpoly.quotient import QuotientContext
from yvpoly.ratpoly import RatPoly, rat_gcd, rat_gcd_ext

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=6)
small_polys = st.lists(fracs, max_size=6).map(RatPoly)
nonzero_polys = small_polys.filter(bool)
ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
int_polys = st.lists(ints, max_size=6).map(IntPoly)
small_residues = st.lists(ints, max_size=8).map(IntPoly)


class TestRatPoly:
    def test_divmod(self):
        num = RatPoly([-1, 0, 1])  # z^2 - 1
        q, r = divmod(num, RatPoly([-1, 1]))
        assert q == RatPoly([1, 1]) and not r

    @given(a=small_polys, b=nonzero_polys)
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert not r or r.degree < b.degree


class TestGcd:
    def test_shared_linear_factor(self):
        g = rat_gcd(RatPoly([-1, 0, 1]), RatPoly([-1, 1]))
        assert g == RatPoly([-1, 1])

    def test_equal_inputs(self):
        assert rat_gcd(RatPoly([0, 1]), RatPoly([0, 1])) == RatPoly([0, 1])

    def test_family_coprimality(self, records8):
        q2 = RatPoly.from_intpoly(records8[2].poly)
        q3 = RatPoly.from_intpoly(records8[3].poly)
        assert rat_gcd(q2, q3) == RatPoly.one()

    @given(a=small_polys, b=small_polys)
    def test_bezout(self, a, b):
        assume(a or b)
        g, s, t = rat_gcd_ext(a, b)
        assert s * a + t * b == g
        assert not a or not divmod(a, g)[1]
        assert not b or not divmod(b, g)[1]


class TestQuotient:
    # Z[a]/(a^3 + 4): the ring has no inverses, only certified factors
    H = IntPoly([4, 0, 0, 1])

    def test_inverse_of_generator(self):
        # a (-a^2) = -a^3 = 4: a is a unit up to the integer 4
        ctx = QuotientContext(self.H)
        a = ctx.element(IntPoly.z())
        assert a * ctx.element(IntPoly([0, 0, -1])) == ctx.element(4)

    def test_identity(self):
        ctx = QuotientContext(self.H)
        a = ctx.element(IntPoly.z())
        assert ctx.one() * a == a
        assert ctx.one() * ctx.one() == ctx.one()

    def test_not_invertible(self):
        # z - 1 shares its root with z^2 - 1: the certificate rejects it
        with pytest.raises(UnexpectedCommonFactor) as exc:
            certify_coprime(IntPoly([-1, 1]), IntPoly([-1, 0, 1]), "test")
        assert exc.value.gcd_degree == 1

    def test_pow_negative(self):
        # a^3 = -4: a power of a is a product, never an inverse
        ctx = QuotientContext(self.H)
        a = ctx.element(IntPoly.z())
        assert a * a * a == ctx.element(-4)
        assert not hasattr(a, "inv")

    def test_rejects_non_monic_modulus(self):
        with pytest.raises(ValueError):
            QuotientContext(IntPoly([4, 0, 0, 2]))

    @given(f=int_polys, r=st.lists(ints, max_size=3).map(IntPoly),
           x=small_residues, y=small_residues, w=small_residues)
    def test_inv_roundtrip(self, f, r, x, y, w):
        ctx = QuotientContext(self.H)
        assert ctx.element(f * self.H + r).residue == r
        x, y, w = ctx.element(x), ctx.element(y), ctx.element(w)
        assert x * y == y * x
        assert (x * y) * w == x * (y * w)
        assert (x + y) * w == x * w + y * w
