import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yvpoly.intpoly import (
    IntPoly,
    NonIntegerQuotient,
    NonZeroRemainder,
    ZeroConstantTerm,
    newton_power_sums,
)
from yvpoly.roots import _horner

small_polys = st.lists(st.integers(-50, 50), max_size=8).map(IntPoly)
# coefficients that are often zero, nonzero leading coefficient, degree >= 1
sparse_polys = st.lists(
    st.one_of(st.just(0), st.integers(-30, 30)), min_size=1, max_size=9,
).flatmap(lambda low: st.integers(-5, 5).filter(bool).map(
    lambda lead: IntPoly(low + [lead])))
nonzero_polys = small_polys.filter(bool)


def P(*coeffs):
    """Low-to-high coefficient shorthand."""
    return IntPoly(coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_mul_by_monomial(self):
        assert IntPoly.z() * P(4, 0, 0, 1) == P(0, 4, 0, 0, 1)

    def test_square(self):
        # (z^3+4)^2 by hand: z^6 + 8 z^3 + 16
        assert P(4, 0, 0, 1) * P(4, 0, 0, 1) == P(16, 0, 0, 8, 0, 0, 1)

    def test_zero_annihilates(self):
        assert P(1, 2, 3) * IntPoly.zero() == IntPoly.zero()

    def test_constants_hash_as_the_ints_they_equal(self):
        assert IntPoly() == 0 and P(5) == 5 and P(-3) == -3
        assert len({0, IntPoly()}) == len({5, P(5)}) == len({-3, P(-3)}) == 1
        assert len({P(1, 2), P(1, 2), P(2, 1)}) == 2

    @given(a=small_polys, b=small_polys, c=small_polys)
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(a=small_polys, b=small_polys)
    def test_commutativity(self, a, b):
        assert a * b == b * a

    @given(a=st.integers(0, 120).flatmap(lambda n: st.lists(
        st.integers(-2**300, 2**300), min_size=n, max_size=n)),
           b=st.integers(0, 120).flatmap(lambda n: st.lists(
        st.integers(-2**300, 2**300), min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_karatsuba_matches_schoolbook(self, a, b):
        """The product kernel (Toom-3 since it replaced Karatsuba) and its
        squaring path against schoolbook, at every length up to 120."""
        from yvpoly.intpoly import _mul_seq, _school_mul, _sqr_seq
        assert _mul_seq(a, b) == (_school_mul(a, b) if a and b else [])
        assert _sqr_seq(a) == (_school_mul(a, a) if a else [])

    @given(a=st.integers(0, 80).flatmap(lambda n: st.lists(
        st.integers(-10**30, 10**30) | st.just(0), min_size=n, max_size=n)))
    @settings(max_examples=80)
    def test_squaring_matches_general_kernel(self, a):
        from yvpoly.intpoly import _mul_seq, _sqr_seq
        assert _sqr_seq(a) == _mul_seq(a, a)

    @given(coeffs=st.integers(0, 120).flatmap(lambda n: st.lists(
        st.integers(-10**20, 10**20), min_size=n, max_size=n)),
           shift=st.integers(0, 2), stride=st.sampled_from([1, 3]))
    @settings(max_examples=60)
    def test_square_path_matches_general_path(self, coeffs, shift, stride):
        # stride 3: support in one class mod 3 (the compressed path)
        body = [0] * (stride * len(coeffs))
        body[::stride] = coeffs
        p = IntPoly([0] * shift + body)
        assert p * p == p * IntPoly(p.coeffs)

    def test_stride3_fast_path(self):
        a = IntPoly([1, 0, 0, 2, 0, 0, 3, 0, 0, 4])
        b = IntPoly([0, 5, 0, 0, 6, 0, 0, 7])
        from yvpoly.intpoly import _school_mul
        assert (a * b).coeffs == tuple(_school_mul(a.coeffs, b.coeffs))


def _ramp(length, rng, zero_runs=False):
    """Coefficients of about 10 i bits at index i, both signs, as Q_n's
    compressed coefficients grow; with zero_runs, some stretches zeroed."""
    out = [rng.choice((-1, 1)) * rng.getrandbits(10 * i + 1)
           for i in range(length)]
    if zero_runs and length > 4:
        start = rng.randrange(length - 3)
        for i in range(start, start + rng.randint(1, 4)):
            out[i] = 0
    return out


class TestEvenOddKaratsuba:
    """The product kernel, Toom-3 on the stride-3 split since it replaced
    the even/odd Karatsuba this class is named for, against schoolbook.
    Shapes straddle TOOM_THRESHOLD in each length class mod 3, so that
    every part length and every unbalanced split reaches the join."""

    LENGTHS = [(1, 200), (200, 1), (9, 9), (10, 10), (17, 16), (33, 64),
               (64, 33), (9, 200), (101, 99), (12, 12), (13, 13), (14, 40),
               (13, 200), (200, 13), (37, 38), (39, 39), (223, 211)]

    @pytest.mark.parametrize("la,lb", LENGTHS)
    def test_mul_matches_schoolbook_on_ramps(self, la, lb):
        from yvpoly.intpoly import _mul_seq, _school_mul
        rng = random.Random(la * 1000 + lb)
        for zero_runs in (False, True):
            a, b = _ramp(la, rng, zero_runs), _ramp(lb, rng, zero_runs)
            assert _mul_seq(a, b) == _school_mul(a, b)
            assert _mul_seq(a[::-1], b) == _school_mul(a[::-1], b)

    @pytest.mark.parametrize("length", [1, 8, 9, 10, 31, 32, 33, 200,
                                        12, 13, 14, 37, 38, 39, 223])
    def test_sqr_matches_schoolbook_on_ramps(self, length):
        from yvpoly.intpoly import _school_mul, _sqr_seq
        rng = random.Random(length)
        for zero_runs in (False, True):
            a = _ramp(length, rng, zero_runs)
            assert _sqr_seq(a) == _school_mul(a, a)
            assert _sqr_seq(a[::-1]) == _school_mul(a[::-1], a[::-1])

    @pytest.mark.parametrize("zeroed", [(1,), (2,), (1, 2)])
    def test_zero_parts(self, zeroed):
        """a[1::3], a[2::3] or both all zero: a point's product, or two
        points', is zero or equal to another's."""
        from yvpoly.intpoly import _mul_seq, _school_mul, _sqr_seq
        rng = random.Random(str(zeroed))
        for la, lb in [(40, 40), (13, 90), (91, 14), (120, 119)]:
            a, b = _ramp(la, rng), _ramp(lb, rng)
            for k in zeroed:
                a[k::3] = [0] * len(a[k::3])
            assert _mul_seq(a, b) == _school_mul(a, b)
            assert _mul_seq(b, a) == _school_mul(a, b)
            assert _sqr_seq(a) == _school_mul(a, a)


def _school_divmod(num, den):
    """Long division, one leading term at a time over every entry; None
    when a quotient coefficient is not an integer."""
    rem, dd = list(num), len(den) - 1
    q = [0] * max(len(num) - dd, 0)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[i + dd], den[dd])
        if r:
            return None
        q[i] = c
        for k in range(dd + 1):
            rem[i + k] -= c * den[k]
    return q, rem[:dd]


class TestQuotientFirstDivision:
    """_divmod_seq above DIVISION_CUTOFF: the loop updates only the entries
    from deg(den) up and the remainder comes from one product."""

    @pytest.fixture(scope="class")
    def records30(self):
        from yvpoly import family
        return family.generate(31)

    def test_family_pairs(self, records30, monkeypatch):
        from yvpoly import intpoly
        monkeypatch.setattr(intpoly, "DIVISION_CUTOFF", 0)
        for n in range(2, 31):
            den = records30[n - 1].poly.coeffs
            num = (records30[n + 1].poly * records30[n - 1].poly).coeffs
            q, rem = intpoly._divmod_seq(num, intpoly._divisor(den))
            assert (q, rem) == _school_divmod(num, den)
            assert q == list(records30[n + 1].poly.coeffs) and not any(rem)

    @pytest.mark.parametrize("lead", [1, -1, 3])
    def test_random_divisors(self, lead, monkeypatch):
        from yvpoly import intpoly
        monkeypatch.setattr(intpoly, "DIVISION_CUTOFF", 0)
        rng = random.Random(lead)
        for _ in range(40):
            den = _ramp(rng.randint(1, 40), rng, True) + [lead]
            num = _ramp(rng.randint(0, 90), rng, True)
            if rng.random() < 0.5:  # an exact multiple plus a short tail
                num = intpoly._school_mul(_ramp(rng.randint(1, 50), rng), den)
                num[:3] = [c + rng.randint(-2, 2) for c in num[:3]]
            want = _school_divmod(num, den)
            if want is None:
                with pytest.raises(NonIntegerQuotient):
                    intpoly._divmod_seq(num, intpoly._divisor(den))
            else:
                assert intpoly._divmod_seq(num, intpoly._divisor(den)) == want

    def test_off_by_one_constant_term(self, records30):
        from yvpoly import intpoly
        q, den = records30[31].poly, records30[29].poly
        assert len(intpoly._divisor(den.coeffs)[2]) > intpoly.DIVISION_CUTOFF
        num = (q * den).coeffs
        assert IntPoly(num).exact_div(den) == q
        with pytest.raises(NonZeroRemainder):
            IntPoly((num[0] + 1,) + num[1:]).exact_div(den)


class TestDerivative:
    def test_basic(self):
        assert P(4, 0, 0, 1).derivative() == P(0, 0, 3)
        assert IntPoly.z().derivative() == IntPoly.one()

    def test_q3(self):
        # termwise power rule on z^6 + 20 z^3 - 80
        q3 = P(-80, 0, 0, 20, 0, 0, 1)
        assert q3.derivative() == P(0, 0, 60, 0, 0, 6)

    @given(a=small_polys, b=small_polys)
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    @given(a=small_polys, b=small_polys)
    def test_linearity(self, a, b):
        assert (a + b).derivative() == a.derivative() + b.derivative()


class TestExactDiv:
    def test_monomial_factor(self):
        assert P(0, 4, 0, 0, 1).exact_div(IntPoly.z()) == P(4, 0, 0, 1)

    def test_square_root(self):
        sq = P(16, 0, 0, 8, 0, 0, 1)
        assert sq.exact_div(P(4, 0, 0, 1)) == P(4, 0, 0, 1)

    def test_nonzero_remainder(self):
        with pytest.raises(NonZeroRemainder):
            P(5, 0, 0, 1).exact_div(P(4, 0, 0, 1))

    def test_non_integer_quotient(self):
        with pytest.raises((NonIntegerQuotient, NonZeroRemainder)):
            P(1, 1).exact_div(P(0, 2))

    @given(a=small_polys, b=nonzero_polys)
    def test_round_trip(self, a, b):
        assert (a * b).exact_div(b) == a


class TestEvaluate:
    # coefficient sequences are evaluated by the root layer's Horner
    def test_table_constants(self):
        assert _horner(P(4, 0, 0, 1).coeffs, 0) == 4
        assert _horner(P(-80, 0, 0, 20, 0, 0, 1).coeffs, 0) == -80

    def test_rational_point(self):
        assert _horner(IntPoly.z().coeffs, Fraction(1, 2)) == Fraction(1, 2)
        assert _horner(P(4, 0, 0, 1).coeffs, Fraction(-1, 2)) == \
            Fraction(31, 8)


class TestReverse:
    def test_basic(self):
        assert P(4, 0, 0, 1).reverse_nonzero() == P(1, 0, 0, 4)
        assert P(-80, 0, 0, 20, 0, 0, 1).reverse_nonzero() == \
            P(1, 0, 0, 20, 0, 0, -80)

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            IntPoly.z().reverse_nonzero()


class TestNewtonPowerSums:
    def test_quadratic(self):
        # y^2 + 20 y - 80: e_1 = -20, e_2 = -80
        p = newton_power_sums(P(-80, 20, 1), 2)
        assert p[0] == -20
        assert p[1] == 560

    def test_cubic_of_unity_type(self):
        # three roots of z^3 = -4
        p = newton_power_sums(P(4, 0, 0, 1), 3)
        assert p == [0, 0, -12]

    def test_linear(self):
        assert newton_power_sums(P(-5, 1), 1) == [5]

    @given(a=sparse_polys, data=st.data())
    def test_against_plain_recursion(self, a, data):
        max_m = data.draw(st.integers(1, 3 * a.degree + 2))
        d, c = a.degree, a.coeffs
        e = [Fraction(0)] * (max_m + 1)
        for k in range(1, min(d, max_m) + 1):
            e[k] = Fraction((-1) ** k * c[d - k], c[d])
        p = [Fraction(0)] * (max_m + 1)
        for k in range(1, max_m + 1):
            p[k] = (-1) ** (k - 1) * k * e[k] + sum(
                (-1) ** (i - 1) * e[i] * p[k - i] for i in range(1, k))
        assert newton_power_sums(a, max_m) == p[1:]

    @given(roots=st.lists(st.integers(-6, 6).filter(bool), min_size=1,
                          max_size=5))
    def test_against_explicit_roots(self, roots):
        poly = IntPoly.one()
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        sums = newton_power_sums(poly, 4)
        for m in range(1, 5):
            assert sums[m - 1] == sum(Fraction(r) ** m for r in roots)

    @given(roots=st.lists(st.integers(-6, 6).filter(bool), min_size=1,
                          max_size=5))
    def test_inverse_sums_via_reversal(self, roots):
        poly = IntPoly.one()
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        sums = newton_power_sums(poly.reverse_nonzero(), 3)
        for m in range(1, 4):
            assert sums[m - 1] == sum(Fraction(1, r) ** m for r in roots)
