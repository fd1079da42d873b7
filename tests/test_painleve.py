import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from yvpoly import cli, family
from yvpoly.intpoly import IntPoly, UnexpectedCommonFactor, certify_coprime
from yvpoly.painleve import (
    RationalSolution,
    backlund_next,
    pII_residual,
    rational_solution,
)

from conftest import replaced, table_keys


def corrupted(records, n, factor):
    """records with Q_n replaced by Q_n * factor, past make_record's checks."""
    bad = list(records)
    bad[n] = replaced(records[n], poly=records[n].poly * factor)
    return bad


def textbook_residual(w):
    """a'D - 2aD' - 2N^3 - zND^2 - nD^3, a = N'D - ND', product by product."""
    nn, dd = w.numerator, w.denominator
    a = nn.derivative() * dd - nn * dd.derivative()
    return (a.derivative() * dd - 2 * a * dd.derivative()
            - 2 * (nn * nn * nn) - IntPoly.z() * nn * (dd * dd)
            - w.n * (dd * dd * dd))


class TestCoprimeCertificate:
    def test_rejects_shared_factor(self):
        # z^2 - 1 and z^2 + z - 2 = (z + 2)(z - 1) share z - 1
        with pytest.raises(UnexpectedCommonFactor, match="has degree 1"):
            certify_coprime(IntPoly([-1, 0, 1]), IntPoly([-2, 1, 1]), "test")

    def test_compressed_pair_reports_its_z_degree(self):
        # (z^3 + 1)(z^3 + 2) and (z^3 + 1)(z^3 + 5): supports in class 0,
        # so Euclid runs on v^2 + 3v + 2 and v^2 + 6v + 5, gcd v + 1
        with pytest.raises(UnexpectedCommonFactor, match="has degree 3$"):
            certify_coprime(IntPoly([2, 0, 0, 3, 0, 0, 1]),
                            IntPoly([5, 0, 0, 6, 0, 0, 1]), "test")

    def test_compressed_pair_sharing_only_z_is_rejected(self):
        # z (z^3 + 2) and z (z^3 + 1): coprime compressed rests, common z
        with pytest.raises(UnexpectedCommonFactor, match="has degree 1$"):
            certify_coprime(IntPoly([0, 2, 0, 0, 1]),
                            IntPoly([0, 1, 0, 0, 1]), "test")
        certify_coprime(IntPoly([2, 0, 0, 1]), IntPoly([0, 1, 0, 0, 1]), "")

    def test_rejects_leading_coefficient_divisible_by_prime(self):
        p = (1 << 61) - 1
        with pytest.raises(UnexpectedCommonFactor, match="no certificate"):
            certify_coprime(IntPoly([1]), IntPoly([1, p]), "test")

    @pytest.mark.parametrize("n", range(1, 13))
    def test_accepts_every_w_n(self, records16, n):
        p, q = records16[n - 1].poly, records16[n].poly
        certify_coprime(p.derivative() * q - p * q.derivative(), p * q, "")

    def test_corrupted_record_raises(self, records8):
        # a squared factor z - 1 in Q_5 is shared by num and den of w_5, w_6
        bad = corrupted(records8, 5, IntPoly([1, -2, 1]))
        for n in (5, 6):
            with pytest.raises(UnexpectedCommonFactor,
                               match=f"w_{n}: gcd mod 2305843009213693951 "
                                     "has degree 1"):
                rational_solution(bad, n)

    def test_corrupted_record_is_an_integrity_failure(self, records8,
                                                      monkeypatch, tmp_path,
                                                      capsys):
        bad = corrupted(records8, 5, IntPoly([1, -2, 1]))
        monkeypatch.setattr(family, "generate", lambda n_max: bad[:n_max + 1])
        code = cli.main(["verify", "--n-max", "8", "--suites", "pii",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "integrity failure: w_5: gcd mod" in capsys.readouterr().err


class TestBacklundNormalisation:
    # w_0 = 0 given with a content and with a sign in its denominator:
    # backlund_next keeps N/(D E) as formed, and == reads the value
    # w_1 = -1/z from either form
    def test_removes_content(self):
        # w_0 = 0/3: N = -27, D E = 27 z
        w = backlund_next(RationalSolution(0, IntPoly(), IntPoly([3])), 0)
        assert w == RationalSolution(1, IntPoly([-1]), IntPoly.z())

    def test_normalises_sign(self):
        # w_0 = 0/(-1): N = 1, D E = -z
        w = backlund_next(RationalSolution(0, IntPoly(), IntPoly([-1])), 0)
        assert w == RationalSolution(1, IntPoly([-1]), IntPoly.z())


class TestSolutions:
    def test_built_once_per_pair_of_records(self):
        before, records = table_keys(), family.generate(4)
        w = rational_solution(records, 3)
        assert rational_solution(list(records), 3) is w
        assert rational_solution(records, 2) is not w
        gone = weakref.ref(w)
        del records, w
        gc.collect()
        assert gone() is None
        assert not table_keys() - before

    def test_w1_is_minus_inverse_z(self, records8):
        w = rational_solution(records8, 1)
        assert w == RationalSolution(1, IntPoly([-1]), IntPoly.z())

    @pytest.mark.parametrize("n", range(1, 17))
    def test_numerator_is_textbook_form(self, records16, n):
        p, q = records16[n - 1].poly, records16[n].poly
        w = rational_solution(records16, n)
        assert w.numerator == p.derivative() * q - p * q.derivative()
        assert w.denominator == p * q

    def test_equality_cross_multiplied(self):
        a = RationalSolution(1, IntPoly([-1]), IntPoly.z())
        b = RationalSolution(1, IntPoly([-2]), IntPoly([0, 2]))
        assert a == b

    def test_equal_solutions_are_unhashable(self, records8):
        # == cross-multiplies, so a field-wise hash would split equal values
        a = rational_solution(records8, 3)
        b = backlund_next(rational_solution(records8, 2), 2)
        assert a == b
        assert (a.numerator, a.denominator) != (b.numerator, b.denominator)
        with pytest.raises(TypeError, match="unhashable"):
            {a, b}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_residual_vanishes(self, records8, n):
        assert pII_residual(rational_solution(records8, n)).passed

    def test_zero_solution_for_n0(self, records8):
        w = rational_solution(records8, 0)
        assert not w.numerator
        assert pII_residual(w).passed

    def test_negate_solves_negated_parameter(self, records8):
        # w(z; -n) = -w(z; n), so the residual with parameter -n must vanish
        w3 = rational_solution(records8, 3)
        w = RationalSolution(-3, -w3.numerator, w3.denominator)
        assert w.n == -3
        assert pII_residual(w).passed


class TestResidualFailures:
    def check_fails_at_textbook_degree(self, w):
        expected = textbook_residual(w)
        assert expected
        rep = pII_residual(w)
        assert not rep.passed
        assert rep.witnesses == [{"residual_degree": expected.degree}]

    def test_wrong_parameter(self, records8):
        w3 = rational_solution(records8, 3)
        self.check_fails_at_textbook_degree(
            RationalSolution(4, w3.numerator, w3.denominator))

    def test_perturbed_numerator(self, records8):
        w5 = rational_solution(records8, 5)
        self.check_fails_at_textbook_degree(
            RationalSolution(5, w5.numerator + IntPoly.one(), w5.denominator))

    @given(st.integers(0, 5),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3)
           .map(IntPoly).filter(bool),
           st.lists(st.integers(-9, 9), max_size=8).map(IntPoly),
           st.integers(-2, 2))
    def test_witness_degree_is_textbook_degree(self, records8, k, factor,
                                               shift, dn):
        # N/D = w_k times factor/factor, plus shift/D, at parameter k + dn:
        # from the solution itself (residual 0) to a random fraction. On
        # a random N/D alone the top degree comes from one of -zND^2,
        # -nD^3 and -2N^3, and the rest of the residual goes unseen.
        w = rational_solution(records8, k)
        num, den = w.numerator * factor + shift, w.denominator * factor
        expected = textbook_residual(RationalSolution(k + dn, num, den))
        rep = pII_residual(RationalSolution(k + dn, num, den))
        assert rep.witnesses == (
            [{"residual_degree": expected.degree}] if expected else [])


class TestBacklund:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_direct_construction(self, records8, n):
        stepped = backlund_next(rational_solution(records8, n), n)
        assert stepped == rational_solution(records8, n + 1)

    def test_chain_from_zero(self, records8):
        w = rational_solution(records8, 0)
        for n in range(0, 6):
            w = backlund_next(w, n)
        assert w == rational_solution(records8, 6)

    @given(st.lists(st.integers(-9, 9), max_size=6).map(IntPoly),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6)
           .map(IntPoly).filter(bool), st.integers(0, 8))
    def test_denominator_never_vanishes(self, num, den, n):
        # D^2 (2w^2 + 2w' + z) != 0 for D != 0: at infinity z outranks
        # 2w^2 + 2w' unless w grows, and then 2w^2 outranks 2w' + z
        stepped = backlund_next(RationalSolution(n, num, den), n)
        assert stepped.denominator
