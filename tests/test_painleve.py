import dataclasses

import pytest

from yvpoly import cli, family
from yvpoly.intpoly import IntPoly, UnexpectedCommonFactor, certify_coprime
from yvpoly.painleve import (
    RationalSolution,
    backlund_next,
    pII_residual,
    rational_solution,
)


def corrupted(records, n, factor):
    """records with Q_n replaced by Q_n * factor, past make_record's checks."""
    bad = list(records)
    bad[n] = dataclasses.replace(records[n], poly=records[n].poly * factor)
    return bad


class TestCoprimeCertificate:
    def test_rejects_shared_factor(self):
        # z^2 - 1 and z^2 + z - 2 = (z + 2)(z - 1) share z - 1
        with pytest.raises(UnexpectedCommonFactor, match="has degree 1"):
            certify_coprime(IntPoly([-1, 0, 1]), IntPoly([-2, 1, 1]), "test")

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
    def test_removes_content(self):
        # w_0 = 0/3: N = -27, D E = 27 z, so w_1 = -1/z after the content 27
        w = backlund_next(RationalSolution(0, IntPoly(), IntPoly([3])), 0)
        assert (w.numerator, w.denominator) == (IntPoly([-1]), IntPoly.z())

    def test_normalises_sign(self):
        # w_0 = 0/(-1): N = 1, D E = -z
        w = backlund_next(RationalSolution(0, IntPoly(), IntPoly([-1])), 0)
        assert (w.numerator, w.denominator) == (IntPoly([-1]), IntPoly.z())


class TestSolutions:
    def test_w1_is_minus_inverse_z(self, records8):
        w = rational_solution(records8, 1)
        assert w == RationalSolution(1, IntPoly([-1]), IntPoly.z())

    def test_equality_cross_multiplied(self):
        a = RationalSolution(1, IntPoly([-1]), IntPoly.z())
        b = RationalSolution(1, IntPoly([-2]), IntPoly([0, 2]))
        assert a == b

    @pytest.mark.parametrize("n", range(1, 9))
    def test_residual_vanishes(self, records8, n):
        assert pII_residual(rational_solution(records8, n)).passed

    def test_zero_solution_for_n0(self, records8):
        w = rational_solution(records8, 0)
        assert w.is_zero()
        assert pII_residual(w).passed

    def test_negate_solves_negated_parameter(self, records8):
        # w(z; -n) = -w(z; n), so the residual with parameter -n must vanish
        w3 = rational_solution(records8, 3)
        w = RationalSolution(-3, -w3.numerator, w3.denominator)
        assert w.n == -3
        assert pII_residual(w).passed


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
