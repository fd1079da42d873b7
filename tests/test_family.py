import json

import pytest

from yvpoly import cli, family
from yvpoly.intpoly import IntPoly, NonIntegerQuotient, NonZeroRemainder

from table1 import COMPRESSED


class TestShapes:
    def test_degree_and_length(self):
        assert [family.expected_degree(n) for n in range(6)] == \
            [0, 1, 3, 6, 10, 15]
        assert [family.compressed_length(n) for n in range(6)] == \
            [1, 1, 2, 3, 4, 6]

    def test_valuation_formula(self):
        assert [family.expected_valuation(n) for n in range(7)] == \
            [0, 0, 2, 4, 6, 10, 14]


class TestGeneration:
    def test_base_cases(self, records16):
        assert records16[0].poly == IntPoly.one()
        assert records16[1].poly == IntPoly.z()

    @pytest.mark.parametrize("n", sorted(COMPRESSED))
    def test_published_table(self, records16, n):
        assert records16[n].compressed == COMPRESSED[n]

    def test_lowest_coefficient_recursion(self, records16):
        for n in range(1, 16):
            x_prev = records16[n - 1].x_n
            x_cur = records16[n].x_n
            x_next = records16[n + 1].x_n
            if n % 3 == 0:
                assert x_next * x_prev == (2 * n + 1) * x_cur ** 2
            elif n % 3 == 1:
                assert x_next * x_prev == 4 * x_cur ** 2
            else:
                assert x_next * x_prev == -(2 * n + 1) * x_cur ** 2

    def test_matches_textbook_recurrence(self):
        z = IntPoly.z()
        qs = [IntPoly.one(), z]
        for n in range(1, 24):
            q, d1 = qs[n], qs[n].derivative()
            num = z * q * q - 4 * (q * d1.derivative() - d1 * d1)
            qs.append(num.exact_div(qs[n - 1]))
        assert [r.poly for r in family.generate(24)] == qs

    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    @pytest.mark.parametrize("where", [0, -1])
    def test_step_rejects_corrupted_previous(self, records16, n, where):
        coeffs = list(records16[n - 1].poly.coeffs)
        coeffs[where] += 1
        with pytest.raises((NonZeroRemainder, NonIntegerQuotient)):
            family._step(IntPoly(coeffs), records16[n].poly, IntPoly.z())

    def test_shorter_run_is_a_prefix(self, records16):
        shorter = family.generate(6)
        assert len(shorter) == 7
        for a, b in zip(shorter, records16):
            assert a == b

    def test_residue_class_and_zero_root(self, records16):
        for r in records16:
            assert r.has_zero_root == (r.n % 3 == 1)
            assert (r.poly.coeffs[0] == 0) == r.has_zero_root
            if r.has_zero_root:
                assert r.poly.exact_div(IntPoly.z()) == r.nonzero_part()


class TestIntegrity:
    def test_tampered_coefficient_rejected(self, records16):
        coeffs = list(records16[3].poly.coeffs)
        coeffs[1] += 1  # introduces a term outside the cube lattice
        with pytest.raises(family.IntegrityError):
            family.make_record(3, IntPoly(coeffs))

    def test_wrong_degree_rejected(self):
        with pytest.raises(family.IntegrityError):
            family.make_record(2, IntPoly([4, 0, 0, 1, 0, 0, 1]))


class TestChecks:
    def test_divisibility(self, records16):
        for r in records16[2:]:
            assert family.check_divisibility(r).passed

    def test_valuations(self, records16):
        rep = family.valuation_checks(records16)
        assert rep.passed
        assert records16[2].p_n == 2
        assert records16[5].p_n == 10

    def test_wronskian(self, records16):
        for n in range(1, 10):
            assert family.wronskian_check(records16, n).passed

    def test_mod4(self, records16):
        for r in records16[:9]:
            assert family.mod4_reduction(r).passed

    def test_irrationality_premises(self, records16):
        for r in records16[:9]:
            assert family.verify_irrationality_premises(r).passed


class TestSerialization:
    @pytest.mark.parametrize("n", [0, 1, 4, 8])
    def test_round_trip(self, records16, n, tmp_path, capsys):
        assert cli.main(["gen", "--n-max", "8", "--out", str(tmp_path)]) == 0
        d = json.loads((tmp_path / f"yv_{n}.json").read_text())
        r = records16[n]
        assert tuple(int(a) for a in d["compressed"]) == r.compressed
        assert (int(d["x_n"]), d["p_n"]) == (r.x_n, r.p_n)

    def test_coefficients_are_strings(self, records16):
        d = family.record_to_json_dict(records16[8])
        assert all(isinstance(c, str) for c in d["compressed"])
