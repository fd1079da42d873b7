import json

import pytest

from yvpoly import family
from yvpoly.intpoly import IntPoly

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
    def test_round_trip(self, records16, n):
        blob = family.record_to_json(records16[n])
        back = family.record_from_json_dict(json.loads(blob))
        assert back == records16[n]

    def test_coefficients_are_strings(self, records16):
        d = family.record_to_json_dict(records16[8])
        assert all(isinstance(c, str) for c in d["compressed"])
