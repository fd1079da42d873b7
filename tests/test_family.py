import dataclasses
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
            family._step(IntPoly(coeffs), records16[n].poly, n)

    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    def test_unscalable_input_names_its_coefficient(self, records16, n):
        # prev's z^0 term off by 1 (4^M no longer divides it, or a term of
        # the wrong class mod 3), or cur's a_1 off by 1 (4 no longer divides)
        prev, cur = records16[n - 1].poly, records16[n].poly
        coeffs = list(prev.coeffs)
        coeffs[0] += 1
        with pytest.raises(NonIntegerQuotient, match="of z\\^0 has no"):
            family._step(IntPoly(coeffs), cur, n)
        coeffs, top = list(cur.coeffs), cur.degree - 3
        coeffs[top] += 1
        with pytest.raises(NonIntegerQuotient, match=f"of z\\^{top} "):
            family._step(prev, IntPoly(coeffs), n)

    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    def test_division_rejects_previous_off_by_4_to_the_m(self, records16, n):
        # the lowest nonzero coefficient of Q_{n-1} off by 4^M: the scaled
        # form is integral with its constant term off by 1, so the monic
        # division itself must find the remainder
        coeffs = list(records16[n - 1].poly.coeffs)
        low = (len(coeffs) - 1) % 3
        coeffs[low] += 4 ** ((len(coeffs) - 1) // 3)
        with pytest.raises(NonZeroRemainder, match="exact division"):
            family._step(IntPoly(coeffs), records16[n].poly, n)

    @pytest.mark.parametrize("n", [4, 7, 13])
    def test_step_rejects_numerator_not_divisible_by_v(self, records16, n):
        # Q_{n-1} replaced by z: e = e' = 1 gives delta = 1, but N(0) =
        # R(0)^2 is not 0, as z Q_n^2 - 4 (Q_n Q_n'' - Q_n'^2) is not
        # divisible by z
        with pytest.raises(NonZeroRemainder, match="v\\^delta"):
            family._step(IntPoly.z(), records16[n].poly, n)

    def test_scaled_forms_are_integral_and_monic(self, records16):
        for r in records16:
            rr, eps = family._scaled(r.poly)
            assert eps == (1 if r.n % 3 == 1 else 0)
            assert rr.leading == 1 and 3 * rr.degree + eps == r.poly.degree
            assert r.poly.coeffs[eps::3] == tuple(
                c << 2 * (rr.degree - k) for k, c in enumerate(rr.coeffs))

    def test_step_products_stay_scaled(self, monkeypatch):
        # at n = 30 the largest scaled coefficient of Q_31 has 1,265 bits
        # and the z-form one 1,593; a z-form step squared z Q_30
        records = family.generate(31)
        calls = []
        real = IntPoly.__mul__

        def spy(self, other):
            calls.append((self, other))
            return real(self, other)

        monkeypatch.setattr(IntPoly, "__mul__", spy)
        nxt, ok = family._step(records[29].poly, records[30].poly, 30)
        assert nxt == records[31].poly and ok
        # R^2, (D_e R)^2 and the Wronskian's product; v S is a shift
        assert len(calls) == 3 and [a is b for a, b in calls] == [
            True, True, False]
        assert max(c.bit_length() for pair in calls for f in pair
                   for c in f.coeffs) <= 1300
        assert max(c.bit_length() for c in records[31].poly.coeffs) > 1500

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

    def test_non_monic_rejected(self):
        with pytest.raises(family.IntegrityError, match="not monic"):
            family.make_record(2, IntPoly([8, 0, 0, 2]))  # 2 z^3 + 8

    def test_vanishing_lowest_coefficient_rejected(self):
        with pytest.raises(family.IntegrityError,
                           match="lowest coefficient of Q_3 vanishes"):
            family.make_record(3, IntPoly([0, 0, 0, 20, 0, 0, 1]))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_polynomial_rejected(self, n):
        with pytest.raises(family.StructureViolation):
            family.make_record(n, IntPoly())


class TestChecks:
    def test_divisibility(self, records16):
        for r in records16[2:]:
            assert family.check_divisibility(r).passed

    def test_divisibility_detects_a_1_off_by_one(self, records16):
        # generate proves 4^m | a_m by construction; the check still reads
        # the record: a_1 + 1 is odd, so m = 1 is the witness
        q = records16[5].poly
        coeffs = list(q.coeffs)
        coeffs[q.degree - 3] += 1
        bad = family.make_record(5, IntPoly(coeffs))
        rep = family.check_divisibility(bad)
        assert not rep.passed
        assert rep.witnesses == [{"m": 1, "a_m": bad.compressed[1]}]
        assert bad.compressed[1] % 2 == 1

    def test_valuations(self, records16):
        rep = family.valuation_checks(records16)
        assert rep.passed
        assert records16[2].p_n == 2
        assert records16[5].p_n == 10

    def test_wronskian(self, records16):
        for n in range(1, 10):
            rep = family.wronskian_check(records16, n)
            assert rep.passed and rep.details == {"proved_in": "generate"}
        assert records16[0].wronskian is records16[1].wronskian is None

    @pytest.mark.parametrize("n", [0, 16])
    def test_wronskian_needs_neighbours(self, records16, n):
        with pytest.raises(ValueError, match="need records n-1..n\\+1"):
            family.wronskian_check(records16, n)

    def test_mod4(self, records16):
        for r in records16[:9]:
            assert family.mod4_reduction(r).passed

    def test_irrationality_premises(self, records16):
        for r in records16[:9]:
            assert family.verify_irrationality_premises(r).passed


def textbook_wronskian(a, b, c, n):
    """Q_{n+1}' Q_{n-1} - Q_{n+1} Q_{n-1}' == (2n+1) Q_n^2, product by
    product, for (a, b, c) = (Q_{n-1}, Q_n, Q_{n+1})."""
    return c.derivative() * a - c * a.derivative() == (2 * n + 1) * (b * b)


@pytest.fixture(scope="module")
def records26():
    return family.generate(26)


class TestWronskianProof:
    @pytest.mark.parametrize("n", [*range(1, 21), 25])
    def test_step_verdict_matches_textbook(self, records26, n):
        a, b, c = (r.poly for r in records26[n - 1:n + 2])
        assert family._step(a, b, n) == (
            c, textbook_wronskian(a, b, c, n))
        assert records26[n + 1].wronskian is True

    def test_exact_division_with_false_verdict(self, records16):
        # Q_1 replaced by 1: the division is exact, but the quotient is the
        # numerator z Q_3, and the identity fails
        q2, z = records16[2].poly, IntPoly.z()
        nxt, ok = family._step(IntPoly.one(), q2, 2)
        assert nxt == z * records16[3].poly
        assert ok is False
        assert not textbook_wronskian(IntPoly.one(), q2, nxt, 2)

    @pytest.mark.parametrize("verdict", [False, None])
    def test_false_verdict_is_a_fail_report(self, records16, tmp_path,
                                            monkeypatch, capsys, verdict):
        bad = list(records16)
        bad[5] = dataclasses.replace(bad[5], wronskian=verdict)
        monkeypatch.setattr(family, "generate", lambda n_max: bad[:n_max + 1])
        code = cli.main(["verify", "--n-max", "6", "--suites", "wronskian",
                         "--out", str(tmp_path)])
        assert code == 1
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        assert [(r["n"], r["status"], r["witnesses"]) for r in reports] == [
            (n, "fail", [{"n": "4"}]) if n == 4 else (n, "pass", [])
            for n in range(1, 6)]
        assert "Traceback" not in capsys.readouterr().err

    def test_check_forms_no_product(self, records16, monkeypatch):
        calls = []
        real = IntPoly.__mul__

        def spy(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(IntPoly, "__mul__", spy)
        family.generate(3)
        assert calls  # the spy sees the recurrence's products
        calls.clear()
        for n in range(1, 16):
            assert family.wronskian_check(records16, n).passed
        assert calls == []


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
