from fractions import Fraction

import pytest

from yvpoly import series
from yvpoly.family import generate


def _conv(a, b):
    """Truncated product of two coefficient lists of the same length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


class TestInversePowerSums:
    def test_spot_values(self, records8):
        t2 = series.inverse_power_sums(records8[2], 9)
        t3 = series.inverse_power_sums(records8[3], 9)
        assert t2[3] == Fraction(-3, 4)
        assert t3[3] == Fraction(3, 4)
        assert t2[6] == Fraction(3, 16)

    def test_zero_root_excluded(self, records8):
        # n = 4 has the root z = 0, which must be skipped, not inverted
        t = series.inverse_power_sums(records8[4], 3)
        assert t[3] == series.closed_form_value(4, 3)

    def test_newton_runs_once_per_record(self, monkeypatch):
        records = generate(7)
        want = {n: series.newton_power_sums(
            records[n].nonzero_part().reverse_nonzero(), 12) for n in (5, 7)}
        real, calls = series.newton_power_sums, []
        monkeypatch.setattr(series, "newton_power_sums", lambda a, max_m: (
            calls.append(max_m) or real(a, max_m)))
        for n in (5, 7):
            for m in (9, 4, 12, 12, 1):  # 12 extends the table once
                assert series.inverse_power_sums(records[n], m) == \
                    dict(enumerate(want[n][:m], 1))
        assert calls == [9, 12, 9, 12]
        assert series.inverse_power_sums(records[1], 3) == {1: 0, 2: 0, 3: 0}

    def test_non_multiples_of_three_vanish(self, records8):
        t = series.inverse_power_sums(records8[5], 12)
        for m in range(1, 13):
            if m % 3:
                assert t[m] == 0


class TestClosedForms:
    def test_verify(self, records16):
        assert series.verify_closed_forms(records16, 16,
                                          symmetry_max_m=30).passed

    def test_differences(self, records16):
        assert series.verify_difference_relations(records16, 16).passed

    def test_difference_spot(self):
        assert series.difference_value(2, 3) == Fraction(3, 4)
        assert series.difference_value(3, 3) == Fraction(-3, 2)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            series.closed_form_value(4, 5)


class TestSeriesAtZero:
    def test_n3_coefficients(self, records8):
        a = series.series_at_zero(records8, 3, 10)
        assert a[2] == Fraction(3, 2)
        assert a[5] == Fraction(3, 40)
        assert a[8] == Fraction(3, 2240) + Fraction(27, 224)

    def test_n1_vanishes_identically(self, records8):
        # w_1 = -1/z, so u = w_1 + 1/z is identically zero
        a = series.series_at_zero(records8, 1, 6)
        assert all(c == 0 for c in a)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cross_check(self, records8, n):
        assert series.cross_check_series(records8, n, 14).passed

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ode_residual_vanishes(self, records8, n):
        # the assembled series, imported resonance included, solves the
        # equation at every order: w'' - 2w^3 - zw - n for n = 0 mod 3, else
        # z^2 u'' - 6u - s 6z u^2 - 2 z^2 u^3 - z^3 u - K z^2 with
        # u = w + 1/z, s = -1, K = n - 1 (n = 1 mod 3) or
        # u = w - 1/z, s = +1, K = n + 1 (n = 2 mod 3)
        M = 10
        a = series.series_at_zero(records8, n, M)
        sq = _conv(a, a)
        cube = _conv(sq, a)

        def at(c, k):
            return c[k] if k >= 0 else 0

        for m in range(M - 1):
            if n % 3 == 0:
                residual = ((m + 2) * (m + 1) * a[m + 2] - 2 * cube[m]
                            - at(a, m - 1) - (n if m == 0 else 0))
            else:
                s, k = (-1, n - 1) if n % 3 == 1 else (1, n + 1)
                residual = (m * (m - 1) * a[m] - 6 * a[m]
                            - 6 * s * at(sq, m - 1) - 2 * at(cube, m - 2)
                            - at(a, m - 3) - (k if m == 2 else 0))
            assert residual == 0, m

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8])
    def test_resonance_condition_flags_perturbed_a0(self, records8, n,
                                                    monkeypatch):
        a = series.series_at_zero(records8, n, 8)
        assert series._ode_rhs(a, n, 3) == 0
        perturbed = list(a)
        perturbed[0] += 1
        assert series._ode_rhs(perturbed, n, 3) != 0
        monkeypatch.setattr(series, "series_at_zero",
                            lambda records, n, M: list(perturbed))
        rep = series.cross_check_series(records8, n, 8)
        assert not rep.passed
        assert {"check": "ode_residual", "order": 3,
                "value": series._ode_rhs(perturbed, n, 3)} in rep.witnesses

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8])
    def test_perturbed_import_fails_a_later_order(self, records8, n,
                                                  monkeypatch):
        # the order-3 coefficient is never compared directly; a wrong one
        # must still show through the orders the recursion builds on it
        real = series._imported_a3
        monkeypatch.setattr(series, "_imported_a3",
                            lambda records, n: real(records, n) + 1)
        rep = series.cross_check_series(records8, n, 14)
        assert not rep.passed
        assert all(w["check"] == "newton" and w["m"] >= 4
                   for w in rep.witnesses)

    def test_missing_resonance_record_is_a_value_error(self, records8):
        # at n = 10 = 1 mod 3 the order-3 coefficient reads records[10]
        with pytest.raises(ValueError, match="records up to 10 required"):
            series.series_at_zero(records8, 10, 4)


class TestRemark:
    @pytest.mark.parametrize("m", [3, 6])
    def test_polynomiality(self, m):
        records = generate(25)
        rep = series.verify_remark_polynomiality(records, m, 25)
        assert rep.passed
        for cls in range(3):
            info = rep.details[f"class_{cls}"]
            assert info["degree"] <= m // 3 + 1
            assert info["held_out"] >= 1

    def test_rejects_bad_m(self, records16):
        with pytest.raises(ValueError):
            series.verify_remark_polynomiality(records16, 4, 16)

    def test_insufficient_samples(self, records8):
        rep = series.verify_remark_polynomiality(records8, 12, 8)
        assert (rep.suite, rep.status) == ("remark", "skipped")
        assert list(rep.details.items()) == [
            ("m", 12), ("reason", "needs n_max >= 20")]

    def test_failed_fit_is_a_fail_report(self, monkeypatch):
        # sums 2^n fit no polynomial in any residue class of n; m = 12
        # needs n_max >= 20
        records = generate(20)
        monkeypatch.setattr(series, "inverse_power_sums", lambda record, m: {
            k: Fraction(2) ** record.n for k in range(1, m + 1)})
        rep = series.verify_remark_polynomiality(records, 12, 20)
        assert not rep.passed
        assert rep.witnesses == [
            {"check": "fit", "class": cls, "degree_bound": 5}
            for cls in range(3)]


class TestSumsTable:
    def test_rows(self, records8):
        rows = series.sums_table(records8, 8, [3, 6])
        assert len(rows) == 9 * 2  # one row per (n, m) pair
        for row in rows:
            assert row["sum"] == row["closed_form"]
