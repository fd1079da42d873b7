"""End-to-end acceptance run.

Each test covers one numbered criterion and emits a single pass/fail line
on the uncaptured stdout so the run reads as a checklist.
"""

import json
import time
from fractions import Fraction

import pytest
from mpmath import mp

from yvpoly import cli, family, relations, roots, series
from yvpoly.family import expected_degree
from yvpoly.painleve import backlund_next, pII_residual, rational_solution
from yvpoly.report import FAIL

from table1 import COMPRESSED


@pytest.fixture
def announce(capsys):
    def emit(number, label, ok, extra=""):
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] criterion {number:>2} - {label}"
        if extra:
            line += f" ({extra})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


@pytest.fixture(scope="module")
def records30():
    return family.generate(30)


@pytest.fixture(scope="module")
def rootsets16(records30):
    return {n: roots.roots_for_record(records30[n]) for n in range(17)}


def test_criterion_1_golden_family(tmp_path, announce):
    start = time.perf_counter()
    code = cli.main(["gen", "--n-max", "8", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    ok = code == 0
    for n, want in COMPRESSED.items():
        blob = json.loads((tmp_path / f"yv_{n}.json").read_text())
        got = tuple(int(c) for c in blob["compressed"])
        ok = ok and got == want
    ok = ok and elapsed < 1.0
    announce(1, "golden family Q_2..Q_8", ok, f"{elapsed:.3f}s")


def test_criterion_2_divisibility(records30, announce):
    start = time.perf_counter()
    ok = all(family.check_divisibility(r).passed for r in records30)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    announce(2, "4^m | a_m for n <= 30", ok, f"{elapsed:.2f}s")


def test_criterion_3_valuations(records30, announce):
    ok = family.valuation_checks(records30).passed
    ok = ok and records30[2].p_n == 2 and records30[5].p_n == 10
    for n in range(1, 30):
        x0, x1, x2 = (records30[n - 1].x_n, records30[n].x_n,
                      records30[n + 1].x_n)
        factor = {0: 2 * n + 1, 1: 4, 2: -(2 * n + 1)}[n % 3]
        ok = ok and x2 * x0 == factor * x1 ** 2
    announce(3, "valuations and x_n recursion, n <= 30", ok)


def test_criterion_4_wronskian_pii_backlund(records30, announce):
    start = time.perf_counter()
    ok = all(family.wronskian_check(records30, n).passed
             for n in range(1, 21))
    ok = ok and all(pII_residual(rational_solution(records30, n)).passed
                    for n in range(1, 13))
    for n in range(0, 12):
        stepped = backlund_next(rational_solution(records30, n), n)
        ok = ok and stepped == rational_solution(records30, n + 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    announce(4, "Wronskian n<=20, P_II n<=12, Backlund n<=12", ok,
             f"{elapsed:.2f}s")


def test_criterion_5_relations_dual_mode(records30, rootsets16, announce):
    verifiers = (relations.verify_theorem, relations.verify_corollary,
                 relations.verify_kudryashov)
    ok = True
    exact_status = {}
    for n in range(1, 9):
        for verifier in verifiers:
            reps = verifier(records30, n, mode="exact")
            ok = ok and not any(r.status == FAIL for r in reps)
            for r in reps:
                exact_status[(verifier, n, r.details["family"])] = r.status
    tol = mp.mpf(10) ** -30
    for n in range(1, 17):
        for verifier in verifiers:
            reps = verifier(records30, n, mode="numeric",
                            rootsets=rootsets16, tolerance=tol)
            ok = ok and not any(r.status == FAIL for r in reps)
            for r in reps:
                key = (verifier, n, r.details["family"])
                if key in exact_status:
                    ok = ok and exact_status[key] == r.status
    announce(5, "relations exact n<=8, numeric n<=16, modes agree", ok)


def test_criterion_6_pole_series(records30, rootsets16, announce):
    ok = True
    checked = 0
    tol = mp.mpf(10) ** -20
    for n in range(2, 11):
        reports = relations.pole_series_check(records30, n,
                                              rootsets=rootsets16,
                                              tolerance=tol)
        ok = ok and len(reports) == 4 and all(r.passed for r in reports)
        checked += len(rootsets16[n - 1].roots)
    announce(6, "pole Laurent coefficients, n <= 10", ok,
             f"{checked} poles")


def test_criterion_7_closed_forms(records30, announce):
    ok = series.verify_closed_forms(records30, 25, symmetry_max_m=30).passed
    t2 = series.inverse_power_sums(records30[2], 6)
    t3 = series.inverse_power_sums(records30[3], 3)
    ok = ok and t2[3] == Fraction(-3, 4)
    ok = ok and t3[3] == Fraction(3, 4)
    ok = ok and t2[6] == Fraction(3, 16)
    announce(7, "closed forms m=3,6,9 and zero symmetry, n <= 25", ok)


def test_criterion_8_series_cross_check(records30, announce):
    ok = all(series.cross_check_series(records30, n, 20).passed
             for n in range(1, 11))
    a = series.series_at_zero(records30, 3, 20)
    ok = ok and a[2] == Fraction(3, 2)
    ok = ok and a[5] == Fraction(3, 40)
    ok = ok and a[8] == Fraction(3, 2240) + Fraction(27, 224)
    announce(8, "ODE series vs Newton sums through order 20, n <= 10", ok)


def test_criterion_9_remark_polynomiality(records30, announce):
    ok = True
    for m in (12, 15):
        rep = series.verify_remark_polynomiality(records30, m, 25)
        ok = ok and rep.passed
        for cls in range(3):
            ok = ok and rep.details[f"class_{cls}"]["held_out"] >= 1
    announce(9, "sum polynomiality in n for m = 12, 15", ok)


def test_criterion_10_root_certification(records30, rootsets16, announce):
    ok = True
    for n in range(1, 17):
        rs = rootsets16[n]
        ok = ok and len(rs.roots) == expected_degree(n)
        ok = ok and roots.certify(rs, records30[n]).passed
        exact = series.inverse_power_sums(records30[n], 9)
        with mp.workprec(rs.precision_bits):
            for m in (3, 6, 9):
                numeric = mp.fsum(1 / z ** m for z in rs.roots if z != 0)
                want = mp.mpf(exact[m].numerator) / exact[m].denominator
                scale = max(mp.mpf(1), abs(want))
                ok = ok and abs(numeric - want) / scale < mp.mpf(10) ** -25
    announce(10, "root certification and 25-digit sum agreement, n <= 16", ok)
