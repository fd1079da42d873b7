import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import yvpoly
from yvpoly import cli, family, painleve, relations, roots, series
from yvpoly.intpoly import IntPoly, NonIntegerQuotient, NonZeroRemainder

from conftest import replaced, table_keys


def run(argv):
    return cli.main(argv)


class TestConfig:
    def test_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.n_max == 12
        assert cfg.precision_bits == roots.DEFAULT_PRECISION_BITS == 256
        assert float(cfg.tolerance) == pytest.approx(1e-30)

    def test_root_bits_of_every_tolerance(self):
        # root_bits reads the tolerance's mantissa and exponent without
        # mpmath; it keeps mpmath's frexp value at every accepted --tolerance
        for exponent in range(6, 401):
            tol = cli.RunConfig(tolerance_exponent=exponent).tolerance
            assert relations.root_bits(tol) == \
                1 - mp.frexp(tol)[1] + 2 * relations.HEADROOM_BITS

    def test_every_default(self, monkeypatch):
        monkeypatch.delenv("YV_OUT_DIR", raising=False)
        assert vars(cli.RunConfig()) == {
            "n_max": 12, "precision_bits": 256, "tolerance_exponent": 30,
            "mode": "both", "output_dir": Path("."), "report_format": "json",
            "seed": 0, "timing": False, "suites": list(cli.SUITE_RUNNERS),
            "m_list": [3, 6, 9]}

    def test_unknown_setting_is_a_type_error(self):
        with pytest.raises(TypeError):
            cli.RunConfig(bogus=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            cli.RunConfig(n_max=-1)
        with pytest.raises(ValueError):
            cli.RunConfig(precision_bits=16)
        with pytest.raises(ValueError):
            cli.RunConfig(mode="fuzzy")

    @pytest.mark.parametrize("argv", [
        ["gen", "--n-max", "-1"], ["roots", "--precision-bits", "10"],
        ["verify", "--tolerance", "3"], ["sums", "--m-list", "3,x"],
        ["verify", "--suites", ","], ["sums", "--m-list", "3,,6"]])
    def test_bad_value_is_a_usage_error(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"yvpoly {argv[0]}: error: ")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_bad_m_list_entry_is_named(self, tmp_path, capsys):
        assert run(["sums", "--m-list", "3,,6", "--out", str(tmp_path)]) == 2
        assert "--m-list: '' is not an integer >= 1" in \
            capsys.readouterr().err


class TestParser:
    def test_verify_flags(self):
        args = cli.build_parser().parse_args(
            ["verify", "--n-max", "6", "--mode", "exact",
             "--suites", "structure,wronskian"])
        assert args.n_max == 6 and args.suites == "structure,wronskian"

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_defaults_come_from_run_config(self):
        assert vars(cli.build_parser().parse_args(["verify"])) == {
            "command": "verify"}

    @pytest.mark.parametrize("argv", [
        ["gen", "--seed", "1"], ["gen", "--format", "csv"],
        ["roots", "--tolerance", "40"], ["roots", "--mode", "exact"],
        ["sums", "--precision-bits", "300"],
        ["verify", "--precision-bits", "300"]])
    def test_command_rejects_flags_it_does_not_read(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_readme_cli_lines_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## CLI\n\n```sh\n", 1)[1]
        block = block.split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
        lines = [words for words in lines if words and words[0] == "yvpoly"]
        assert len(lines) >= 4
        for words in lines:
            cli.build_parser().parse_args(words[1:])

    def test_readme_flag_list_matches_flags(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split(
            "Each command takes only the flags it reads:\n\n", 1)[1]
        block = block.split("\n\n", 1)[0]
        listed = {}
        for bullet in block.split("\n- "):
            command, *flags = re.findall(r"`([^`]+)`", bullet)
            listed[command] = {flag.split()[0] for flag in flags}
        assert listed == {
            command: {flag for flag, (commands, _) in cli.FLAGS.items()
                      if command in commands.split()}
            for command in cli.COMMANDS}


class TestGen:
    def test_writes_records(self, tmp_path, capsys):
        assert run(["gen", "--n-max", "5", "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("yv_*.json"))
        assert len(files) == 6
        blob = json.loads((tmp_path / "yv_3.json").read_text())
        assert blob["n"] == 3
        out = capsys.readouterr().out
        assert "degree" in out

    @pytest.mark.parametrize("owner, name, error", [
        (IntPoly, "exact_div",
         NonZeroRemainder("nonzero remainder in exact division")),
        (family, "_scaled",
         NonIntegerQuotient("coefficient 3 of z^0 has no integral scaled "
                            "form"))], ids=["exact_div", "scaled"])
    def test_inexact_step_is_an_integrity_failure(self, owner, name, error,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        # a recurrence division the paper proves exact, made to fail
        def inexact(*args):
            raise error

        monkeypatch.setattr(owner, name, inexact)
        code = run(["gen", "--n-max", "4", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"integrity failure: {error}\n"

    def test_out_that_cannot_be_made_is_a_usage_error(self, tmp_path,
                                                       capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        assert run(["gen", "--n-max", "3", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("yvpoly gen: error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "a file, not a directory"


class TestVerify:
    def test_exact_suites_pass(self, tmp_path, capsys):
        code = run(["verify", "--n-max", "6", "--mode", "exact",
                    "--suites", "structure,divisibility,valuation,wronskian,"
                    "pii,backlund,sums,series",
                    "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(
            (tmp_path / "verification_report.json").read_text())
        assert payload["overall"] == "pass"
        assert all(r["status"] != "fail" for r in payload["reports"])

    def test_numeric_suite(self, tmp_path):
        code = run(["verify", "--n-max", "3", "--mode", "numeric",
                    "--suites", "relations,poleseries", "--out", str(tmp_path)])
        assert code == 0

    def test_tight_tolerance_tables_are_not_capped(self, tmp_path,
                                                   records8):
        # the root sets come from the tolerance: at 10^-100 no table is
        # capped at the roots' precision, so every identity passes
        code = run(["verify", "--n-max", "8", "--mode", "numeric",
                    "--tolerance", "100", "--suites",
                    "relations,corollary,kudryashov,poleseries",
                    "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(
            (tmp_path / "verification_report.json").read_text())
        bits = relations.root_bits(mp.mpf(10) ** -100)
        assert payload["config"]["precision_bits"] == bits == 461
        rootsets = {n: roots.roots_for_record(records8[n], bits)
                    for n in range(9)}
        reports = [r for r in payload["reports"] if r["status"] != "skipped"]
        assert len(reports) == 31
        for rep in reports:
            n = rep["n"]
            assert rep["status"] == "pass"
            assert int(rep["details"]["table_bits"]) < min(
                relations._fixed_bits(rootsets[k]) for k in (n - 1, n))

    def test_csv_format(self, tmp_path):
        code = run(["verify", "--n-max", "4", "--mode", "exact",
                    "--suites", "structure", "--format", "csv",
                    "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "verification_report.csv").read_text() \
            .splitlines()[0]
        assert header == "suite,n,status,witnesses"
        assert run(["verify", "--n-max", "4", "--suites", "structure",
                    "--format", "csv", "--timing", "--out",
                    str(tmp_path / "timed")]) == 0
        lines = (tmp_path / "timed" / "verification_report.csv") \
            .read_text().splitlines()
        assert lines[0] == "suite,n,status,witnesses,elapsed"
        assert all(float(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])

    @pytest.mark.parametrize("mode, bits", [
        ("exact", None), ("numeric", 228), ("both", 228)])
    def test_config_names_the_root_precision_it_used(self, mode, bits,
                                                      tmp_path):
        # only a run that finds root sets states their precision
        assert run(["verify", "--n-max", "4", "--mode", mode,
                    "--suites", "structure", "--out", str(tmp_path)]) == 0
        config = json.loads(
            (tmp_path / "verification_report.json").read_text())["config"]
        assert config.get("precision_bits") == bits
        assert list(config) == ["n_max"] + ["precision_bits"] * bool(bits) \
            + ["tolerance_exponent", "mode", "seed"]

    @pytest.mark.parametrize("coeffs, compressed, witnesses", [
        ([-80, 0, 0, 20, 0, 0, 0, 0, 0, 1], None,
         [{"check": "degree", "got": 9}]),
        (None, (2, 20, -80), [{"check": "monic"}]),
        ([-80, 0, 1, 20, 0, 0, 1], None,
         [{"check": "z3_support", "error": "stray z^2 term at n=3"}]),
        ([-80, 0, 0, 20, 0, 0, 1, 5], None,
         [{"check": "degree", "got": 7},
          {"check": "z3_support", "error": "stray z^7 term at n=3"}]),
    ], ids=["degree", "monic", "stray", "degree_and_stray"])
    def test_structure_witnesses(self, records8, coeffs, compressed,
                                 witnesses):
        # Q_3 = z^6 + 20 z^3 - 80, corrupted: each fault is its own
        # witness, and a wrong degree hides no stray term
        q3 = records8[3]
        assert q3.poly == IntPoly([-80, 0, 0, 20, 0, 0, 1])
        changes = {"poly": IntPoly(coeffs)} if coeffs else {}
        if compressed:
            changes["compressed"] = compressed
        rep = cli._structure_report(replaced(q3, **changes))
        assert rep.status == "fail" and rep.witnesses == witnesses
        assert cli._structure_report(q3).status == "pass"

    def test_repeated_root_host_is_an_integrity_failure(self, records8,
                                                        tmp_path, capsys,
                                                        monkeypatch):
        # Q_2 replaced by (z - 1)^2 (z + 2): the coprimality a theorem
        # proves fails, so the run stops as for an inexact division
        bad = list(records8[:4])
        bad[2] = replaced(records8[2], poly=IntPoly([2, -3, 0, 1]),
                          compressed=(1, 0, -3, 2), x_n=2, p_n=0)
        monkeypatch.setattr(family, "generate", lambda n_max: bad)
        assert run(["verify", "--n-max", "3", "--mode", "exact",
                    "--suites", "relations", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("integrity failure: host and host': ")
        assert err[-1].endswith(" has degree 1")
        assert not (tmp_path / "verification_report.json").exists()

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        code = run(["verify", "--suites", "nonsense", "--out", str(tmp_path)])
        assert code != 0

    def test_root_failure_is_a_fail_report(self, tmp_path, monkeypatch):
        real = roots.roots_for_record

        def failing(record, *args, **kwargs):
            if record.n == 2:
                raise roots.CertificationFailure(
                    "inclusion discs fail at n=2", iterations=400, n=2)
            return real(record, *args, **kwargs)

        monkeypatch.setattr(roots, "roots_for_record", failing)
        before = table_keys()
        code = run(["verify", "--n-max", "3", "--mode", "numeric",
                    "--suites", "relations,poleseries",
                    "--out", str(tmp_path)])
        assert code == 1
        # the kept error does not keep the run's tables alive
        assert not table_keys() - before
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        status = {(r["suite"], r["n"]): r["status"] for r in reports}
        assert status == {("relations", 1): "pass", ("relations", 2): "fail",
                          ("relations", 3): "fail", ("poleseries", 2): "fail",
                          ("poleseries", 3): "fail"}
        witness = reports[1]["witnesses"][0]
        assert witness["error"] == "CertificationFailure"
        assert (witness["roots_n"], witness["iterations"]) == ("2", "400")

    def test_uncertified_discs_are_a_fail_report(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(roots, "_radii", lambda coeffs, points, steps,
                            bits: [mp.inf] * len(steps))
        code = run(["verify", "--n-max", "2", "--mode", "numeric",
                    "--suites", "relations", "--out", str(tmp_path)])
        assert code == 1
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        # Q_1 = z has only its exact zero root, which needs no disc
        assert [r["status"] for r in reports] == ["pass", "fail"]
        witness = reports[1]["witnesses"][0]
        assert (witness["check"], witness["error"], witness["roots_n"]) == \
            ("roots", "CertificationFailure", "2")
        assert witness["message"] == ("n=2, seed 0: inclusion discs fail; "
                                      "seed 1: inclusion discs fail")

    def test_fail_witnesses_name_their_check(self, tmp_path, monkeypatch):
        # every right-hand side shifted by 10^-25: each failed family names
        # itself, a numeric one its worst root, an exact one its residue
        def shifted(rhs):
            return lambda n: (Fraction(rhs(n)[0]) + Fraction(1, 10 ** 25),
                              rhs(n)[1])

        monkeypatch.setattr(relations, "FAMILIES", tuple(
            (*fam[:6], shifted(fam[6])) for fam in relations.FAMILIES))
        assert run(["verify", "--n-max", "5", "--mode", "both",
                    "--suites", "relations,poleseries",
                    "--out", str(tmp_path)]) == 1
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        hosted_by_prev = ["T1", "T2", "T3", "T5"]
        poles = [r for r in reports if r["suite"] == "poleseries"]
        assert [r["n"] for r in poles] == [2, 3, 4, 5]
        for rep in poles:
            witnesses = rep["witnesses"]
            assert [w["family"] for w in witnesses] == hosted_by_prev
            poles_of_w = family.expected_degree(rep["n"] - 1)
            assert all(0 <= int(w["root"]) < poles_of_w for w in witnesses)
        for rep in reports:
            if rep["suite"] != "relations" or rep["n"] < 2:
                continue
            witnesses = rep["witnesses"]
            assert [w["family"] for w in witnesses] == hosted_by_prev + [
                "T6", "T7", "T8", "T10"]
            for w in witnesses:
                if rep["details"]["mode"] == "numeric":
                    host_n = rep["n"] - (w["family"] in hosted_by_prev)
                    assert 0 <= int(w["root"]) < \
                        family.expected_degree(host_n)
                else:
                    assert any(int(c) for c in w["residue"])

    def test_root_failure_is_found_once(self, monkeypatch):
        calls = []

        def failing(record, *args, **kwargs):
            calls.append(record.n)
            raise roots.CertificationFailure("no", n=record.n)

        monkeypatch.setattr(roots, "roots_for_record", failing)
        run_state = cli._Runner(cli.RunConfig(n_max=3))
        errors = []
        for _ in range(2):
            with pytest.raises(roots.CertificationFailure) as exc:
                run_state.rootset(2, 256)
            errors.append(exc.value)
        assert calls == [2] and errors[0] is errors[1]

    def test_failed_remark_fit_is_a_fail_report(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(series, "inverse_power_sums", lambda record, m: {
            k: Fraction(2) ** record.n for k in range(1, m + 1)})
        assert run(["verify", "--n-max", "20", "--suites", "remark",
                    "--out", str(tmp_path)]) == 1
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        assert [(r["status"], r["details"]["m"]) for r in reports] == [
            ("fail", "12"), ("skipped", "15")]
        assert reports[0]["witnesses"] == [
            {"check": "fit", "class": str(cls), "degree_bound": "5"}
            for cls in range(3)]

    def test_pii_and_backlund_share_each_solution(self, tmp_path,
                                                  monkeypatch):
        # each w_n, n >= 1, is certified once, when it is built
        real, calls = painleve.certify_coprime, []

        def spy(num, den, what):
            calls.append(what)
            return real(num, den, what)

        monkeypatch.setattr(painleve, "certify_coprime", spy)
        assert run(["verify", "--n-max", "5", "--suites", "pii,backlund",
                    "--out", str(tmp_path)]) == 0
        assert sorted(calls) == [f"w_{n}" for n in range(1, 6)]

    def test_combined_reports_carry_margin_digits(self, tmp_path):
        code = run(["verify", "--n-max", "4", "--mode", "both",
                    "--suites", "relations,poleseries",
                    "--out", str(tmp_path)])
        assert code == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        numeric = [r for r in reports if r["suite"] == "poleseries"
                   or r["details"]["mode"] == "numeric"]
        assert len(numeric) == 4 + 3
        assert all(float(r["details"]["margin_digits"]) > 0 for r in numeric)
        assert all(int(r["details"]["table_bits"]) > 100 for r in numeric)
        # the exact route has no tolerance, so nothing to spare against it
        assert not any("margin_digits" in r["details"]
                       or "table_bits" in r["details"] for r in reports
                       if r["details"].get("mode") == "exact")

    def test_remark_skipped_below_its_sample_size(self, tmp_path):
        code = run(["verify", "--suites", "remark", "--out", str(tmp_path)])
        assert code == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        assert [r["status"] for r in reports] == ["skipped", "skipped"]
        assert reports[1]["details"]["reason"] == "needs n_max >= 23"

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_suite_with_no_check_is_skipped(self, tmp_path, n_max):
        # a suite with nothing to check at this n_max writes one SKIPPED
        # report with its reason, never an empty "ok"
        need = {"wronskian": 2, "poleseries": 2, "backlund": 1,
                "relations": 1, "corollary": 1, "kudryashov": 1, "series": 1}
        assert run(["verify", "--n-max", str(n_max),
                    "--out", str(tmp_path)]) == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        for suite in cli.SUITE_RUNNERS:
            got = [r for r in reports if r["suite"] == suite]
            assert got, suite
            if need.get(suite, 0) > n_max:
                assert [(r["status"], r["details"]["reason"]) for r in got] \
                    == [("skipped", f"needs n_max >= {need[suite]}")]
            elif suite != "remark":
                assert {r["status"] for r in got} == {"pass"}, suite

    def test_exact_route_covers_every_n(self, tmp_path):
        code = run(["verify", "--n-max", "9", "--mode", "both",
                    "--suites", "kudryashov", "--out", str(tmp_path)])
        assert code == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        # per n, the exact route's report comes first, then the numeric one;
        # the exact route runs at n = 9 too, and passes
        assert [(r["n"], r["status"]) for r in reports] == [
            (n, "pass") for n in range(1, 10) for _ in range(2)]

    def test_relations_alone_name_their_pins(self, tmp_path):
        # with no corollary or kudryashov suite run, the T rows prove their
        # C and K pins themselves, and each combined exact report names the
        # pins of its six derived rows
        code = run(["verify", "--n-max", "4", "--mode", "exact",
                    "--suites", "relations", "--out", str(tmp_path)])
        assert code == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]

        def pins(n):
            hosts = [(n, (6, 7, 8))] + [(n - 1, (2, 3, 5))] * (n > 1)
            return sorted(name for h, cs in hosts for name in (
                [f"C{c}@Q_{n - 1},Q_{n}" for c in cs]
                + [f"K{p}@Q_{h}" for p in (2, 3, 5)]))

        assert [(r["n"], r["status"], r["details"]["derived_from"])
                for r in reports] == [(n, "pass", pins(n))
                                      for n in range(1, 5)]

    def test_relation_reports_name_their_route(self, tmp_path):
        code = run(["verify", "--n-max", "3", "--mode", "both",
                    "--suites", "relations,corollary,kudryashov",
                    "--out", str(tmp_path)])
        assert code == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        assert [(r["suite"], r["n"], r["details"]["mode"], r["status"])
                for r in reports] == [
            (suite, n, mode, "pass")
            for suite in ("relations", "corollary", "kudryashov")
            for n in range(1, 4) for mode in ("exact", "numeric")]

    def test_exact_mode_finds_no_roots(self, tmp_path, monkeypatch):
        # poleseries judges its T rows on the exact route too, so an exact
        # run of every suite needs no root set
        def no_roots(*args, **kwargs):
            raise AssertionError("an exact run looked for roots")

        monkeypatch.setattr(roots, "roots_for_record", no_roots)
        assert run(["verify", "--n-max", "5", "--mode", "exact",
                    "--out", str(tmp_path)]) == 0
        reports = json.loads(
            (tmp_path / "verification_report.json").read_text())["reports"]
        assert [(r["n"], r["details"]["mode"], r["status"]) for r in reports
                if r["suite"] == "poleseries"] == [
            (n, "exact", "pass") for n in range(2, 6)]

    def test_suite_times_on_stderr(self, tmp_path, capsys):
        code = run(["verify", "--n-max", "3", "--mode", "exact",
                    "--suites", "structure,relations", "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == [
            "suite structure        ok  (4 pass, 0 fail, 0 skipped)",
            "suite relations        ok  (3 pass, 0 fail, 0 skipped)"]
        err = captured.err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            "suite structure"] + ["suite relations"] * 4
        assert err[1:4] == [f"suite relations: n={n}/3 done" for n in (1, 2, 3)]
        assert err[0].endswith(" s") and err[4].endswith(" s")
        payload = (tmp_path / "verification_report.json").read_text()
        assert "elapsed" not in payload

    def test_timing_flag_writes_report_times(self, tmp_path):
        argv = ["verify", "--n-max", "4", "--mode", "both",
                "--suites", "structure,backlund,relations,poleseries"]
        assert run(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert run(argv + ["--out", str(tmp_path / "timed"), "--timing"]) == 0
        plain = (tmp_path / "plain" / "verification_report.json").read_text()
        timed = json.loads(
            (tmp_path / "timed" / "verification_report.json").read_text())
        assert "elapsed" not in plain
        assert all(r["elapsed"] > 0 for r in timed["reports"])
        for r in timed["reports"]:
            del r["elapsed"]
        assert json.dumps(timed, indent=2) + "\n" == plain

    def test_progress_per_n_on_stderr_only(self, tmp_path, capsys):
        code = run(["verify", "--n-max", "4", "--mode", "both",
                    "--suites", "relations,poleseries", "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "suite relations        ok  (8 pass, 0 fail, 0 skipped)\n"
            "suite poleseries       ok  (3 pass, 0 fail, 0 skipped)\n"
            f"report written to {tmp_path / 'verification_report.json'}\n")
        progress = [line for line in captured.err.splitlines()
                    if line.endswith(" done")]
        assert progress == (
            [f"suite relations: n={n}/4 done" for n in range(1, 5)]
            + [f"suite poleseries: n={n}/4 done" for n in range(2, 5)])
        payload = (tmp_path / "verification_report.json").read_text()
        assert " done" not in payload


class TestRoots:
    def test_exports(self, tmp_path, capsys):
        code = run(["roots", "--n-max", "4", "--precision-bits", "128",
                    "--out", str(tmp_path)])
        assert code == 0
        for n in range(1, 5):
            assert (tmp_path / f"roots_{n}.csv").exists()
            assert (tmp_path / f"roots_{n}.svg").exists()
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "n=1: 1 roots, certified", "n=2: 3 roots, certified",
            "n=3: 6 roots, certified", "n=4: 10 roots, certified"]
        assert "n=4: 5 float sweeps, ladder 106>" in captured.err
        assert " bits on 2 of 3 y-roots, fallback no" in captured.err
        assert "fallback no" in captured.err

    def test_certification_failure_reported(self, tmp_path, capsys,
                                            monkeypatch):
        real = roots.roots_for_record

        def failing(record, *args, **kwargs):
            if record.n == 2:
                raise roots.CertificationFailure(
                    "residual 1e-9 above threshold at n=2")
            return real(record, *args, **kwargs)

        monkeypatch.setattr(roots, "roots_for_record", failing)
        before = table_keys()
        code = run(["roots", "--n-max", "3", "--out", str(tmp_path)])
        assert code == 1
        assert not table_keys() - before
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "n=1: 1 roots, certified", "n=3: 6 roots, certified"]
        assert "n=2: CertificationFailure: residual 1e-9 above threshold" \
            in captured.err


class TestSums:
    def test_export(self, tmp_path, capsys):
        code = run(["sums", "--n-max", "6", "--m-list", "3,6,9",
                    "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "sums.json").read_text())
        assert len(rows) == 7 * 3


class TestEnvFallback:
    def test_yv_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("YV_OUT_DIR", str(tmp_path))
        assert run(["gen", "--n-max", "2"]) == 0
        assert (tmp_path / "yv_2.json").exists()


def test_cli_import_loads_no_sympy():
    # nor any other package outside the standard library: every top-level
    # module that importing the CLI adds, with mpmath already loaded, is the
    # standard library's or yvpoly
    src = str(Path(yvpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, mpmath; seen = set(sys.modules); import yvpoly.cli; "
             "new = {m.partition('.')[0] for m in set(sys.modules) - seen}; "
             "print(sorted(new - set(sys.stdlib_module_names) - {'yvpoly'}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
