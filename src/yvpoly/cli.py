"""Command-line entry point: generation, verification suites, roots, sums.

Exit status is nonzero iff any verification failed or an integrity error
occurred. All big numbers are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from pathlib import Path

import mpmath as mp

from . import family, painleve, relations, roots as rootsmod, series
from .intpoly import IntegrityError
from .report import (FAIL, SKIPPED, VerificationReport, combine, stringify,
                     timed)


class RunConfig:
    """Every setting of a run, its default and its check. The CLI passes the
    flags a command was given; every other setting keeps its default."""
    n_max: int
    precision_bits: int  # roots only
    tolerance_exponent: int
    mode: str  # exact | numeric | both
    output_dir: Path  # given, else $YV_OUT_DIR, else "."
    report_format: str
    seed: int
    timing: bool  # write each report's elapsed time
    suites: list  # given comma-separated, or "all"
    m_list: list  # given comma-separated

    def __init__(self, n_max=12,
                 precision_bits=rootsmod.DEFAULT_PRECISION_BITS,
                 tolerance_exponent=relations.DEFAULT_TOLERANCE_EXPONENT,
                 mode="both", output_dir=None, report_format="json", seed=0,
                 timing=False, suites="all", m_list="3,6,9"):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        if tolerance_exponent < 6:
            raise ValueError("tolerance_exponent must be >= 6")
        if mode not in ("exact", "numeric", "both"):
            raise ValueError(f"unknown mode {mode!r}")
        if report_format not in ("json", "csv"):
            raise ValueError(f"unknown format {report_format!r}")
        if isinstance(suites, str):
            suites = (list(SUITE_RUNNERS) if suites == "all" else
                      [s.strip() for s in suites.split(",") if s.strip()])
        unknown = [s for s in suites if s not in SUITE_RUNNERS]
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
        if not suites:
            raise ValueError("no suites given")
        if isinstance(m_list, str):
            m_list = m_list.split(",")
        for m in m_list:
            if not str(m).strip().isdecimal() or int(m) < 1:
                raise ValueError(f"--m-list: {m!r} is not an integer >= 1")
        self.n_max, self.precision_bits = n_max, precision_bits
        self.tolerance_exponent, self.mode = tolerance_exponent, mode
        self.output_dir = Path(output_dir or os.environ.get("YV_OUT_DIR")
                               or ".")
        self.report_format, self.seed = report_format, seed
        self.timing, self.suites = timing, suites
        self.m_list = [int(m) for m in m_list]

    @property
    def tolerance(self):
        return mp.mpf(10) ** -self.tolerance_exponent


class _Runner:
    """One invocation's records. The root sets read from them are built
    once, in relations.TABLES, and dropped with the records."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.records = family.generate(config.n_max)

    def rootset(self, n: int, bits: int):
        """The root set of Q_n at bits, found once. A CertificationFailure
        is kept in its place and raised again on every later request. A
        caller that handles it drops its traceback, whose frames would
        otherwise keep the records, and so the entry, alive."""
        seed, record = self.config.seed, self.records[n]

        def find():
            try:
                return rootsmod.roots_for_record(record, bits, seed=seed)
            except rootsmod.CertificationFailure as exc:
                return exc
        found = relations.TABLES.get((record,), ("roots", bits, seed), find)
        if isinstance(found, rootsmod.CertificationFailure):
            raise found
        return found


def _root_failure_report(suite: str, n: int, exc) -> VerificationReport:
    exc.__traceback__ = None  # see _Runner.rootset
    rep = VerificationReport(suite=suite, n=n)
    return rep.fail({
        "check": "roots", "error": type(exc).__name__, "message": str(exc),
        "roots_n": exc.n, "iterations": exc.iterations})


# ---------------------------------------------------------------------------
# Suites

@timed
def _structure_report(r) -> VerificationReport:
    rep = VerificationReport(suite="structure", n=r.n)
    deg = r.poly.degree if r.poly else 0
    if r.n > 0 and deg != family.expected_degree(r.n):
        rep.fail({"check": "degree", "got": deg})
    if r.compressed[0] != 1:
        rep.fail({"check": "monic"})
    stray = next((i for i, c in enumerate(r.poly.coeffs)
                  if c and i % 3 != r.has_zero_root), None)
    if stray is not None:
        rep.fail({"check": "z3_support",
                  "error": f"stray z^{stray} term at n={r.n}"})
    return rep


def _suite_structure(run: _Runner):
    return [_structure_report(r) for r in run.records]


def _suite_divisibility(run: _Runner):
    return [check(r) for r in run.records for check in (
        family.check_divisibility, family.mod4_reduction,
        family.verify_irrationality_premises)]


def _suite_valuation(run: _Runner):
    return [family.valuation_checks(run.records)]


def _suite_wronskian(run: _Runner):
    return [family.wronskian_check(run.records, n)
            for n in range(1, run.config.n_max)]


def _suite_pii(run: _Runner):
    return [painleve.pII_residual(painleve.rational_solution(run.records, n))
            for n in range(run.config.n_max + 1)]


@timed
def _backlund_report(w, n: int, want) -> VerificationReport:
    rep = VerificationReport(suite="backlund", n=n + 1)
    if painleve.backlund_next(w, n) != want:
        rep.fail({"check": "mismatch", "n": n + 1})
    return rep


def _suite_backlund(run: _Runner):
    w = functools.partial(painleve.rational_solution, run.records)
    return [_backlund_report(w(n), n, w(n + 1))
            for n in range(run.config.n_max)]


def _rooted_suite(run: _Runner, suite: str):
    """One report per n and route of a suite read from the root sets of
    Q_{n-1} and Q_n: the check's reports at n combined, or a FAIL report
    when a root set cannot be found. Prints one progress line per n."""
    config = run.config
    modes = ["exact", "numeric"] if config.mode == "both" else [config.mode]
    if suite == "poleseries" and config.mode == "both":
        modes = ["numeric"]  # the exact rows are the relations suite's
    # read per call: instrumentation may rebind these names
    check = {"relations": relations.verify_theorem,
             "corollary": relations.verify_corollary,
             "kudryashov": relations.verify_kudryashov,
             "poleseries": relations.pole_series_check}[suite]
    bits, reports = relations.root_bits(config.tolerance), []
    for n in range(MIN_N_MAX[suite], config.n_max + 1):
        for mode in modes:
            try:
                rootsets = ({k: run.rootset(k, bits) for k in (n - 1, n)}
                            if mode == "numeric" else None)
            except rootsmod.CertificationFailure as exc:
                rep = _root_failure_report(suite, n, exc)
            else:
                rep = combine(suite, n, check(
                    run.records, n, mode=mode, rootsets=rootsets,
                    tolerance=config.tolerance))
            rep.details["mode"] = mode
            reports.append(rep)
        print(f"suite {suite}: n={n}/{config.n_max} done", file=sys.stderr)
    return reports


def _suite_sums(run: _Runner):
    return [
        series.verify_closed_forms(run.records, run.config.n_max,
                                   symmetry_max_m=30),
        series.verify_difference_relations(run.records, run.config.n_max),
    ]


def _suite_series(run: _Runner):
    return [series.cross_check_series(run.records, n, M=20)
            for n in range(1, run.config.n_max + 1)]


def _suite_remark(run: _Runner):
    return [series.verify_remark_polynomiality(run.records, m,
                                               run.config.n_max)
            for m in (12, 15)]


SUITE_RUNNERS = {
    "structure": _suite_structure,
    "divisibility": _suite_divisibility,
    "valuation": _suite_valuation,
    "wronskian": _suite_wronskian,
    "pii": _suite_pii,
    "backlund": _suite_backlund,
    **{suite: functools.partial(_rooted_suite, suite=suite)
       for suite in ("relations", "corollary", "kudryashov", "poleseries")},
    "sums": _suite_sums,
    "series": _suite_series,
    "remark": _suite_remark,
}

# The least n_max (else 0) at which a suite has a check; below it the suite
# is one SKIPPED report. A pole of w_n is a root of Q_{n-1}.
MIN_N_MAX = {"wronskian": 2, "backlund": 1, "relations": 1, "corollary": 1,
             "kudryashov": 1, "poleseries": 2, "series": 1}


# ---------------------------------------------------------------------------
# Commands

def cmd_gen(run: _Runner) -> int:
    """generate the family and write JSON"""
    print(f"{'n':>4} {'degree':>8} {'p_n':>6}  x_n")
    for r in run.records:
        path = run.config.output_dir / f"yv_{r.n}.json"
        path.write_text(family.record_to_json(r) + "\n")
        x_str = str(r.x_n)
        if len(x_str) > 40:
            x_str = f"{x_str[:18]}...{x_str[-18:]} ({len(x_str)} digits)"
        print(f"{r.n:>4} {family.expected_degree(r.n):>8} {r.p_n:>6}  {x_str}")
    return 0


def cmd_verify(run: _Runner) -> int:
    """run verification suites"""
    config = run.config
    all_reports = []
    failed = False
    for suite in config.suites:
        t0 = time.perf_counter()
        need = MIN_N_MAX.get(suite, 0)
        reps = SUITE_RUNNERS[suite](run) if config.n_max >= need else [
            VerificationReport(suite=suite, status=SKIPPED,
                               details={"reason": f"needs n_max >= {need}"})]
        elapsed = time.perf_counter() - t0
        n_fail = sum(1 for r in reps if r.status == FAIL)
        n_skip = sum(1 for r in reps if r.status == SKIPPED)
        n_pass = len(reps) - n_fail - n_skip
        status = "FAIL" if n_fail else "ok"
        print(f"suite {suite:<14} {status:>4}  "
              f"({n_pass} pass, {n_fail} fail, {n_skip} skipped)")
        print(f"suite {suite}: {elapsed:.3f} s", file=sys.stderr)
        failed = failed or bool(n_fail)
        all_reports.extend(reps)
    if config.report_format == "json":
        payload = {
            "config": {
                "n_max": config.n_max,
                **({"precision_bits": relations.root_bits(config.tolerance)}
                   if config.mode != "exact" else {}),
                "tolerance_exponent": config.tolerance_exponent,
                "mode": config.mode,
                "seed": config.seed,
            },
            "reports": [r.to_json_dict(include_timing=config.timing)
                        for r in all_reports],
            "overall": "fail" if failed else "pass",
        }
        path = config.output_dir / "verification_report.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        path = config.output_dir / "verification_report.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["suite", "n", "status", "witnesses"]
            writer.writerow(header + ["elapsed"] if config.timing else header)
            for r in all_reports:
                row = [r.suite, r.n, r.status,
                       json.dumps(stringify(r.witnesses))]
                writer.writerow(row + [r.elapsed] if config.timing else row)
    print(f"report written to {path}")
    return 1 if failed else 0


def _finder_line(rs, rep) -> str:
    """How the root finder got rs, for stderr; rep is certify's report."""
    y_roots = (len(rs.roots) - rs.includes_zero) // 3
    return (f"n={rs.n}: {rs.float_iterations} float sweeps, ladder "
            f"{'>'.join(map(str, rs.ladder)) or '-'} bits on "
            f"{rs.representatives} of {y_roots} y-roots, fallback "
            f"{'yes' if rs.fallback else 'no'}, inclusion digits "
            f"{rep.details['inclusion_digits'] or '-'}, "
            f"max residual "
            f"{mp.nstr(max(rs.residuals, default=mp.mpf(0)), 3)}")


def cmd_roots(run: _Runner) -> int:
    """extract roots, write CSV and SVG"""
    out = run.config.output_dir
    status = 0
    for r in run.records[1:]:
        try:
            rs = run.rootset(r.n, run.config.precision_bits)
        except rootsmod.CertificationFailure as exc:
            exc.__traceback__ = None  # see _Runner.rootset
            print(f"n={r.n}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
            continue
        rep = rootsmod.certify(rs, r)
        print(_finder_line(rs, rep), file=sys.stderr)
        rootsmod.export_csv(rs, out / f"roots_{r.n}.csv")
        rootsmod.export_svg(rs, out / f"roots_{r.n}.svg")
        tag = "certified" if rep.passed else "CERTIFICATION FAILED"
        print(f"n={r.n}: {len(rs.roots)} roots, {tag}")
        if not rep.passed:
            status = 1
    return status


def cmd_sums(run: _Runner) -> int:
    """exact inverse-root power sums"""
    config = run.config
    rows = series.sums_table(run.records, config.n_max, config.m_list)
    path = config.output_dir / "sums.json"
    path.write_text(json.dumps(stringify(rows), indent=2) + "\n")
    print(f"{len(rows)} rows written to {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

COMMANDS = ("gen", "verify", "roots", "sums")  # each runs cmd_<name>

# flag -> (the commands that read it, add_argument keywords); the defaults
# are RunConfig's
FLAGS = {
    "--n-max": ("gen verify roots sums", dict(type=int)),
    "--precision-bits": ("roots", dict(type=int)),
    "--tolerance": ("verify", dict(type=int, dest="tolerance_exponent",
                                   metavar="T",
                                   help="numeric pass threshold 10^-T")),
    "--mode": ("verify", dict(help="exact, numeric or both")),
    "--out": ("gen verify roots sums",
              dict(dest="output_dir",
                   help="output directory (or YV_OUT_DIR, or '.')")),
    "--format": ("verify", dict(dest="report_format", help="json or csv")),
    "--seed": ("verify roots", dict(type=int)),
    "--suites": ("verify", dict(help="comma-separated subset of: "
                                     + ",".join(SUITE_RUNNERS))),
    "--timing": ("verify", dict(action="store_true",
                                help="write each report's elapsed seconds")),
    "--m-list": ("sums", dict()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yvpoly",
        description="Exact generation and verification of the "
                    "Yablonskii-Vorob'ev polynomial family.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=globals()[f"cmd_{command}"].__doc__,
                           argument_default=argparse.SUPPRESS)
        for flag, (commands, kwargs) in FLAGS.items():
            if command in commands.split():
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    settings = vars(build_parser().parse_args(argv))
    command = settings.pop("command")
    try:  # a bad option value is a one-line usage error, not a traceback
        config = RunConfig(**settings)
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"yvpoly {command}: error: {exc}", file=sys.stderr)
        return 2
    try:
        # found by name, as instrumentation may rebind cmd_<name>
        return globals()[f"cmd_{command}"](_Runner(config))
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
