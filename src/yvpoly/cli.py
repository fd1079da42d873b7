"""Command-line entry point: generation, verification suites, roots, sums.

Exit status is nonzero iff any verification failed or an integrity error
occurred. All big numbers are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp

from . import family, painleve, relations, roots as rootsmod, series
from .intpoly import UnexpectedCommonFactor
from .report import (FAIL, SKIPPED, VerificationReport, combine, stringify,
                     timed)

@dataclass
class RunConfig:
    n_max: int = 12
    precision_bits: int = 256
    tolerance_exponent: int = 30
    mode: str = "both"  # exact | numeric | both
    output_dir: Path = field(default_factory=lambda: Path("."))
    report_format: str = "json"
    seed: int = 0
    timing: bool = False  # write each report's elapsed time

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        if self.tolerance_exponent < 6:
            raise ValueError("tolerance_exponent must be >= 6")
        if self.mode not in ("exact", "numeric", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.output_dir = Path(self.output_dir)

    @property
    def tolerance(self):
        return mp.mpf(10) ** -self.tolerance_exponent


class _Runner:
    """Shared state for one invocation: records and memoized root sets."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.records = family.generate(config.n_max)
        self._rootsets: dict = {}  # n -> RootSet, or the error finding it

    def rootset(self, n: int):
        """The root set of Q_n, found once. A RootFindingError is kept and
        raised again on every later request for this n."""
        if n not in self._rootsets:
            try:
                self._rootsets[n] = rootsmod.roots_for_record(
                    self.records[n], self.config.precision_bits,
                    seed=self.config.seed)
            except rootsmod.RootFindingError as exc:
                self._rootsets[n] = exc
        found = self._rootsets[n]
        if isinstance(found, rootsmod.RootFindingError):
            raise found
        return found


def _root_failure_report(suite: str, n: int, exc) -> VerificationReport:
    rep = VerificationReport(suite=suite, n=n)
    worst = exc.worst_residual
    return rep.fail({
        "check": "roots", "error": type(exc).__name__, "message": str(exc),
        "roots_n": exc.n, "iterations": exc.iterations,
        "worst_residual": None if worst is None else mp.nstr(worst, 8)})


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
    try:
        family.cube_compress(r.poly, r.n)
    except family.StructureViolation as exc:
        rep.fail({"check": "z3_support", "error": str(exc)})
    return rep


def _suite_structure(run: _Runner):
    return [_structure_report(r) for r in run.records]


def _suite_divisibility(run: _Runner):
    reports = []
    for r in run.records:
        reports.append(family.check_divisibility(r))
        reports.append(family.mod4_reduction(r))
        reports.append(family.verify_irrationality_premises(r))
    return reports


def _suite_valuation(run: _Runner):
    return [family.valuation_checks(run.records)]


def _suite_wronskian(run: _Runner):
    if run.config.n_max < 2:
        return [VerificationReport(suite="wronskian", status=SKIPPED,
                                   details={"reason": "needs n_max >= 2"})]
    return [family.wronskian_check(run.records, n)
            for n in range(1, run.config.n_max)]


def _suite_pii(run: _Runner):
    reports = []
    for n in range(run.config.n_max + 1):
        w = painleve.rational_solution(run.records, n)
        reports.append(painleve.pII_residual(w))
    return reports


@timed
def _backlund_report(w, n: int, want) -> VerificationReport:
    rep = VerificationReport(suite="backlund", n=n + 1)
    try:
        if painleve.backlund_next(w, n) != want:
            rep.fail({"check": "mismatch", "n": n + 1})
    except painleve.DegenerateDenominator as exc:
        rep.fail({"check": "denominator", "error": type(exc).__name__,
                  "message": str(exc)})
    return rep


def _suite_backlund(run: _Runner):
    reports = []
    w = painleve.rational_solution(run.records, 0)
    for n in range(run.config.n_max):
        want = painleve.rational_solution(run.records, n + 1)
        reports.append(_backlund_report(w, n, want))
        w = want
    return reports


def _relation_suite(run: _Runner, verifier, suite_name: str):
    config = run.config
    reports = []
    modes = ["exact", "numeric"] if config.mode == "both" else [config.mode]
    for n in range(1, config.n_max + 1):
        for mode in modes:
            try:
                rootsets = ({n - 1: run.rootset(n - 1), n: run.rootset(n)}
                            if mode == "numeric" else None)
            except rootsmod.RootFindingError as exc:
                rep = _root_failure_report(suite_name, n, exc)
            else:
                rep = combine(suite_name, n, verifier(
                    run.records, n, mode=mode, rootsets=rootsets,
                    tolerance=config.tolerance))
            rep.details["mode"] = mode
            reports.append(rep)
        print(f"suite {suite_name}: n={n}/{config.n_max} done", file=sys.stderr)
    return reports


def _suite_relations(run: _Runner):
    return _relation_suite(run, relations.verify_theorem, "relations")


def _suite_corollary(run: _Runner):
    return _relation_suite(run, relations.verify_corollary, "corollary")


def _suite_kudryashov(run: _Runner):
    return _relation_suite(run, relations.verify_kudryashov, "kudryashov")


def _suite_poleseries(run: _Runner):
    config = run.config
    reports = []
    for n in range(2, config.n_max + 1):
        try:
            rootsets = {n - 1: run.rootset(n - 1), n: run.rootset(n)}
        except rootsmod.RootFindingError as exc:
            reports.append(_root_failure_report("poleseries", n, exc))
        else:
            count = len(rootsets[n - 1].roots)
            subs = [relations.pole_series_check(run.records, n, j, rootsets,
                                                tolerance=config.tolerance)
                    for j in range(count)]
            reports.append(combine("poleseries", n, subs))
        print(f"suite poleseries: n={n}/{config.n_max} done", file=sys.stderr)
    return reports


def _suite_sums(run: _Runner):
    return [
        series.verify_closed_forms(run.records, run.config.n_max,
                                   symmetry_max_m=30),
        series.verify_difference_relations(run.records, run.config.n_max),
    ]


def _suite_series(run: _Runner):
    reports = []
    for n in range(1, run.config.n_max + 1):
        reports.append(series.cross_check_series(run.records, n, M=20))
    return reports


def _suite_remark(run: _Runner):
    reports = []
    for m in (12, 15):
        need = series.remark_min_n_max(m)
        if run.config.n_max < need:
            reports.append(VerificationReport(
                suite="remark", status=SKIPPED,
                details={"m": m, "reason": f"needs n_max >= {need}"}))
            continue
        try:
            reports.append(series.verify_remark_polynomiality(
                run.records, m, run.config.n_max))
        except (series.FitFailure, ValueError) as exc:
            rep = VerificationReport(suite="remark", details={"m": m})
            rep.fail({"error": str(exc)})
            reports.append(rep)
    return reports


SUITE_RUNNERS = {
    "structure": _suite_structure,
    "divisibility": _suite_divisibility,
    "valuation": _suite_valuation,
    "wronskian": _suite_wronskian,
    "pii": _suite_pii,
    "backlund": _suite_backlund,
    "relations": _suite_relations,
    "corollary": _suite_corollary,
    "kudryashov": _suite_kudryashov,
    "poleseries": _suite_poleseries,
    "sums": _suite_sums,
    "series": _suite_series,
    "remark": _suite_remark,
}


# ---------------------------------------------------------------------------
# Commands

def cmd_gen(config: RunConfig) -> int:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    run = _Runner(config)
    print(f"{'n':>4} {'degree':>8} {'p_n':>6}  x_n")
    for r in run.records:
        path = out / f"yv_{r.n}.json"
        path.write_text(family.record_to_json(r) + "\n")
        x_str = str(r.x_n)
        if len(x_str) > 40:
            x_str = f"{x_str[:18]}...{x_str[-18:]} ({len(x_str)} digits)"
        print(f"{r.n:>4} {family.expected_degree(r.n):>8} {r.p_n:>6}  {x_str}")
    return 0


def cmd_verify(config: RunConfig, suites) -> int:
    run = _Runner(config)
    all_reports = []
    failed = False
    for suite in suites:
        t0 = time.perf_counter()
        reps = SUITE_RUNNERS[suite](run)
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
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if config.report_format == "json":
        payload = {
            "config": {
                "n_max": config.n_max,
                "precision_bits": config.precision_bits,
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


def _finder_line(rs) -> str:
    """How the root finder got rs, for stderr."""
    last = "-" if rs.final_correction is None \
        else mp.nstr(rs.final_correction, 3)
    return (f"n={rs.n}: {rs.float_iterations} float sweeps, ladder "
            f"{'>'.join(map(str, rs.ladder)) or '-'} bits, fallback "
            f"{'yes' if rs.fallback else 'no'}, last step {last}, "
            f"max residual {mp.nstr(rs.max_residual, 3)}")


def cmd_roots(config: RunConfig) -> int:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    run = _Runner(config)
    status = 0
    for r in run.records[1:]:
        try:
            rs = run.rootset(r.n)
        except rootsmod.RootFindingError as exc:
            print(f"n={r.n}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(_finder_line(rs), file=sys.stderr)
        rep = rootsmod.certify(rs, r)
        rootsmod.export_csv(rs, out / f"roots_{r.n}.csv")
        rootsmod.export_svg(rs, out / f"roots_{r.n}.svg")
        tag = "certified" if rep.passed else "CERTIFICATION FAILED"
        print(f"n={r.n}: {len(rs.roots)} roots, {tag}")
        if not rep.passed:
            status = 1
    return status


def cmd_sums(config: RunConfig, m_list) -> int:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    run = _Runner(config)
    rows = series.sums_table(run.records, config.n_max, m_list)
    path = out / "sums.json"
    path.write_text(json.dumps(stringify(rows), indent=2) + "\n")
    print(f"{len(rows)} rows written to {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(parser):
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--precision-bits", type=int, default=256)
    parser.add_argument("--tolerance", type=int, default=30, metavar="T",
                        help="numeric pass threshold 10^-T")
    parser.add_argument("--mode", choices=["exact", "numeric", "both"],
                        default="both")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (or YV_OUT_DIR, or '.')")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--seed", type=int, default=0)


def _config_from(args) -> RunConfig:
    out = args.out or os.environ.get("YV_OUT_DIR") or "."
    return RunConfig(
        n_max=args.n_max,
        precision_bits=args.precision_bits,
        tolerance_exponent=args.tolerance,
        mode=args.mode,
        output_dir=Path(out),
        report_format=args.format,
        seed=args.seed,
        timing=getattr(args, "timing", False),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yvpoly",
        description="Exact generation and verification of the "
                    "Yablonskii-Vorob'ev polynomial family.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate the family and write JSON")
    _add_common(p_gen)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify)
    p_verify.add_argument("--suites", type=str, default="all",
                          help=f"comma-separated subset of: {','.join(SUITE_RUNNERS)}")
    p_verify.add_argument("--timing", action="store_true",
                          help="write each report's elapsed seconds")

    p_roots = sub.add_parser("roots", help="extract roots, write CSV and SVG")
    _add_common(p_roots)

    p_sums = sub.add_parser("sums", help="exact inverse-root power sums")
    _add_common(p_sums)
    p_sums.add_argument("--m-list", type=str, default="3,6,9")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # a bad option value is a one-line usage error, not a traceback
        config = _config_from(args)
        if args.command == "verify":
            suites = (list(SUITE_RUNNERS) if args.suites == "all" else
                      [s.strip() for s in args.suites.split(",") if s.strip()])
            unknown = [s for s in suites if s not in SUITE_RUNNERS]
            if unknown:
                raise ValueError(f"unknown suites: {', '.join(unknown)}")
        if args.command == "sums":
            m_list = [int(m) for m in args.m_list.split(",")]
            if any(m < 1 for m in m_list):
                raise ValueError("each m must be >= 1")
    except ValueError as exc:
        print(f"yvpoly {args.command}: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "verify":
            return cmd_verify(config, suites)
        if args.command == "roots":
            return cmd_roots(config)
        return cmd_sums(config, m_list)
    except (family.IntegrityError, UnexpectedCommonFactor) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
