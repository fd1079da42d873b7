"""One timed iteration of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_DIR SPAWNED_AT [--observed]

Run by run.py with `src` on PYTHONPATH. SPAWNED_AT is the parent's
`time.monotonic()` just before it started this process, so the first
measurement is interpreter start to `import yvpoly.cli` done. The workload
writes into OUT_DIR; its outputs are then checked against the reference in
perfbench/reference/. Prints one JSON object on stdout; with --observed it
includes every check's outcome, which is how references are written.

An untraced iteration also probes the host's speed while it runs
(hostspeed.py) and reports its times scaled to a reference speed as well.
"""

import sys
import time

import yvpoly.cli  # noqa: E402  (timed: this is the set-up users pay)

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from yvpoly import family, painleve, relations, series  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Sizes are chosen so that one iteration takes a few seconds on a 2-core
# host, leaving room for several fresh-interpreter iterations per run.
VERIFY_N_MAX = 7
ROOTS_N_MAX = 12
EXACT_N_MAX = 10
FAMILY_N_MAX = 36
FAMILY_SERIES_N_MAX = 30
FAMILY_PII_N_MAX = 16
FAMILY_BACKLUND_N_MAX = 11


def _cli(argv):
    """Run the CLI in-process; return its captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        yvpoly.cli.main(argv)
    return buf.getvalue()


def verify_default(seed, out):
    _cli(["verify", "--n-max", str(VERIFY_N_MAX), "--mode", "both",
          "--seed", str(seed), "--out", str(out)])
    raw = (out / "verification_report.json").read_bytes()
    reports = json.loads(raw)["reports"]
    observed = gate.keyed(((r["suite"], r["n"]), r["status"]) for r in reports)
    return observed, raw, None


def roots_deep(seed, out):
    stdout = _cli(["roots", "--n-max", str(ROOTS_N_MAX),
                      "--seed", str(seed), "--out", str(out)])
    observed, digest = {}, hashlib.sha256()
    residuals = []
    for n in range(1, ROOTS_N_MAX + 1):
        want = family.expected_degree(n)
        observed[f"certified:{n}"] = gate.status(
            f"n={n}: {want} roots, certified" in stdout.splitlines())
        csv_path = out / f"roots_{n}.csv"
        if not csv_path.exists():
            observed[f"rows:{n}"] = observed[f"residuals:{n}"] = "missing"
            continue
        raw = csv_path.read_bytes()
        digest.update(raw)
        rows = gate.csv_residuals(raw)
        observed[f"rows:{n}"] = gate.status(len(rows) == want)
        observed[f"residuals:{n}"] = gate.status(
            all(r < gate.RESIDUAL_THRESHOLD for r in rows))
        residuals.extend(rows)
    return observed, digest.digest(), gate.margin_digits(residuals)


def exact_relations(seed, out):
    records = family.generate(EXACT_N_MAX)
    observed, reports = {}, []
    for verifier in (relations.verify_theorem, relations.verify_corollary,
                     relations.verify_kudryashov):
        name = verifier.__name__
        for n in range(1, EXACT_N_MAX + 1):
            try:
                subs = verifier(records, n, mode="exact")
            except Exception as exc:  # a crash is a failed check, not a stop
                observed[f"{name}:{n}:raised"] = f"raised {type(exc).__name__}"
                continue
            for r in subs:
                observed[f"{name}:{n}:{r.details['family']}"] = r.status
                reports.append(r.to_json_dict(include_timing=False))
    return observed, json.dumps(reports, sort_keys=True).encode(), None


def family_deep(seed, out):
    records = family.generate(FAMILY_N_MAX)
    n_max = FAMILY_N_MAX
    observed = {f"digest:{r.n}": gate.record_digest(r) for r in records}
    checks = []
    for r in records:
        checks += [family.check_divisibility(r), family.mod4_reduction(r),
                   family.verify_irrationality_premises(r)]
    checks.append(family.valuation_checks(records))
    checks += [family.wronskian_check(records, n) for n in range(1, n_max)]
    checks += [series.verify_closed_forms(records, n_max, symmetry_max_m=30),
               series.verify_difference_relations(records, n_max)]
    checks += [series.verify_remark_polynomiality(records, m, n_max)
               for m in (12, 15)]
    checks += [series.cross_check_series(records, n, M=20)
               for n in range(1, FAMILY_SERIES_N_MAX + 1)]
    checks += [painleve.pII_residual(painleve.rational_solution(records, n))
               for n in range(FAMILY_PII_N_MAX + 1)]
    w = painleve.rational_solution(records, 0)
    for n in range(FAMILY_BACKLUND_N_MAX + 1):
        want = painleve.rational_solution(records, n + 1)
        ok = painleve.backlund_next(w, n) == want
        observed[f"backlund:{n + 1}"] = gate.status(ok)
        w = want
    observed.update(gate.keyed(((c.suite, c.n, c.details.get("m")), c.status)
                               for c in checks))
    blob = json.dumps(observed, sort_keys=True).encode()
    return observed, blob, None


WORKLOADS = {
    "verify-default": verify_default,
    "roots-deep": roots_deep,
    "exact-relations": exact_relations,
    "family-deep": family_deep,
}


def run_workload(name, seed, out):
    """Run one workload; if it raises, its checks are missing."""
    try:
        observed, blob, margin = WORKLOADS[name](seed, out)
    except Exception as exc:  # reported as failed checks by the gate
        return {}, None, None, [f"{name}: {type(exc).__name__}: {exc}"]
    return observed, hashlib.sha256(blob).hexdigest(), margin, []


def main(argv):
    workload, seed, traced, out, spawned_at = argv
    seed, traced, out = int(seed), traced == "1", Path(out)
    setup_s = IMPORTED_AT - float(spawned_at)
    ref_path = REFERENCE_DIR / f"{workload}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    tracer = speed = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        speed = hostspeed.HostSpeed()
        speed.install()
        speed.start()
    t0 = time.perf_counter()
    observed, digest, margin, errors = run_workload(workload, seed, out)
    verdict = gate.compare(reference.get("checks", {}), observed)
    wall_s = time.perf_counter() - t0
    scaled = {}
    if speed is not None:
        speed.stop()
        host = speed.summary()
        wall_s = host["work_s"]  # without the probes
        # set-up is scaled by the iteration's mean speed
        factor = host["scaled_s"] / wall_s
        scaled = {"scaled_setup_s": setup_s * factor,
                  "scaled_wall_s": host["scaled_s"], "probes": host["probes"]}
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        **scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_sha256": digest,
        "margin_digits": margin,
        "errors": errors,
        **verdict,
    }
    if tracer is not None:
        result["trace"] = tracer.summarize(wall_s)
    if "--observed" in sys.argv:
        result["observed"] = observed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:6]))
