"""Benchmark for yvpoly: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each iteration is one fresh interpreter
(perfbench/worker.py) that imports `yvpoly.cli`, runs the workload with the
given seed, and checks every output against perfbench/reference/. The run
repeats iterations serially, one process at a time, until --seconds is
spent (at least MIN_ITERATIONS), and reports medians. The times it
reports are scaled to a reference host speed that each iteration probes
while it runs (hostspeed.py); the unscaled medians are printed before the
result. With --trace 1 it alternates untraced and traced iterations and
reports per-layer metrics plus the tracing overhead instead of the
end-to-end metrics.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it record the machine, a host-speed calibration loop and each
iteration. Outputs go to a temporary directory inside the checkout that is
removed afterwards.

    python3 perfbench/run.py --workload NAME --write-reference

rewrites perfbench/reference/NAME.json from one iteration of the current
code; do that only when a change to the expected outputs is intended.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
REFERENCE_DIR = BENCH_DIR / "reference"
TMP_ROOT = ROOT / ".bench_tmp"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_ITERATIONS = 3
RUN_LIMIT_S = 100.0  # start no iteration after this, so a run ends in time
ITERATION_TIMEOUT_S = 60.0


def machine_facts() -> dict:
    import mpmath
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": importlib.metadata.version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
    }


def calibrate() -> float:
    """Fixed big-int and mpmath work (~1 s on a 2 GHz Xeon); shows host drift."""
    import mpmath
    t0 = time.perf_counter()
    x = 3 ** 30000
    for k in range(150):
        (x * (x + k)) // (x - k)
    with mpmath.workprec(512):
        acc = mpmath.mpf(0)
        for k in range(1, 1500):
            acc += mpmath.exp(mpmath.mpf(1) / k)
    return time.perf_counter() - t0


def run_iteration(workload, seed, traced, extra=()):
    """One worker process; returns its result dict, or None if it crashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as out:
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), workload, str(seed),
                 "1" if traced else "0", out, repr(spawned_at), *extra],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                timeout=ITERATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"iteration timed out after {ITERATION_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _remove_tmp_root():
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass  # not empty or already gone


def run_iterations(workload, seed, seconds, trace):
    """Serial iterations until `seconds` is spent; [(traced, result)]."""
    pattern = (False, True) if trace else (False,)
    minimum = len(pattern) if trace else MIN_ITERATIONS
    done, durations = [], []
    start = time.monotonic()
    while True:
        for traced in pattern:
            t0 = time.monotonic()
            done.append((traced, run_iteration(workload, seed, traced)))
            durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        per_round = statistics.median(durations) * len(pattern)
        if len(done) >= minimum and elapsed + per_round > seconds:
            break
        if elapsed > RUN_LIMIT_S:
            break
    return done


def _median(values):
    return statistics.median(values) if values else 0.0


def check_repeats(results) -> list:
    """Same seed, same outputs: digests, margins and call counts must match."""
    problems = []
    ok = [r for _, r in results if r is not None]
    for field in ("output_sha256", "margin_digits"):
        if len({json.dumps(r[field]) for r in ok}) > 1:
            problems.append(f"{field} differs between iterations of one seed")
    traced = [r["trace"]["metrics"] for r in ok if "trace" in r]
    for name in traced[0] if traced else ():
        if (name.endswith("_calls") or name == "roots.count") and \
                len({m[name] for m in traced}) > 1:
            problems.append(f"{name} differs between iterations of one seed")
    return problems


def _median_run(results):
    """The iteration with the median wall time (the lower one of two)."""
    ranked = sorted(results, key=lambda r: r["wall_s"])
    return ranked[(len(ranked) - 1) // 2] if ranked else None


def summarize(results, reference_size, trace, calibration_s):
    """Counts over all iterations; times and memory as medians.

    `wall_s` and `setup_s` are the medians of the scaled times of the
    untraced iterations; `trace.overhead_s` compares unscaled ones.

    The per-layer metrics are those of the traced iteration with the median
    wall time, so that they add up to its wall time.
    """
    attempted = failed = flagged = 0
    problems = check_repeats(results)
    for _, r in results:
        if r is not None:
            problems += r.get("trace", {}).get("problems", [])
    failed += len(problems)  # each breaks the benchmark's own checks
    for _, r in results:
        if r is None:
            attempted += reference_size
            failed += reference_size
            flagged += reference_size
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        flagged += r["flagged"]
        problems += [f"raised in {e}" for e in r["errors"]]
        for key, want, got in r["mismatches"]:
            problems.append(f"check {key}: reference {want}, got {got}")
    untraced = [r for traced, r in results if r is not None and not traced]
    traced = [r for traced, r in results if r is not None and traced]
    wall = _median([r["wall_s"] for r in untraced])
    if trace:
        middle = _median_run(traced)
        if middle:
            metrics = dict(middle["trace"]["metrics"])
        else:  # every traced iteration crashed: report zeros, run is incorrect
            metrics = tracing.Tracer().summarize(0.0)["metrics"]
        metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - wall
        metrics["roots.margin_digits"] = (middle or {}).get("margin_digits") or 0.0
        metrics["host.calibration_s"] = calibration_s
    else:
        metrics = {
            "wall_s": _median([r["scaled_wall_s"] for r in untraced]),
            "setup_s": _median([r["scaled_setup_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "ok_share": 1 - flagged / attempted,
        }
    return {"attempted": attempted, "failed": failed, "flagged": flagged,
            "problems": problems, "metrics": metrics}


def write_reference(workload):
    result = run_iteration(workload, 0, False, extra=("--observed",))
    if result is None:
        sys.exit("worker crashed; reference not written")
    observed = result["observed"]
    payload = {"workload": workload, "seed": 0, "checks": observed}
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"{len(observed)} checks written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "yvpoly" / "cli.py").is_file():
        print(f"yvpoly sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(args.workload)
        _remove_tmp_root()
        return 0
    reference = json.loads(
        (REFERENCE_DIR / f"{args.workload}.json").read_text())["checks"]
    facts = machine_facts()
    calibration_s = calibrate()
    try:
        results = run_iterations(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    finally:
        _remove_tmp_root()
    summary = summarize(results, len(reference), bool(args.trace),
                        calibration_s)
    print(json.dumps({"machine": facts,
                      "calibration_s": calibration_s}))
    untraced = [r for traced, r in results if r is not None and not traced]
    print(json.dumps({"unscaled_median": {
        key: _median([r[key] for r in untraced])
        for key in ("wall_s", "setup_s")}}))
    for traced, r in results:
        brief = None if r is None else {
            k: r.get(k) for k in (
                "setup_s", "wall_s", "scaled_setup_s", "scaled_wall_s",
                "probes", "peak_rss_mb", "attempted", "flagged",
                "failed", "margin_digits")}
        print(json.dumps({"traced": traced, "iteration": brief}))
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    print(f"fail_share: {summary['flagged']}/{summary['attempted']} "
          f"= {summary['flagged'] / summary['attempted']:.6f}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
