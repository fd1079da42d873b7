"""Tests of the benchmark's own checks: output gate, tracing, aggregation.

    python3 -m pytest perfbench -q
"""

import json
import os
import runpy
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import gate
import hostspeed
import run
import tracer as tracing

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _reference(workload):
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["checks"]


# ---------------------------------------------------------------------------
# Output gate

def test_identical_outputs_pass():
    ref = {"a:1:0": "pass", "b:1:0": "skipped", "digest:1": "ab12"}
    assert gate.compare(ref, dict(ref)) == {
        "attempted": 3, "flagged": 0, "failed": 0, "mismatches": []}


def test_wrong_status_is_a_failed_operation():
    ref = {"a:1:0": "pass", "a:2:0": "pass"}
    verdict = gate.compare(ref, {"a:1:0": "pass", "a:2:0": "fail"})
    assert verdict["failed"] == 1 and verdict["flagged"] == 1
    assert verdict["mismatches"] == [["a:2:0", "pass", "fail"]]


def test_skipped_missing_or_raised_after_pass_is_failed():
    ref = {"a": "pass", "b": "pass", "c": "pass"}
    verdict = gate.compare(ref, {"a": "skipped", "c": "raised ValueError"})
    assert verdict["failed"] == 3 and verdict["flagged"] == 3


def test_wrong_value_is_failed():
    verdict = gate.compare({"digest:5": "00ff"}, {"digest:5": "00fe"})
    assert verdict["failed"] == 1


def test_new_failing_check_is_failed():
    verdict = gate.compare({"a": "pass"}, {"a": "pass", "b": "fail"})
    assert verdict["failed"] == 1 and verdict["attempted"] == 2


def test_known_defect_is_flagged_but_not_failed():
    verdict = gate.compare({"remark:None:0": "fail"}, {"remark:None:0": "fail"})
    assert verdict["flagged"] == 1 and verdict["failed"] == 0
    fixed = gate.compare({"remark:None:0": "fail"}, {"remark:None:0": "skipped"})
    assert fixed["flagged"] == 0 and fixed["failed"] == 0


def test_references_match_known_state():
    verify = _reference("verify-default")
    verdict = gate.compare(verify, verify)
    assert verdict["failed"] == 0
    assert verdict["flagged"] == 2  # the remark suite needs n_max >= 23
    assert sorted(k for k, v in verify.items() if v == "fail") == [
        "remark:None:0", "remark:None:1"]
    assert set(_reference("roots-deep").values()) == {"pass"}
    exact = _reference("exact-relations")
    assert gate.compare(exact, exact)["flagged"] == 0
    assert sum(v == "skipped" for v in exact.values()) == 7  # Q_0 has no roots
    family = _reference("family-deep")
    assert gate.compare(family, family)["flagged"] == 0


def test_family_digests_match_published_table():
    table = Path(__file__).resolve().parent.parent / "tests" / "table1.py"
    reference = _reference("family-deep")
    for n, compressed in runpy.run_path(str(table))["COMPRESSED"].items():
        record = SimpleNamespace(compressed=compressed)
        assert reference[f"digest:{n}"] == gate.record_digest(record)


def test_keyed_numbers_repeats():
    assert gate.keyed([(("relations", 3), "pass"), (("relations", 3), "fail"),
                       (("remark", None), "fail")]) == {
        "relations:3:0": "pass", "relations:3:1": "fail", "remark:None:0": "fail"}


def test_margin_digits_and_csv():
    raw = (b"n,re,im,residual\r\n2,1.0,0.0,0.0\r\n"
           b"2,1.0,1.0," + str(gate.RESIDUAL_THRESHOLD * Decimal("1e-5")).encode()
           + b"\r\n")
    residuals = gate.csv_residuals(raw)
    assert len(residuals) == 2
    assert abs(gate.margin_digits(residuals) - 5.0) < 1e-9
    assert gate.margin_digits([Decimal(0)]) is None


# ---------------------------------------------------------------------------
# Aggregation

def _iteration(**overrides):
    result = {"setup_s": 0.5, "wall_s": 2.0, "scaled_setup_s": 0.5,
              "scaled_wall_s": 2.0, "peak_rss_mb": 50.0,
              "output_sha256": "x", "margin_digits": None, "errors": [],
              "attempted": 10, "flagged": 0, "failed": 0, "mismatches": []}
    result.update(overrides)
    return result


def test_summary_counts_wrong_output_and_crash():
    results = [(False, _iteration()),
               (False, _iteration(failed=1, flagged=1,
                                  mismatches=[["a", "pass", "fail"]])),
               (False, None)]
    summary = run.summarize(results, reference_size=10, trace=False,
                            calibration_s=1.0)
    assert summary["attempted"] == 30
    assert summary["failed"] == 11
    assert summary["metrics"]["ok_share"] == 1 - 11 / 30


def test_summary_flags_nondeterministic_outputs():
    results = [(False, _iteration()), (False, _iteration(output_sha256="y"))]
    summary = run.summarize(results, reference_size=10, trace=False,
                            calibration_s=1.0)
    assert summary["failed"] == 1
    assert "output_sha256" in summary["problems"][0]


def test_summary_medians_of_scaled_times():
    results = [(False, _iteration(scaled_wall_s=w, scaled_setup_s=w / 10))
               for w in (3.0, 1.0, 2.0)]
    metrics = run.summarize(results, 10, False, 1.0)["metrics"]
    assert metrics["wall_s"] == 2.0 and metrics["setup_s"] == 0.2
    assert metrics["ok_share"] == 1.0


def test_host_speed_scales_each_stretch_by_its_probes():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_PROBE_S
    # Full speed, then a stretch that ends at half speed, then half speed.
    speed._first_probe = ref
    speed.stretches = [(1.0, ref), (1.0, 2 * ref), (2.0, 2 * ref)]
    summary = speed.summary()
    assert summary["work_s"] == 4.0 and summary["probes"] == 4
    assert abs(summary["scaled_s"] - (1.0 + 0.75 + 1.0)) < 1e-12


def test_host_speed_probes_inside_the_package():
    script = """
import json, time, hostspeed
from yvpoly import family, relations
speed = hostspeed.HostSpeed(); speed.install(); speed.start()
start = time.perf_counter()
records = family.generate(20)
relations.verify_theorem(records, 5, mode="exact")
elapsed = time.perf_counter() - start
speed.stop()
print(json.dumps({"elapsed": elapsed, **speed.summary()}))
"""
    result = json.loads(_run_with_package(script))
    assert result["probes"] > 2
    assert 0 < result["work_s"] <= result["elapsed"] + 0.01
    assert result["scaled_s"] > 0


def test_metric_names_match_benchmark_spec():
    untraced = run.summarize([(False, _iteration())], 10, False, 1.0)
    assert sorted(untraced["metrics"]) == sorted(
        m["name"] for m in run.SPEC["end_to_end"])
    traced_iteration = _iteration(trace=tracing.Tracer().summarize(2.0))
    traced = run.summarize([(False, _iteration()), (True, traced_iteration)],
                           10, True, 1.0)
    assert sorted(traced["metrics"]) == sorted(
        m["name"] for m in run.SPEC["per_layer"])
    assert traced["failed"] == 0


# ---------------------------------------------------------------------------
# Tracing

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_account_for_wall():
    t = tracing.Tracer()
    inner = t.wrap("intpoly.IntPoly.__mul__", lambda: _busy(0.02))

    def outer_body():
        _busy(0.01)
        inner()
        inner()

    outer = t.wrap("family.generate", outer_body)
    t0 = time.perf_counter()
    outer()
    _busy(0.01)
    wall = time.perf_counter() - t0
    summary = t.summarize(wall)
    m = summary["metrics"]
    assert summary["problems"] == []
    assert m["intpoly.mul_calls"] == 2
    assert m["intpoly.self_s"] >= 0.04 and m["family.self_s"] >= 0.01
    assert m["family.generate_s"] >= m["intpoly.mul_s"] >= 0.04
    assert m["trace.unattributed_s"] >= 0.01
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert abs(total + m["trace.unattributed_s"] - wall) < 1e-9


def test_broken_nesting_is_reported():
    t = tracing.Tracer()
    t.spans = [("family.generate", 0.0, 1.0, -1), ("intpoly.x", 0.0, 2.0, 0)]
    assert t.summarize(3.0)["problems"]


def test_install_wraps_operators_and_references():
    script = """
import json, yvpoly.cli
from yvpoly import family, intpoly, series
import tracer as tracing
t = tracing.Tracer(); tracing.install(t)
family.generate(6)
series.inverse_power_sums(family.generate(4)[4], 3)
names = {s[0] for s in t.spans}
print(json.dumps({
    "names": sorted(names),
    "suites": sorted(getattr(f, '__wrapped__', None) is not None
                     for f in yvpoly.cli.SUITE_RUNNERS.values()),
}))
"""
    result = json.loads(_run_with_package(script))
    assert "intpoly.IntPoly.__mul__" in result["names"]
    assert "intpoly.IntPoly.exact_div" in result["names"]
    assert "intpoly.newton_power_sums" in result["names"]  # from-import copy
    assert set(result["suites"]) == {True}


def _run_with_package(script):
    """Run `script` in a fresh interpreter that sees src/ and perfbench/."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout
