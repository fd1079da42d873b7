"""Host speed probed during a worker's timed region, so times can be scaled.

A shared 2-core host runs the same code up to 2x slower for minutes at a
time, and the two vCPUs change speed independently of each other; steal
time and CPU time do not show it. A calibration loop run before or between
iterations therefore does not see the speed the workload saw. Instead the
worker itself runs `probe`, a fixed ~0.15 ms piece of mpmath work, about
every PROBE_EVERY_S while the workload runs: whenever one of PROBE_POINTS
returns and that much time has passed since the last probe. Probe time is
kept out of the workload's time.

`HostSpeed.summary` integrates work over host speed: each stretch of work
between two probes counts its seconds times the mean of the speeds
(REFERENCE_PROBE_S / probe time) at its two ends. That gives the seconds
the work would take on a host where the probe takes REFERENCE_PROBE_S."""

from __future__ import annotations

import functools
import importlib
import time

import mpmath

PROBE_EVERY_S = 0.01
REFERENCE_PROBE_S = 0.00016  # about probe() on a quiet 2-core Xeon VM

# Functions after whose return a probe may run, plus every cli.SUITE_RUNNERS
# entry. They are looked up as module globals at each call, so wrapping the
# module attribute also catches calls from inside the package. The private
# ones sit in the longest stretches (Aberth sweeps, pair sums, residues, the
# recurrence), so that few stretches without a probe last over 0.1 s. A
# name a later version lacks is skipped.
PROBE_POINTS = {
    "family": ("generate", "_step", "make_record", "wronskian_check",
               "valuation_checks"),
    "relations": ("verify_theorem", "verify_corollary", "verify_kudryashov",
                  "pole_series_check", "cross_sum_residue",
                  "self_sum_residue", "_pair_sums",
                  "_numeric_relation_deviation"),
    "roots": ("roots_for_record", "find_roots", "lift_cube_roots", "certify",
              "export_svg", "_horner", "_residual"),
    "series": ("verify_closed_forms", "verify_difference_relations",
               "verify_remark_polynomiality", "cross_check_series",
               "inverse_power_sums", "_series_mul"),
    "painleve": ("rational_solution", "pII_residual", "backlund_next",
                 "poly_gcd"),
}

_COEFFS = [mpmath.mpc(k, -k) for k in range(1, 21)]
_POINT = mpmath.mpc("0.3", "0.7")


def probe() -> float:
    """Seconds for a 20-term complex Horner sum at 256 bits.

    Interpreter-bound mpmath code like most of yvpoly's; of the probes
    tried (big-int products, Fractions, list scans, a mix), this one
    followed the slowdowns of both workloads best.
    """
    t0 = time.perf_counter()
    with mpmath.workprec(256):
        acc = mpmath.mpc(0)
        for c in _COEFFS:
            acc = acc * _POINT + c
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.stretches = []  # (work seconds, probe seconds at its end)
        self._first_probe = None
        self._last = None

    def wrap(self, fn):
        maybe_probe = self.maybe_probe

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                maybe_probe()

        return probed

    def install(self) -> None:
        for name, attrs in PROBE_POINTS.items():
            module = importlib.import_module(f"yvpoly.{name}")
            for attr in attrs:
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(fn))
        runners = importlib.import_module("yvpoly.cli").SUITE_RUNNERS
        for suite, fn in list(runners.items()):
            runners[suite] = self.wrap(fn)

    def start(self) -> None:
        """Probe once; the timed region starts when this returns."""
        self._first_probe = probe()
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        if self._last is None:
            return
        now = time.perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.stretches.append((now - self._last, probe()))
            self._last = time.perf_counter()

    def stop(self) -> None:
        """End the timed region with a last stretch and probe."""
        self.stretches.append((time.perf_counter() - self._last, probe()))
        self._last = None

    def summary(self) -> dict:
        """Work seconds, their scaled equivalent and the probe count."""
        speeds = [REFERENCE_PROBE_S / p
                  for p in [self._first_probe] + [p for _, p in self.stretches]]
        scaled = sum(work * (speeds[i] + speeds[i + 1]) / 2
                     for i, (work, _) in enumerate(self.stretches))
        return {"work_s": sum(work for work, _ in self.stretches),
                "scaled_s": scaled,
                "probes": len(speeds)}
