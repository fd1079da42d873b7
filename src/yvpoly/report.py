"""Structured pass/fail records shared by all verification suites."""

from __future__ import annotations

import functools
import time
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


def stringify(value: object):
    """Recursively encode big numbers as decimal strings for serialization."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): stringify(v) for k, v in value.items()}
    return str(value)


class Frozen:
    """Read-only fields: a subclass's __init__ stores them once through
    vars(self), and assigning or deleting one raises AttributeError. Two
    instances of one class are equal when their fields are."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


class VerificationReport:
    suite: str
    n: int | None
    status: str
    details: dict
    witnesses: list
    elapsed: float

    def __init__(self, suite, n=None, status=PASS, details=None,
                 witnesses=None, elapsed=0.0):
        self.suite, self.n, self.status = suite, n, status
        self.details = {} if details is None else details
        self.witnesses = [] if witnesses is None else witnesses
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def fail(self, witness=None) -> "VerificationReport":
        self.status = FAIL
        if witness is not None:
            self.witnesses.append(witness)
        return self

    def to_json_dict(self, include_timing: bool = True) -> dict:
        d = {
            "suite": self.suite,
            "n": self.n,
            "status": self.status,
            "details": stringify(self.details),
            "witnesses": stringify(self.witnesses),
        }
        if include_timing:
            d["elapsed"] = self.elapsed
        return d


def timed(make):
    """Decorate a function that makes one report: the report's `elapsed`
    becomes the wall time of the call that made it."""
    @functools.wraps(make)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = make(*args, **kwargs)
        rep.elapsed = time.perf_counter() - t0
        return rep
    return wrapper


def combine(suite: str, n, reports) -> VerificationReport:
    """Aggregate: passes iff every sub-report passes (skips ignored), and
    keeps the smallest `margin_digits` and the largest `table_bits` among
    the sub-reports that have one, and the sorted union of their
    `derived_from`."""
    reports = list(reports)
    status = PASS
    if any(r.status == FAIL for r in reports):
        status = FAIL
    elif reports and all(r.status == SKIPPED for r in reports):
        status = SKIPPED
    agg = VerificationReport(suite=suite, n=n, status=status)
    agg.witnesses = [w for r in reports for w in r.witnesses]
    for key, pick in (("margin_digits", min), ("table_bits", max)):
        values = [r.details[key] for r in reports if key in r.details]
        if values:
            agg.details[key] = pick(values)
    derived = {d for r in reports for d in r.details.get("derived_from", ())}
    if derived:
        agg.details["derived_from"] = sorted(derived)
    agg.elapsed = sum(r.elapsed for r in reports)
    return agg
