"""Output checks for the benchmark workloads.

A workload's outputs are reduced to a map from check key to outcome: a
report status (`pass`, `fail`, `skipped`), `missing`, `raised ...`, or an
exact value such as a digest. `compare` judges that map against the
reference stored in perfbench/reference/:

* flagged -- the check failed by the user's definition: it reported FAIL
  or raised, it passed in the reference and is now missing or skipped, or
  its value differs. `fail_share` is flagged over attempted.
* failed -- a flagged check that is not a failure already recorded in the
  reference (a known defect). These make the run incorrect; a wrong,
  skipped or crashed check therefore never reads as a speed-up.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter
from decimal import Decimal

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"
STATUSES = (PASS, FAIL, SKIPPED)

# Root certification threshold at the CLI's default 256-bit precision.
RESIDUAL_THRESHOLD = Decimal(2) ** -128


def status(ok: bool) -> str:
    return PASS if ok else FAIL


def keyed(pairs) -> dict:
    """{'part:part:k': status} with k numbering repeats of the same parts."""
    seen = Counter()
    out = {}
    for parts, value in pairs:
        base = ":".join(str(p) for p in parts)
        out[f"{base}:{seen[base]}"] = value
        seen[base] += 1
    return out


def record_digest(record) -> str:
    text = ",".join(str(a) for a in record.compressed)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def csv_residuals(raw: bytes) -> list:
    rows = list(csv.reader(io.StringIO(raw.decode())))
    return [Decimal(row[3]) for row in rows[1:]]


def margin_digits(residuals):
    """min over roots of log10(threshold / residual); exact zeros skipped."""
    worst = max((r for r in residuals if r > 0), default=None)
    if worst is None:
        return None
    return float(RESIDUAL_THRESHOLD.log10() - worst.log10())


def _flagged(want, got) -> bool:
    if want is not None and want not in STATUSES:
        return got != want
    if got not in (PASS, SKIPPED):
        return True  # fail, missing or raised
    return want == PASS and got != PASS


def compare(reference: dict, observed: dict) -> dict:
    keys = sorted(set(reference) | set(observed))
    flagged = failed = 0
    mismatches = []
    for key in keys:
        want, got = reference.get(key), observed.get(key, "missing")
        if not _flagged(want, got):
            continue
        flagged += 1
        if want == FAIL and got == FAIL:
            continue  # known defect, recorded in the reference
        failed += 1
        if len(mismatches) < 10:
            mismatches.append([key, want, got])
    return {"attempted": len(keys), "flagged": flagged, "failed": failed,
            "mismatches": mismatches}
