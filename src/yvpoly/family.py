"""Generation of the Yablonskii-Vorob'ev family and its exact invariants.

The family is produced by the differential-difference recurrence

    Q_{n+1} Q_{n-1} = z Q_n^2 - 4 (Q_n Q_n'' - (Q_n')^2),   Q_0 = 1, Q_1 = z,

where each step is an exact integer-polynomial division by Q_{n-1}. Every
record carries the cube-compressed coefficients, the lowest coefficient x_n
and its 2-adic valuation p_n, all checked at construction, and whether the
Wronskian Q_n' Q_{n-2} - Q_n Q_{n-2}' = (2n-1) Q_{n-1}^2 held in the step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .intpoly import IntPoly
from .report import FAIL, PASS, VerificationReport, timed


class IntegrityError(Exception):
    """A proven property of the family failed computationally."""


class StructureViolation(IntegrityError):
    """The z^3-support structure (Taneda) does not hold."""


def expected_degree(n: int) -> int:
    return n * (n + 1) // 2


def compressed_length(n: int) -> int:
    return n * (n + 1) // 6 + 1


def expected_valuation(n: int) -> int:
    return n * (n + 1) // 3


@dataclass(frozen=True)
class YvRecord:
    n: int
    poly: IntPoly
    compressed: tuple  # a_0 .. a_{[n(n+1)/6]}, a_0 = 1 (leading first)
    x_n: int
    p_n: int
    wronskian: bool | None = None  # the identity at n - 1 held; None: unproved

    @property
    def has_zero_root(self) -> bool:
        return self.n % 3 == 1

    def nonzero_part(self) -> IntPoly:
        """poly, or poly/z when z divides it."""
        if self.has_zero_root:
            return IntPoly(self.poly.coeffs[1:])
        return self.poly


def cube_compress(poly: IntPoly, n: int) -> tuple:
    """Compressed coefficients (a_0, ..., a_{[n(n+1)/6]}), leading first.

    poly must be z**eps times a polynomial in z**3, eps = 1 iff n = 1 mod 3.
    """
    d = expected_degree(n)
    if (poly.degree or 0) != d or (n > 0 and poly.degree is None):
        raise StructureViolation(f"degree {poly.degree} != {d} at n={n}")
    eps = 1 if n % 3 == 1 else 0
    coeffs = poly.coeffs
    if eps:
        if coeffs and coeffs[0] != 0:
            raise StructureViolation(f"missing z factor at n={n}")
        coeffs = coeffs[1:]
    for i, c in enumerate(coeffs):
        if c and i % 3 != 0:
            raise StructureViolation(f"stray z^{i + eps} term at n={n}")
    inner_deg = d - eps
    out = [coeffs[inner_deg - 3 * s] for s in range(inner_deg // 3 + 1)]
    return tuple(out)


def _two_adic_valuation(x: int) -> int:
    return (x & -x).bit_length() - 1


def make_record(n: int, poly: IntPoly, wronskian: bool | None = None) -> YvRecord:
    compressed = cube_compress(poly, n)
    if compressed[0] != 1:
        raise IntegrityError(f"Q_{n} not monic")
    if len(compressed) != compressed_length(n):
        raise IntegrityError(f"compressed length mismatch at n={n}")
    x_n = compressed[-1]
    if x_n == 0:
        raise IntegrityError(f"lowest coefficient of Q_{n} vanishes")
    p_n = _two_adic_valuation(x_n)
    if p_n != expected_valuation(n):
        raise IntegrityError(
            f"2-adic valuation {p_n} != {expected_valuation(n)} at n={n}")
    return YvRecord(n, poly, compressed, x_n, p_n, wronskian)


def _step(prev: IntPoly, cur: IntPoly, z: IntPoly, n: int) -> tuple:
    """Q_{n+1}, and whether Q_{n+1}' Q_{n-1} - Q_{n+1} Q_{n-1}' = (2n+1) Q_n^2."""
    # Q Q'' - Q'^2 = (Q^2)''/2 - 2 Q'^2: two squarings, no general product
    s = cur * cur
    d1 = cur.derivative()
    num = z * s - 2 * s.derivative().derivative() + 8 * (d1 * d1)
    del d1
    nxt = num.exact_div(prev)
    # exact_div proved num = Q_{n+1} Q_{n-1}, so the Wronskian is
    # 2 Q_{n+1}' Q_{n-1} - num': one product, formed once num and s are gone
    want = (num.derivative() + (2 * n + 1) * s).coeffs
    del num, s
    got = (nxt.derivative() * prev).coeffs
    return nxt, len(got) == len(want) and all(2 * g == w for g, w in zip(got, want))


def generate(n_max: int) -> list:
    """Records for n = 0..n_max, invariants and Wronskians checked when built."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    z = IntPoly.z()
    records = [make_record(0, IntPoly.one())]
    if n_max >= 1:
        records.append(make_record(1, z))
    for n in range(1, n_max):
        records.append(make_record(
            n + 1, *_step(records[n - 1].poly, records[n].poly, z, n)))
    return records


# ---------------------------------------------------------------------------
# Verifiers

@timed
def check_divisibility(r: YvRecord) -> VerificationReport:
    """4^m divides a_m for every compressed coefficient."""
    rep = VerificationReport(suite="divisibility", n=r.n)
    for m, a in enumerate(r.compressed):
        if a % (4 ** m) != 0:
            rep.fail({"m": m, "a_m": a})
    return rep


@timed
def valuation_checks(records: Sequence[YvRecord]) -> VerificationReport:
    """x_n three-case recursion, p_n formula and p_n recursion."""
    rep = VerificationReport(suite="valuation")
    for r in records:
        if r.p_n != expected_valuation(r.n):
            rep.fail({"check": "p_formula", "n": r.n, "p_n": r.p_n})
    for n in range(1, len(records) - 1):
        x_prev, x, x_next = records[n - 1].x_n, records[n].x_n, records[n + 1].x_n
        factor = {0: 2 * n + 1, 1: 4, 2: -(2 * n + 1)}[n % 3]
        if x_next * x_prev != factor * x * x:
            rep.fail({"check": "x_recursion", "n": n})
        p_prev, p, p_next = records[n - 1].p_n, records[n].p_n, records[n + 1].p_n
        bump = 2 if n % 3 == 1 else 0
        if p_next != 2 * p - p_prev + bump:
            rep.fail({"check": "p_recursion", "n": n})
    return rep


@timed
def wronskian_check(records: Sequence[YvRecord], n: int) -> VerificationReport:
    """Q_{n+1}' Q_{n-1} - Q_{n+1} Q_{n-1}' = (2n+1) Q_n^2, exactly: the
    verdict that generate proved when it formed Q_{n+1}."""
    if n < 1 or n + 1 >= len(records):
        raise ValueError(f"need records n-1..n+1 around n={n}")
    rep = VerificationReport(suite="wronskian", n=n,
                             details={"proved_in": "generate"})
    if not records[n + 1].wronskian:
        rep.fail({"n": n})
    return rep


@timed
def mod4_reduction(r: YvRecord) -> VerificationReport:
    """Q_n (or Q_n/z) is congruent to its leading monomial mod 4."""
    rep = VerificationReport(suite="mod4", n=r.n)
    body = r.nonzero_part()
    for i, c in enumerate(body.coeffs[:-1] if body.coeffs else ()):
        if c % 4 != 0:
            rep.fail({"power": i, "coefficient": c})
    return rep


@timed
def verify_irrationality_premises(r: YvRecord) -> VerificationReport:
    """The computational premises behind irrationality of the nonzero roots.

    Divisibility by powers of 4, the exact 2-adic valuation of x_n, and the
    mod-4 collapse of the non-leading coefficients; given these, the nonzero
    roots cannot be rational.
    """
    parts = [check_divisibility(r), mod4_reduction(r)]
    ok = all(p.passed for p in parts) and r.p_n == expected_valuation(r.n)
    rep = VerificationReport(
        suite="irrationality_premises", n=r.n,
        status=PASS if ok else FAIL,
        details={"conclusion": "nonzero roots irrational" if ok else "premises violated"})
    if not ok:
        rep.witnesses = [w for p in parts for w in p.witnesses]
    return rep


# ---------------------------------------------------------------------------
# Serialization

def record_to_json_dict(r: YvRecord) -> dict:
    return {
        "n": r.n,
        "degree": expected_degree(r.n),
        "compressed": [str(a) for a in r.compressed],
        "x_n": str(r.x_n),
        "p_n": r.p_n,
    }


def record_to_json(r: YvRecord) -> str:
    return json.dumps(record_to_json_dict(r), indent=2)
