"""Generation of the Yablonskii-Vorob'ev family and its exact invariants.

The family is produced by the differential-difference recurrence

    Q_{n+1} Q_{n-1} = z Q_n^2 - 4 (Q_n Q_n'' - (Q_n')^2),   Q_0 = 1, Q_1 = z,

run on the scaled forms Q_n = z^e 4^M R_n(z^3/4), e = 1 iff n = 1 mod 3:
R_n in Z[v] is the paper's theorem 4^m | a_m, and each step is an exact
division in Z[v] by R_{n-1} (`_step`). Every record carries the
cube-compressed coefficients, the lowest coefficient x_n and its 2-adic
valuation p_n, all checked at construction, and whether the Wronskian
Q_n' Q_{n-2} - Q_n Q_{n-2}' = (2n-1) Q_{n-1}^2 held in the step.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import zip_longest

from .intpoly import (IntegrityError, IntPoly, NonIntegerQuotient,
                      NonZeroRemainder)
from .report import FAIL, PASS, Frozen, VerificationReport, timed


class StructureViolation(IntegrityError):
    """The z^3-support structure (Taneda) does not hold."""


def expected_degree(n: int) -> int:
    return n * (n + 1) // 2


def compressed_length(n: int) -> int:
    return n * (n + 1) // 6 + 1


def expected_valuation(n: int) -> int:
    return n * (n + 1) // 3


class YvRecord(Frozen):
    n: int
    poly: IntPoly
    compressed: tuple  # a_0 .. a_{[n(n+1)/6]}, a_0 = 1 (leading first)
    x_n: int
    p_n: int
    wronskian: bool | None  # the identity at n - 1 held; None: unproved

    def __init__(self, n, poly, compressed, x_n, p_n, wronskian=None):
        vars(self).update(n=n, poly=poly, compressed=compressed, x_n=x_n,
                          p_n=p_n, wronskian=wronskian)

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
    if poly.degree != d:
        raise StructureViolation(f"degree {poly.degree} != {d} at n={n}")
    eps = 1 if n % 3 == 1 else 0
    for i, c in enumerate(poly.coeffs):
        if c and i % 3 != eps:
            raise StructureViolation(f"stray z^{i} term at n={n}")
    return poly.coeffs[eps::3][::-1]


def make_record(n: int, poly: IntPoly, wronskian: bool | None = None) -> YvRecord:
    compressed = cube_compress(poly, n)
    if compressed[0] != 1:
        raise IntegrityError(f"Q_{n} not monic")
    if len(compressed) != compressed_length(n):
        raise IntegrityError(f"compressed length mismatch at n={n}")
    x_n = compressed[-1]
    if x_n == 0:
        raise IntegrityError(f"lowest coefficient of Q_{n} vanishes")
    p_n = (x_n & -x_n).bit_length() - 1  # 2-adic valuation
    if p_n != expected_valuation(n):
        raise IntegrityError(
            f"2-adic valuation {p_n} != {expected_valuation(n)} at n={n}")
    return YvRecord(n, poly, compressed, x_n, p_n, wronskian)


def _scaled(poly: IntPoly) -> tuple:
    """(R, e), poly = z^e 4^M R(z^3/4); NonIntegerQuotient unless R in Z[v]."""
    coeffs = poly.coeffs
    e, top = (len(coeffs) - 1) % 3, (len(coeffs) - 1) // 3
    for i, c in enumerate(coeffs):
        if c and (i % 3 != e or c & ((1 << 2 * (top - i // 3)) - 1)):
            raise NonIntegerQuotient(
                f"coefficient {c} of z^{i} has no integral scaled form")
    return IntPoly([c >> 2 * (top - k) for k, c in enumerate(coeffs[e::3])]), e


def _step(prev: IntPoly, cur: IntPoly, n: int) -> tuple:
    """Q_{n+1}, and whether Q_{n+1}' Q_{n-1} - Q_{n+1} Q_{n-1}' = (2n+1) Q_n^2.

    Q_{n-1} <-> (P, e') and Q_n <-> (R, e) by `_scaled`. The z-derivative
    of z^e 4^K F(z^3/4) is z^(e-1) 4^K (D_e F)(z^3/4), D_e F = sum (e + 3k)
    f_k v^k, so with S = R^2 the recurrence's right side is z^(2e-2)
    4^(2M+1) N(z^3/4), N = v S - D_{2e-1} D_{2e} S / 2 + 2 (D_e R)^2, and
    Q_{n+1} <-> (R'', e''): e'' = 2e + 1 - e' mod 3, R'' = (N / v^delta) / P
    exactly, delta = (e'' + e' - 2e + 2) / 3.
    """
    (p, e0), (r, e) = _scaled(prev), _scaled(cur)
    s = r * r
    d = IntPoly([(e + 3 * k) * c for k, c in enumerate(r.coeffs)])  # D_e R
    t = (d * d).coeffs
    # (2e-1+3k)(2e+3k) is a product of consecutive integers: the half is exact
    vs = (0,) + s.coeffs  # v S, a shift
    num = [a - ((2 * e - 1 + 3 * k) * (2 * e + 3 * k) >> 1) * b + 2 * c
           for k, (a, b, c) in enumerate(zip_longest(vs, s.coeffs, t,
                                                      fillvalue=0))]
    del r, s, t, d
    e2 = (2 * e + 1 - e0) % 3
    delta = (e2 + e0 - 2 * e + 2) // 3
    if any(num[:delta]):
        raise NonZeroRemainder("v^delta does not divide the scaled numerator")
    nxt = IntPoly(num[delta:]).exact_div(p).coeffs
    # exact_div proved v^delta R'' P = N, so the Wronskian is
    # 2 v^delta (D_{e''} R'') P = D_{2e-2} N + (2n+1) v S: one product
    want = [(2 * e - 2 + 3 * k) * c + (2 * n + 1) * a
            for k, (c, a) in enumerate(zip(num, vs))]
    del num, vs
    got = IntPoly([(e2 + 3 * k) * c for k, c in enumerate(nxt)]) * p
    ok = [0] * delta + [2 * g for g in got.coeffs] == want
    del got, want
    out = [0] * (e2 + 3 * len(nxt) - 2)  # z^e'' 4^M'' R''(z^3/4), by shifts
    out[e2::3] = [c << 2 * (len(nxt) - 1 - k) for k, c in enumerate(nxt)]
    return IntPoly(out), ok


def generate(n_max: int) -> list:
    """Records for n = 0..n_max, invariants and Wronskians checked when built;
    each step's R_{n+1} is integral by construction, 4^m | a_m proved."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    records = [make_record(0, IntPoly.one()), make_record(1, IntPoly.z())]
    for n in range(1, n_max):
        records.append(make_record(
            n + 1, *_step(records[n - 1].poly, records[n].poly, n)))
    return records[:n_max + 1]


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
