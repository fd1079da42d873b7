"""Exact sums of negative powers of roots, and series solutions at the origin.

Inverse-root power sums come from Newton's identities on the reversed
nonzero part of each polynomial, so every value is an exact rational even
though the individual roots are irrational. The same sums reappear as
Taylor coefficients of the rational Painleve solutions at 0, which the ODE
coefficient recursion reproduces independently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .intpoly import newton_power_sums
from .relations import TABLES
from .report import VerificationReport, timed


class ResonanceUnavailable(Exception):
    """Records needed for the imported series coefficient are missing."""


class FitFailure(Exception):
    """Sums are not polynomial in n within the degree bound."""


def inverse_power_sums(record, max_m: int) -> dict:
    """{m: sum over nonzero roots z of Q_n of z**-m}, m = 1..max_m, exact.

    Newton's identities run once per record, kept in the shared tables; a
    request for a larger max_m than any before runs them again up to it.
    """
    sums = TABLES.get((record,), "inverse power sums", list)
    if len(sums) < max_m:
        body = record.nonzero_part()
        sums[:] = ([Fraction(0)] * max_m if not body or body.degree < 1 else
                   newton_power_sums(body.reverse_nonzero(), max_m))
    return dict(enumerate(sums[:max_m], 1))


# ---------------------------------------------------------------------------
# Closed forms

# (m, n mod 3) -> the coefficients of n^0, n^1, ... of the displayed
# closed forms: the m-th inverse-root sum of Q_n, and the difference of the
# sums of Q_{n-1} and Q_n (nonzero roots)
CLOSED_FORMS = {
    (3, 0): ("0 1/4", "0 -1/2"),
    (3, 1): ("", "-1/4 1/4"),
    (3, 2): ("-1/4 -1/4", "1/4 1/4"),
    (6, 0): ("0 1/80 1/40", "0 -1/40"),
    (6, 1): ("1/280 -1/560 -1/560", "1/112 -1/28 3/112"),
    (6, 2): ("1/80 3/80 1/40", "-1/112 -1/28 -3/112"),
    (9, 0): ("0 1/4480 1/640 1/448", "0 -1/2240 0 -1/224"),
    (9, 1): ("1/11200 -1/22400 -1/22400",
             "-11/11200 43/11200 -57/11200 1/448"),
    (9, 2): ("-1/1120 -17/4480 -23/4480 -1/448",
             "11/11200 43/11200 57/11200 1/448"),
}


def _closed_form(n: int, m: int, column: int) -> Fraction:
    if (m, n % 3) not in CLOSED_FORMS:
        raise ValueError(f"no closed form for m={m}")
    coeffs = CLOSED_FORMS[m, n % 3][column].split()
    return _poly_eval([Fraction(c) for c in coeffs], n)


def closed_form_value(n: int, m: int) -> Fraction:
    """The displayed polynomial-in-n value of the m-th inverse-root sum."""
    return _closed_form(n, m, 0)


def difference_value(n: int, m: int) -> Fraction:
    """Closed form of sum(Q_{n-1}) - sum(Q_n), nonzero roots, m in {3,6,9}."""
    return _closed_form(n, m, 1)


@timed
def verify_closed_forms(records: Sequence, n_max: int,
                        symmetry_max_m: int = 0) -> VerificationReport:
    """Exact equality with the m = 3, 6, 9 formulas; optionally also the
    vanishing of every sum with m not divisible by 3."""
    rep = VerificationReport(suite="sums")
    top_m = max(9, symmetry_max_m)
    for n in range(n_max + 1):
        table = inverse_power_sums(records[n], top_m)
        for m in (3, 6, 9):
            if table[m] != closed_form_value(n, m):
                rep.fail({"check": "closed_form", "n": n, "m": m,
                          "got": table[m], "want": closed_form_value(n, m)})
        for m in range(1, symmetry_max_m + 1):
            if m % 3 != 0 and table[m] != 0:
                rep.fail({"check": "zero_symmetry", "n": n, "m": m,
                          "got": table[m]})
    return rep


@timed
def verify_difference_relations(records: Sequence, n_max: int) -> VerificationReport:
    """The nine displayed difference formulas, every applicable n."""
    rep = VerificationReport(suite="sums_differences")
    prev = inverse_power_sums(records[0], 9)
    for n in range(1, n_max + 1):
        cur = inverse_power_sums(records[n], 9)
        for m in (3, 6, 9):
            got = prev[m] - cur[m]
            want = difference_value(n, m)
            if got != want:
                rep.fail({"n": n, "m": m, "got": got, "want": want})
        prev = cur
    return rep


# ---------------------------------------------------------------------------
# Series at the origin

def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[:order + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _ode_rhs(a, n: int, m: int) -> Fraction:
    """Order-m right-hand side of P_II for the series a, from a[:m] alone.

    With s = 0, -1, +1 for n = 0, 1, 2 mod 3, u = w_n - s/z is regular at
    0 and solves z^2 u'' = 6 s^2 u + 6 s z u^2 + 2 z^2 u^3 + z^3 u
    + (n + s) z^2, whose z^m coefficient reads (m (m-1) - 6 s^2) a[m] = rhs.
    Where that factor vanishes (m = 0, 1 for s = 0; m = 3 otherwise) the
    recursion cannot fix a[m], and rhs = 0 is a solvability condition.
    """
    s = (0, -1, 1)[n % 3]
    rhs = Fraction(a[m - 3] if m >= 3 else 0)
    if m >= 2:
        rhs += 2 * _series_mul(_series_mul(a, a, m - 2), a, m - 2)[m - 2]
    if s and m >= 1:
        rhs += 6 * s * _series_mul(a, a, m - 1)[m - 1]
    return rhs + (n + s if m == 2 else 0)


def _imported_a3(records: Sequence, n: int) -> Fraction:
    """The resonance coefficient a[3] of u, from the exact Newton sums."""
    if n >= len(records):
        raise ResonanceUnavailable(
            f"records up to {n} required for the order-3 coefficient")
    prev = inverse_power_sums(records[n - 1], 4)
    cur = inverse_power_sums(records[n], 4)
    return -(prev[4] - cur[4])


def series_at_zero(records: Sequence, n: int, M: int) -> list:
    """Exact Taylor coefficients (orders 0..M) at 0 of w_n, or of
    u = w_n + 1/z (n = 1 mod 3) / u = w_n - 1/z (n = 2 mod 3).

    The coefficient recursion follows from the Painleve equation (_ode_rhs);
    w_n(0) = w_n'(0) = 0, and for the shifted cases the order-3 coefficient
    is a resonance the recursion cannot see and is imported from the exact
    Newton sums.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if M < 0:
        raise ValueError("M must be >= 0")
    s = (0, -1, 1)[n % 3]
    a = [Fraction(0)] * (M + 1)
    for m in range(M + 1):
        factor = m * (m - 1) - 6 * s * s
        if factor:
            a[m] = _ode_rhs(a, n, m) / factor
        elif m == 3:
            a[3] = _imported_a3(records, n)
    return a


@timed
def cross_check_series(records: Sequence, n: int, M: int) -> VerificationReport:
    """ODE-recursion coefficients against Newton-identity coefficients.

    The imported resonance coefficient is excluded from the direct
    comparison (it would be circular); it enters later orders of the
    recursion, which the comparison does check. What the recursion cannot
    satisfy by construction is the solvability condition at the resonance,
    which is checked on its own.
    """
    rep = VerificationReport(suite="series", n=n)
    a = series_at_zero(records, n, M)
    prev = inverse_power_sums(records[n - 1], M + 1)
    cur = inverse_power_sums(records[n], M + 1)
    shifted = n % 3 != 0
    for m in range(M + 1):
        if shifted and m == 3:
            continue
        want = -(prev[m + 1] - cur[m + 1])
        if a[m] != want:
            rep.fail({"check": "newton", "m": m, "got": a[m], "want": want})
    if shifted and M >= 3:
        value = _ode_rhs(a, n, 3)
        if value:
            rep.fail({"check": "ode_residual", "order": 3, "value": value})
    return rep


# ---------------------------------------------------------------------------
# Polynomiality of the sums in n

def _lagrange_interpolate(points):
    """Exact interpolating polynomial through (x, y) pairs; coefficient list."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply basis by (x - xj)
            new = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] -= c * xj
                new[t + 1] += c
            basis = new
            denom *= xi - xj
        scale = yi / denom
        for t, c in enumerate(basis):
            coeffs[t] += c * scale
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def remark_min_n_max(m: int) -> int:
    """The smallest n_max with enough samples for
    verify_remark_polynomiality(m): the degree bound m/3 + 1, plus one
    sample more than it needs to fit and one to hold out, in each residue
    class of n. Class 2 (n = 2, 5, ...) is the last to fill."""
    samples = m // 3 + 3
    return 3 * (samples - 1) + 2


@timed
def verify_remark_polynomiality(records: Sequence, m: int,
                                n_max: int) -> VerificationReport:
    """Per residue class of n, the m-th inverse-root sum is polynomial in n.

    Fits the minimal-degree exact interpolant (degree at most m/3 + 1)
    through the leading samples and demands exact prediction of every
    held-out sample. Raises FitFailure when no such polynomial exists.
    """
    if m < 3 or m % 3 != 0:
        raise ValueError("m must be a positive multiple of 3")
    if n_max < remark_min_n_max(m):
        raise ValueError(f"m={m} needs n_max >= {remark_min_n_max(m)}")
    degree_bound = m // 3 + 1
    rep = VerificationReport(suite="remark", details={"m": m})
    for cls in range(3):
        samples = [(n, inverse_power_sums(records[n], m)[m])
                   for n in range(n_max + 1) if n % 3 == cls]
        fitted = None
        for d in range(degree_bound + 1):
            coeffs = _lagrange_interpolate(samples[:d + 1])
            if all(_poly_eval(coeffs, x) == y for x, y in samples[d + 1:]):
                fitted = (d, coeffs)
                break
        if fitted is None:
            raise FitFailure(
                f"class {cls}, m={m}: no polynomial of degree <= {degree_bound}")
        d, coeffs = fitted
        rep.details[f"class_{cls}"] = {
            "degree": d,
            "coefficients": [str(c) for c in coeffs],
            "held_out": len(samples) - (d + 1),
        }
    return rep


def sums_table(records: Sequence, n_max: int, m_list: Sequence[int]) -> list:
    """Rows for the export: exact sums plus closed-form comparison columns."""
    rows = []
    for n in range(n_max + 1):
        table = inverse_power_sums(records[n], max(m_list))
        for m in m_list:
            row = {"n": n, "m": m, "sum": table[m]}
            if m in (3, 6, 9):
                row["closed_form"] = closed_form_value(n, m)
                row["match"] = table[m] == closed_form_value(n, m)
            rows.append(row)
    return rows
