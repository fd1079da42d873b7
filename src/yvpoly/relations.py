"""Inter-root relations between consecutive family members.

Every relation family and every checked Laurent coefficient is a linear
combination of two power sums at a root w of a host polynomial, for
p = 1..5: the self sum S_p(w) over the host's other roots r of
1/(w - r)^p, and the cross sum C_p(w) over the roots t of the neighbouring
member of 1/(w - t)^p. The families are one data table, FAMILIES, read by
one evaluator per route from tables of these sums built once per host:

* exact mode -- integer arithmetic in Z[a]/(host(a)), the host monic, where
  a stands simultaneously for every root of the host. Both sums come from
  one division-free series kernel: `self_sum_residue` divides the Taylor
  expansion of host'/host - 1/(z - a) at a + u, `cross_sum_residue` that of
  target'/target. Each keeps its coefficients multiplied by powers of the
  divisor's constant term b0, host'(a) or target(a), instead of inverting
  it. A relation is checked with its rational right-hand side and every b0
  cleared: residue = 0 after multiplying by L b0^p, which is sound because
  gcd(host, host') = 1 and gcd(host, target) = 1 are proved first by a
  Euclid run mod 2^61 - 1, so the factor is invertible.

* numeric mode -- tables over certified high-precision root sets: one
  reciprocal per unordered pair of a root set gives S_p at both ends, and
  one per pair of consecutive root sets gives C_p in both directions. The
  terms are fixed-point integers with guard bits past the working
  precision, so the sums add exactly.

Tables are shared across suites and n. They are keyed by the identity of
the records or root sets (and, numerically, the precision) they were built
from, and dropped when those objects are collected.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction as F
from math import comb, lcm
from typing import Sequence

import mpmath as mp
from mpmath.libmp import to_fixed

from .intpoly import IntPoly, UnexpectedCommonFactor, certify_coprime
from .quotient import QuotientContext
from .report import SKIPPED, VerificationReport

P_MAX = 5  # highest power any family or checked pole coefficient uses

# (suite, family, host, p, coefficient of S_p, coefficient of C_p, rhs).
# The host is Q_{n-1} ("prev") or Q_n ("cur"), the cross sums run over the
# other of the two, and rhs(n) = (c, k) stands for c + k w at a host root w.
FAMILIES = (
    ("relations", "T1", "prev", 1, 1, -1, lambda n: (0, 0)),
    ("relations", "T2", "prev", 2, 1, -1, lambda n: (0, F(1, 6))),
    ("relations", "T3", "prev", 3, 1, -1, lambda n: (F(-(n + 1), 4), 0)),
    ("relations", "T5", "prev", 5, 1, -1,
     lambda n: (0, F(n + 1, 24) - F(1, 36))),
    ("relations", "T6", "cur", 1, -1, 1, lambda n: (0, 0)),
    ("relations", "T7", "cur", 2, -1, 1, lambda n: (0, F(-1, 6))),
    ("relations", "T8", "cur", 3, -1, 1, lambda n: (F(-(n - 1), 4), 0)),
    ("relations", "T10", "cur", 5, -1, 1,
     lambda n: (0, F(n - 1, 24) + F(1, 36))),
    ("corollary", "C2", "prev", 2, 0, 1, lambda n: (0, F(-1, 4))),
    ("corollary", "C3", "prev", 3, 0, 1, lambda n: (F(n + 1, 4), 0)),
    ("corollary", "C5", "prev", 5, 0, 1,
     lambda n: (0, -(F(n + 1, 24) - F(1, 48)))),
    ("corollary", "C6", "cur", 2, 0, 1, lambda n: (0, F(-1, 4))),
    ("corollary", "C7", "cur", 3, 0, 1, lambda n: (F(-(n - 1), 4), 0)),
    ("corollary", "C8", "cur", 5, 0, 1,
     lambda n: (0, F(n - 1, 24) + F(1, 48))),
    # Kudryashov-Demina: self sums over the roots of Q_n alone
    ("kudryashov", "K2", "cur", 2, 1, 0, lambda n: (0, F(-1, 12))),
    ("kudryashov", "K3", "cur", 3, 1, 0, lambda n: (0, 0)),
    ("kudryashov", "K5", "cur", 5, 1, 0, lambda n: (0, F(-1, 144))),
)


class _Tables:
    """Tables keyed by the identity of the objects they were built from and
    dropped when one of those is collected; an UnexpectedCommonFactor raised
    while building is kept and raised again on each request."""

    def __init__(self):
        self._entries = {}

    def get(self, sources, kind, build):
        key = (kind, *map(id, sources))
        if key not in self._entries:
            try:
                self._entries[key] = build()
            except UnexpectedCommonFactor as exc:
                self._entries[key] = exc
            for obj in sources:
                weakref.finalize(obj, self._entries.pop, key, None)
        value = self._entries[key]
        if isinstance(value, UnexpectedCommonFactor):
            raise value
        return value


_TABLES = _Tables()


# ---------------------------------------------------------------------------
# Exact route

def _taylor(poly: IntPoly, count: int, ctx: QuotientContext) -> list:
    """poly^(i)(a) / i! for i < count: the coefficients of poly(a + u)."""
    return [ctx.element(IntPoly(
        [comb(j, i) * c for j, c in enumerate(poly.coeffs)][i:]))
        for i in range(count)]


def _series_quotient(a: list, b: list) -> tuple:
    """(G, b0_powers) for A/B = sum g_m u^m, m < len(a), with no division:
    G_m = g_m b0^(m+1) = a_m b0^m - sum_{i=1..m} b_i b0^(i-1) G_{m-i}, and
    b0_powers[k] = b0^k for k = 0..len(a)."""
    b0_powers = [b[0].ctx.one()]
    for _ in a:
        b0_powers.append(b0_powers[-1] * b[0])
    # b_i b0^(i-1), shared by every G_m
    weights = [None] + [b[i] * b0_powers[i - 1] for i in range(1, len(a))]
    G = []
    for m, a_m in enumerate(a):
        acc = a_m * b0_powers[m]
        for i in range(1, m + 1):
            acc = acc - weights[i] * G[m - i]
        G.append(acc)
    return tuple(G), tuple(b0_powers)


def cross_sum_residue(host: IntPoly, target: IntPoly, p: int,
                      ctx: QuotientContext | None = None) -> tuple:
    """c_1..c_p, c_k = sum over roots t of target of 1/(a - t)^k, in
    Z[a]/(host), as (G, b0_powers) with c_k = (-1)^(k-1) G[k-1] / b0^k,
    b0 = target(a) and b0_powers[k] = b0^k.

    T'/T at a + u = sum_k (-1)^k c_{k+1} u^k; gcd(host, target) = 1 is
    certified first, so target(a) is invertible and no scaling can hide a
    nonzero residue.
    """
    if ctx is None:
        ctx = QuotientContext(host)
    certify_coprime(target, host, "host and target")
    t = _taylor(target, p + 1, ctx)
    return _series_quotient([(m + 1) * t[m + 1] for m in range(p)], t[:p])


def self_sum_residue(host: IntPoly, p: int,
                     ctx: QuotientContext | None = None) -> tuple:
    """s_1..s_p, s_k = sum over the host's other roots of 1/(a - r)^k, in
    Z[a]/(host), as (G, b0_powers) with s_k = (-1)^(k-1) G[k-1] / b0^k,
    b0 = host'(a) and b0_powers[k] = b0^k.

    host'/host - 1/(z - a) at a + u = sum_k (-1)^k s_{k+1} u^k;
    gcd(host, host') = 1, simplicity of the roots, is certified first.
    """
    if not host or host.degree < 1:
        raise ValueError("host must have degree >= 1")
    if ctx is None:
        ctx = QuotientContext(host)
    certify_coprime(host.derivative(), host, "host and host'")
    c = _taylor(host, p + 2, ctx)
    return _series_quotient([(m + 1) * c[m + 2] for m in range(p)],
                            c[1:p + 1])


def _exact_report(fam, records, n):
    _, _, host_key, p, cs, cc, rhs = fam
    host, target = records[n - 1], records[n]
    if host_key == "cur":
        host, target = target, host
    if (host.poly.degree or 0) < 1:
        return _skipped(fam, n, "exact")
    ctx = _TABLES.get((host,), "ring", lambda: QuotientContext(host.poly))
    used = []  # (coefficient, (G, b0_powers), name of b0) per sum used
    try:
        if cs:
            used.append((cs, _TABLES.get((host,), "S", lambda: (
                self_sum_residue(host.poly, P_MAX, ctx))), f"Q_{host.n}'(a)"))
        if cc:
            used.append((cc, _TABLES.get((host, target), "C", lambda: (
                cross_sum_residue(host.poly, target.poly, P_MAX, ctx))),
                f"Q_{target.n}(a)"))
    except UnexpectedCommonFactor as exc:
        return _report(fam, n, "exact", False, {
            "error": "UnexpectedCommonFactor", "message": str(exc),
            "gcd_degree": exc.gcd_degree})
    # cs S_p + cc C_p - (c + k a), times L and b0^p of each sum used
    const, k = map(F, rhs(n))
    scale = lcm(const.denominator, k.denominator)
    coeff, (G, b0_powers), _ = used[0]
    lhs, factor = coeff * G[p - 1], b0_powers[p]  # factor: product of b0^p
    for coeff, (G, b0_powers), _ in used[1:]:
        lhs = lhs * b0_powers[p] + coeff * G[p - 1] * factor
        factor = factor * b0_powers[p]
    want = ctx.element(IntPoly((const.numerator * (scale // const.denominator),
                                k.numerator * (scale // k.denominator))))
    residue = (-1) ** (p - 1) * scale * lhs - want * factor
    scaled_by = "·".join([str(scale)] + [f"{name}^{p}" for *_, name in used])
    return _report(fam, n, "exact", residue.is_zero(),
                   {"residue": residue.residue, "scaled_by": scaled_by})


# ---------------------------------------------------------------------------
# Numeric route

def _fixed_bits(prec, *rootsets):
    """Fractional bits of the fixed-point tables: prec plus guard bits.

    Every term 1/(x - y)^p is at least (2 max|root|)^-P_MAX in size, and
    the guard bits keep each one, down to the smallest, accurate to more
    than prec bits relative; the sums themselves add integers exactly.
    """
    radius = max((abs(z) for rs in rootsets for z in rs.roots), default=1)
    return prec + P_MAX * (int(2 * radius) + 1).bit_length() + 16


def _to_fixed(roots, bits):
    return [(to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits))
            for z in roots]


def _add_powers(near, far, dx, dy, bits):
    """With d = 1/(x - y) and x - y = (dx + i dy) / 2^bits, add d^p to near
    and (-d)^p = 1/(y - x)^p to far, p = 1..P_MAX, as fixed-point pairs
    (real part at 2p - 2, imaginary part at 2p - 1)."""
    norm = dx * dx + dy * dy
    re = (dx << 2 * bits) // norm
    im = (-dy << 2 * bits) // norm
    p_re, p_im = re, im
    for i in range(0, 2 * P_MAX, 2):
        sign = 1 if i % 4 else -1  # (-1)^p for p = i/2 + 1
        near[i] += p_re
        near[i + 1] += p_im
        far[i] += sign * p_re
        far[i + 1] += sign * p_im
        p_re, p_im = ((p_re * re - p_im * im) >> bits,
                      (p_re * im + p_im * re) >> bits)


def _rows(fixed_rows, bits, prec):
    """Fixed-point rows as rows of mpc rounded to prec bits."""
    with mp.workprec(prec):
        return [[mp.mpc(mp.mpf((row[i], -bits)), mp.mpf((row[i + 1], -bits)))
                 for i in range(0, 2 * P_MAX, 2)] for row in fixed_rows]


def _self_table(rs, prec):
    """Rows [S_1..S_5] at each root of rs: one reciprocal per root pair."""
    def build():
        bits = _fixed_bits(prec, rs)
        roots = _to_fixed(rs.roots, bits)
        rows = [[0] * (2 * P_MAX) for _ in roots]
        for i, j in itertools.combinations(range(len(roots)), 2):
            _add_powers(rows[i], rows[j], roots[i][0] - roots[j][0],
                        roots[i][1] - roots[j][1], bits)
        return _rows(rows, bits, prec)
    return _TABLES.get((rs,), ("S", prec), build)


def _cross_table(prev, cur, host_key, prec):
    """Rows [C_1..C_5] at each root of the host, summed over the other set."""
    if prev is None:  # no roots of Q_{n-1} to sum over
        return [[mp.mpc(0)] * P_MAX for _ in cur.roots]

    def build():
        bits = _fixed_bits(prec, prev, cur)
        ws, ts = _to_fixed(prev.roots, bits), _to_fixed(cur.roots, bits)
        w_rows = [[0] * (2 * P_MAX) for _ in ws]
        t_rows = [[0] * (2 * P_MAX) for _ in ts]
        for (wx, wy), w_row in zip(ws, w_rows):
            for (tx, ty), t_row in zip(ts, t_rows):
                _add_powers(w_row, t_row, wx - tx, wy - ty, bits)
        return _rows(w_rows, bits, prec), _rows(t_rows, bits, prec)
    return _TABLES.get((prev, cur), ("C", prec), build)[host_key == "cur"]


def _deviation(fam, n, w, s_row, c_row):
    """|LHS - RHS| / max(1, |RHS|) of one family at one host root w."""
    _, _, _, p, cs, cc, rhs = fam
    const, k = (mp.mpf(x.numerator) / x.denominator for x in map(F, rhs(n)))
    want = const + k * w
    lhs = (cs * s_row[p - 1] if cs else 0) + (cc * c_row[p - 1] if cc else 0)
    return abs(lhs - want) / max(1, abs(want))


def _margin(tol, worst) -> float:
    """Digits to spare against the tolerance, log10(tol / worst deviation):
    positive when a check passes, inf when nothing deviates."""
    return round(float(mp.log10(tol / worst)), 2) if worst else float("inf")


def _numeric_report(fam, rootsets, n, prec, tol):
    _, _, host_key, _, cs, cc, _ = fam
    prev, cur = rootsets.get(n - 1), rootsets[n]
    host = prev if host_key == "prev" else cur
    if host is None or not host.roots:
        return _skipped(fam, n, "numeric")
    s_rows = _self_table(host, prec) if cs else None
    c_rows = _cross_table(prev, cur, host_key, prec) if cc else None
    worst = mp.mpf(0)
    for i, w in enumerate(host.roots):
        worst = max(worst, _deviation(fam, n, w, s_rows and s_rows[i],
                                      c_rows and c_rows[i]))
    dev = mp.nstr(worst, 8)
    return _report(fam, n, "numeric", worst < tol, {"deviation": dev},
                   deviation=dev, margin_digits=_margin(tol, worst))


def _numeric_prec(rootsets, n) -> int:
    prec = rootsets[n].precision_bits
    if n - 1 in rootsets:
        prec = max(prec, rootsets[n - 1].precision_bits)
    return prec


# ---------------------------------------------------------------------------
# Reports over the family table

def _report(fam, n, mode, ok, witness, **details):
    rep = VerificationReport(suite=fam[0], n=n, details={
        "family": fam[1], "mode": mode, **details})
    return rep if ok else rep.fail(witness)


def _skipped(fam, n, mode):
    return VerificationReport(suite=fam[0], n=n, status=SKIPPED, details={
        "family": fam[1], "mode": mode, "reason": "host has no roots"})


def _verify(suite, records, n, mode, rootsets, tolerance):
    families = [fam for fam in FAMILIES if fam[0] == suite]
    if mode == "exact":
        return [_exact_report(fam, records, n) for fam in families]
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    prec = _numeric_prec(rootsets, n)
    with mp.workprec(prec):
        tol = tolerance if tolerance is not None else mp.mpf(10) ** -30
        return [_numeric_report(fam, rootsets, n, prec, tol)
                for fam in families]


def verify_theorem(records: Sequence, n: int, mode: str = "exact",
                   rootsets: dict | None = None,
                   tolerance=None) -> list:
    """The eight relation families tying roots of Q_{n-1} to roots of Q_n."""
    return _verify("relations", records, n, mode, rootsets, tolerance)


def verify_kudryashov(records: Sequence, n: int, mode: str = "exact",
                      rootsets: dict | None = None,
                      tolerance=None) -> list:
    """Self-sum identities over the roots of Q_n alone."""
    return _verify("kudryashov", records, n, mode, rootsets, tolerance)


def verify_corollary(records: Sequence, n: int, mode: str = "exact",
                     rootsets: dict | None = None,
                     tolerance=None) -> list:
    """Pure cross-sum identities between roots of Q_{n-1} and Q_n."""
    return _verify("corollary", records, n, mode, rootsets, tolerance)


# ---------------------------------------------------------------------------
# Laurent coefficients at a pole of w_n

def pole_series_check(records: Sequence, n: int, j: int,
                      rootsets: dict, tolerance=None) -> VerificationReport:
    """Coefficients of w_n - 1/(z - omega) at the j-th root omega of Q_{n-1}.

    a_m = (-1)^m (S_{m+1} - C_{m+1}) at omega, so a_0, a_1, a_2 and a_4 are
    checked against the closed forms of the theorem families T1, T2, T3 and
    T5, the ones hosted by Q_{n-1}; a_3 is reported only (it is not
    determined by the local recursion).
    """
    prec = _numeric_prec(rootsets, n)
    with mp.workprec(prec):
        tol = tolerance if tolerance is not None else mp.mpf(10) ** -20
        prev, cur = rootsets[n - 1], rootsets[n]
        omega = prev.roots[j]
        rep = VerificationReport(suite="poleseries", n=n,
                                 details={"j": j, "omega": mp.nstr(omega, 20)})
        s_row = _self_table(prev, prec)[j]
        c_row = _cross_table(prev, cur, "prev", prec)[j]
        worst = mp.mpf(0)
        for fam in FAMILIES:
            if fam[0] == "relations" and fam[2] == "prev":
                dev = _deviation(fam, n, omega, s_row, c_row)
                worst = max(worst, dev)
                if not dev < tol:
                    rep.fail({"m": fam[3] - 1, "deviation": mp.nstr(dev, 8)})
        rep.details["margin_digits"] = _margin(tol, worst)
        rep.details["a_3"] = mp.nstr(c_row[3] - s_row[3], 20)  # not asserted
    return rep
