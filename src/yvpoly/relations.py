"""Inter-root relations between consecutive family members.

Every relation family is a linear combination of two power sums at a root
w of a host polynomial, for p = 1..5: the self sum S_p(w) over the host's
other roots r of 1/(w - r)^p, and the cross sum C_p(w) over the roots t of
the neighbouring member of 1/(w - t)^p. The families are one data table,
FAMILIES, read by one evaluator per route from tables of these sums built
once per host. The pole series of the rational solutions w_n is no
separate check: its Laurent coefficients a_0, a_1, a_2 and a_4 at the
poles, the roots of Q_{n-1}, are the families T1, T2, T3 and T5, which
`pole_series_check` judges under the suite name "poleseries". A failed
report's witness names its family; a numeric one also names the root
where the deviation is worst, an exact one gives the residue's
coefficients.

* exact mode -- integer arithmetic in Z[a]/(host(a)), the host monic, where
  a stands simultaneously for every root of the host. Both sums come from
  one division-free series kernel: `self_sum_residue` divides the Taylor
  expansion of host'/host - 1/(z - a) at a + u, `cross_sum_residue` that of
  target'/target. Each keeps its coefficients multiplied by powers of the
  divisor's constant term b0, host'(a) or target(a), instead of inverting
  it. A relation is checked with its rational right-hand side and every b0
  cleared: residue = 0 after multiplying by L b0^p, which is sound because
  gcd(host, host') = 1 and gcd(host, target) = 1 are proved first by a
  Euclid run mod 2^61 - 1, so the factor is invertible. Residues are plain
  IntPolys, reduced once per series coefficient and once per relation.

* numeric mode -- tables over certified high-precision root sets: one
  reciprocal per unordered pair of a root set gives S_p at both ends, and
  one per pair of consecutive root sets gives C_p in both directions. The
  terms are fixed-point integers, so the sums add exactly, at bits that
  come from the tolerance: its bits, HEADROOM_BITS = 64 to spare, and
  the bits the row length and the closest pair of roots can cost
  (_table_bits), capped at the roots' own precision. A relation is then
  judged at each root in integers, and only the worst root becomes an
  mpf. Each report states its `table_bits`, and its `margin_digits` reads
  against the 64 headroom bits.

Tables are shared across suites and n. They are keyed by the identity of
the records or root sets (and, numerically, the bits) they were built
from, and dropped when those objects are collected. The same memo, TABLES,
holds each record's inverse power sums for `series`, and the root sets and
rational solutions w_n a CLI run reads from its records.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction as F
from math import comb, frexp, inf, lcm
from typing import Sequence

import mpmath as mp
from mpmath.libmp import to_fixed

from .intpoly import IntPoly, UnexpectedCommonFactor, certify_coprime
from .quotient import QuotientContext
from .report import SKIPPED, VerificationReport, timed

P_MAX = 5  # highest power any family or checked pole coefficient uses
DEFAULT_TOLERANCE_EXPONENT = 30  # numeric checks pass below 10^-30

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


class Tables:
    """Values keyed by the identity of the objects they were built from and
    dropped when one of those is collected. An error of a type the caller
    names in `replay` is kept in place of the value and raised again on
    each request; any other error is not kept. A caller that handles a
    replayed error drops its traceback, whose frames would otherwise keep
    the sources, and so the entry, alive."""

    def __init__(self):
        self._entries = {}

    def get(self, sources, kind, build, replay=()):
        key = (kind, *map(id, sources))
        if key not in self._entries:
            try:
                self._entries[key] = build()
            except replay as exc:
                self._entries[key] = exc
            for obj in sources:
                weakref.finalize(obj, self._entries.pop, key, None)
        value = self._entries[key]
        if isinstance(value, replay):
            raise value
        return value


TABLES = Tables()


def _cleared_rhs(rhs, n):
    """(L, L c, L k) for rhs(n) = (c, k), L the lcm of their denominators:
    the right-hand side in integers, as both routes judge it."""
    const, k = map(F, rhs(n))
    scale = lcm(const.denominator, k.denominator)
    return (scale, const.numerator * (scale // const.denominator),
            k.numerator * (scale // k.denominator))


# ---------------------------------------------------------------------------
# Exact route

def _taylor(poly: IntPoly, count: int, ctx: QuotientContext) -> list:
    """poly^(i)(a) / i! for i < count, reduced: the coefficients of
    poly(a + u)."""
    return [ctx.reduce(IntPoly(
        [comb(j, i) * c for j, c in enumerate(poly.coeffs)][i:]))
        for i in range(count)]


def _series_quotient(a: list, b: list, ctx: QuotientContext) -> tuple:
    """(G, b0_powers) for A/B = sum g_m u^m, m < len(a), with no division:
    G_m = g_m b0^(m+1) = a_m b0^m - sum_{i=1..m} b_i b0^(i-1) G_{m-i}, and
    b0_powers[k] = b0^k for k = 0..len(a), all reduced. The powers and the
    weights b_i b0^(i-1) are reused, so each is reduced once; each G_m sums
    its m + 1 products unreduced and is reduced once."""
    b0_powers = [IntPoly.one()]
    for _ in a:
        b0_powers.append(ctx.reduce(b0_powers[-1] * b[0]))
    weights = [None] + [ctx.reduce(b[i] * b0_powers[i - 1])
                        for i in range(1, len(a))]
    G = []
    for m, a_m in enumerate(a):
        acc = a_m * b0_powers[m]
        for i in range(1, m + 1):
            acc = acc - weights[i] * G[m - i]
        G.append(ctx.reduce(acc))
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
    return _series_quotient([(m + 1) * t[m + 1] for m in range(p)], t[:p],
                            ctx)


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
                            c[1:p + 1], ctx)


@timed
def _exact_report(fam, records, n):
    _, _, host_key, p, cs, cc, rhs = fam
    host, target = records[n - 1], records[n]
    if host_key == "cur":
        host, target = target, host
    if (host.poly.degree or 0) < 1:
        return _skipped(fam, n, "exact")
    ctx = TABLES.get((host,), "ring", lambda: QuotientContext(host.poly))
    used = []  # (coefficient, (G, b0_powers), name of b0) per sum used
    try:
        if cs:
            used.append((cs, TABLES.get((host,), "S", lambda: (
                self_sum_residue(host.poly, P_MAX, ctx)),
                UnexpectedCommonFactor), f"Q_{host.n}'(a)"))
        if cc:
            used.append((cc, TABLES.get((host, target), "C", lambda: (
                cross_sum_residue(host.poly, target.poly, P_MAX, ctx)),
                UnexpectedCommonFactor), f"Q_{target.n}(a)"))
    except UnexpectedCommonFactor as exc:
        exc.__traceback__ = None  # see Tables
        return _report(fam, n, "exact", False, {
            "error": "UnexpectedCommonFactor", "message": str(exc),
            "gcd_degree": exc.gcd_degree})
    # cs S_p + cc C_p - (c + k a), times L and b0^p of each sum used:
    # lhs / factor = sum coeff G_{p-1} / b0^p, factor the product of b0^p
    scale, c, k = _cleared_rhs(rhs, n)
    lhs, factor = IntPoly(), IntPoly.one()
    for coeff, (G, b0_powers), _ in used:
        lhs = lhs * b0_powers[p] + coeff * G[p - 1] * factor
        factor = factor * b0_powers[p]
    residue = ctx.reduce((-1) ** (p - 1) * scale * lhs
                         - IntPoly((c, k)) * factor)
    scaled_by = "·".join([str(scale)] + [f"{name}^{p}" for *_, name in used])
    return _report(fam, n, "exact", not residue, {
        "residue": list(map(str, residue.coeffs)),
        "scaled_by": scaled_by})


# ---------------------------------------------------------------------------
# Numeric route

HEADROOM_BITS = 64  # table bits past the tolerance's, see _table_bits


def _neg_log2(x) -> int:
    """ceil(-log2 x), exactly, for a float or mpf x > 0."""
    return 1 - (frexp if isinstance(x, float) else mp.frexp)(x)[1]


def _fixed_bits(*rootsets):
    """The most fractional bits a table over rootsets is built at: their
    precision plus guard bits.

    Every term 1/(x - y)^p is at least (2 max|root|)^-P_MAX in size, and
    the guard bits keep each one, down to the smallest, accurate to more
    than the roots' precision relative; the sums themselves add integers
    exactly.
    """
    prec = max(rs.precision_bits for rs in rootsets)
    radius = max((abs(z) for rs in rootsets for z in rs.roots), default=1)
    return prec + P_MAX * (int(2 * radius) + 1).bit_length() + 16


def _table_bits(tol_bits, count, sep, cap) -> int:
    """Fractional bits b of a table of sums over at most count roots, at
    least sep apart, that resolve a tolerance tol <= 2^-tol_bits with
    HEADROOM_BITS to spare; never above cap, the bits of _fixed_bits.

    b = tol_bits + HEADROOM_BITS + ceil(log2(count P_MAX))
        + (P_MAX + 1) max(0, ceil(-log2 sep)).

    The error bound. Let M = max(1, 1/sep), u = 2^-b and p <= P_MAX, and
    let b be the uncapped value, so u <= 2^-64 sep. Each coordinate of a
    root is truncated to b bits, so a difference x - y moves by at most
    2 sqrt2 u, and 1/(x - y)^p by at most 1.01^p p M^(p+1) 2 sqrt2 u. The
    reciprocal, floor-divided, is within sqrt2 u of 1/(x - y), and each
    truncated product of the powers adds sqrt2 u; by induction the p-th
    power is within 2 p sqrt2 u (1.02 M)^(p-1) of the power of that
    reciprocal. Together one term is within 6.3 p M^(p+1) u. The integers
    add exactly, so the only error of a sum is its terms' rounding
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4), and a
    row entry, a sum of at most count terms, is within
    8 count P_MAX M^(P_MAX+1) u <= 2^-(tol_bits + HEADROOM_BITS - 3).
    A deviation cs S_p + cc C_p - (c + k w), with |cs|, |cc| <= 1 and w
    truncated to b bits, is then computed within (2^-60 + |k| 2^-63) tol
    of its value at the given roots. A verdict can differ from exact
    arithmetic only inside that band, and a margin_digits of about 18
    (60 bits) or more reads the table's resolution, not the roots'. At
    the cap the table is as accurate as the roots themselves, so a
    tolerance they cannot reach still fails.
    """
    if not sep > 0:  # coincident roots: no finite bound
        return cap
    spread = _neg_log2(sep) if sep < 1 else 0
    return min(cap, tol_bits + HEADROOM_BITS
               + (count * P_MAX - 1).bit_length() + (P_MAX + 1) * spread)


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
    p_re, p_im, sign = re, im, -1  # sign = (-1)^p
    for i in range(0, 2 * P_MAX, 2):
        if i:  # the next power; none is formed past P_MAX
            p_re, p_im, sign = ((p_re * re - p_im * im) >> bits,
                                (p_re * im + p_im * re) >> bits, -sign)
        near[i] += p_re
        near[i + 1] += p_im
        far[i] += sign * p_re
        far[i + 1] += sign * p_im


def _self_table(rs, tol_bits):
    """(bits, rows): [S_1..S_5] at each root of rs, one reciprocal per root
    pair, as fixed-point integers at bits."""
    bits = TABLES.get((rs,), ("S bits", tol_bits), lambda: _table_bits(
        tol_bits, len(rs.roots), rs.min_separation, _fixed_bits(rs)))

    def build():
        roots = _to_fixed(rs.roots, bits)
        rows = [[0] * (2 * P_MAX) for _ in roots]
        for i, j in itertools.combinations(range(len(roots)), 2):
            _add_powers(rows[i], rows[j], roots[i][0] - roots[j][0],
                        roots[i][1] - roots[j][1], bits)
        return rows
    return bits, TABLES.get((rs,), ("S", bits), build)


def _cross_separation(prev, cur) -> float:
    """A lower bound on min |w - t| over w in prev, t in cur, from doubles:
    the smallest float distance less the rounding term of
    roots._float_bounds for the largest roots."""
    ws, ts = ([complex(z) for z in rs.roots] for rs in (prev, cur))
    if not ws or not ts:
        return inf
    dist = min(abs(w - t) for w in ws for t in ts)
    return dist - 2.0 ** -49 * max(map(abs, ws + ts)) - 2.0 ** -1070


def _cross_table(prev, cur, host_key, tol_bits):
    """(bits, rows): [C_1..C_5] at each root of the host, summed over the
    other set, as fixed-point integers at bits."""
    if prev is None:  # no roots of Q_{n-1} to sum over
        return _fixed_bits(cur), [[0] * (2 * P_MAX) for _ in cur.roots]
    bits = TABLES.get((prev, cur), ("C bits", tol_bits), lambda: _table_bits(
        tol_bits, max(len(prev.roots), len(cur.roots)),
        _cross_separation(prev, cur), _fixed_bits(prev, cur)))

    def build():
        ws, ts = _to_fixed(prev.roots, bits), _to_fixed(cur.roots, bits)
        w_rows = [[0] * (2 * P_MAX) for _ in ws]
        t_rows = [[0] * (2 * P_MAX) for _ in ts]
        for (wx, wy), w_row in zip(ws, w_rows):
            for (tx, ty), t_row in zip(ts, t_rows):
                _add_powers(w_row, t_row, wx - tx, wy - ty, bits)
        return w_rows, t_rows
    return bits, TABLES.get((prev, cur), ("C", bits), build)[host_key == "cur"]


def _judge(fam, n, host, terms, tol):
    """(ok, worst, index): whether fam holds within tol at every root of
    host, the largest deviation |lhs - rhs| / max(1, |rhs|) among them, as
    an mpf, and the index of a root where it is reached. terms holds
    (coefficient, bits, rows) per power sum used.

    Each root is judged in integers at b, the largest bits of the tables:
    with L the lcm of the right-hand side's denominators, the rows shifted
    to b bits and w truncated to b bits, D = L (cs S_p + cc C_p) 2^b
    - L (c + k w) 2^b, and the root passes iff
    |D|^2 den(tol)^2 < num(tol)^2 max(L 2^b, |L (c + k w) 2^b|)^2.
    """
    _, _, _, p, _, _, rhs = fam
    scale, c, k = _cleared_rhs(rhs, n)
    bits = max(b for _, b, _ in terms)
    one = (scale << bits) ** 2
    worst_d, worst_s, worst_i = 0, 1, 0  # the worst |D|^2 / max(...)^2 so far
    for i, (wx, wy) in enumerate(_to_fixed(host.roots, bits)):
        re, im = (c << bits) + k * wx, k * wy
        d_re, d_im = -re, -im
        for coeff, b, rows in terms:
            d_re += coeff * scale * (rows[i][2 * p - 2] << bits - b)
            d_im += coeff * scale * (rows[i][2 * p - 1] << bits - b)
        d, s = d_re * d_re + d_im * d_im, max(one, re * re + im * im)
        if d * worst_s > worst_d * s:
            worst_d, worst_s, worst_i = d, s, i
    man, exp = tol.man_exp
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    ok = num > 0 and worst_d * den * den < num * num * worst_s
    return ok, mp.sqrt(mp.mpf(worst_d) / worst_s), worst_i


def _margin(tol, worst) -> float:
    """Digits to spare against the tolerance, log10(tol / worst deviation):
    positive when a check passes, inf when nothing deviates."""
    return round(float(mp.log10(tol / worst)), 2) if worst else float("inf")


def _tolerance(tolerance):
    """The tolerance as an mpf, unrounded; None stands for 10^-30."""
    if tolerance is None:
        return mp.mpf(10) ** -DEFAULT_TOLERANCE_EXPONENT
    return tolerance if isinstance(tolerance, mp.mpf) else mp.mpf(tolerance)


@timed
def _numeric_report(fam, rootsets, n, tol):
    _, _, host_key, _, cs, cc, _ = fam
    prev, cur = rootsets.get(n - 1), rootsets[n]
    host = prev if host_key == "prev" else cur
    if host is None or not host.roots:
        return _skipped(fam, n, "numeric")
    tol_bits = _neg_log2(tol)
    terms = [(cs, *_self_table(host, tol_bits))] if cs else []
    if cc:
        terms.append((cc, *_cross_table(prev, cur, host_key, tol_bits)))
    ok, worst, index = _judge(fam, n, host, terms, tol)
    dev = mp.nstr(worst, 8)
    return _report(fam, n, "numeric", ok, {"deviation": dev, "root": index},
                   deviation=dev, margin_digits=_margin(tol, worst),
                   table_bits=max(b for _, b, _ in terms))


# ---------------------------------------------------------------------------
# Reports over the family table

def _report(fam, n, mode, ok, witness, **details):
    rep = VerificationReport(suite=fam[0], n=n, details={
        "family": fam[1], "mode": mode, **details})
    return rep if ok else rep.fail({"family": fam[1], **witness})


def _skipped(fam, n, mode):
    return VerificationReport(suite=fam[0], n=n, status=SKIPPED, details={
        "family": fam[1], "mode": mode, "reason": "host has no roots"})


def _families(suite):
    """The rows of FAMILIES a suite judges. The poleseries suite reads the
    relations rows hosted by Q_{n-1}, T1, T2, T3 and T5, relabelled: at a
    root omega of Q_{n-1}, a pole of w_n, the Laurent coefficient a_m of
    w_n - 1/(z - omega) is (-1)^m (S_{m+1} - C_{m+1}), so these rows are
    a_0, a_1, a_2 and a_4 (a_3 is not fixed by the local recursion)."""
    if suite == "poleseries":
        return [(suite, *fam[1:]) for fam in FAMILIES
                if fam[0] == "relations" and fam[2] == "prev"]
    return [fam for fam in FAMILIES if fam[0] == suite]


def _verify(suite, records, n, mode, rootsets, tolerance):
    families = _families(suite)
    if mode == "exact":
        return [_exact_report(fam, records, n) for fam in families]
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    tol = _tolerance(tolerance)
    return [_numeric_report(fam, rootsets, n, tol) for fam in families]


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


def pole_series_check(records: Sequence, n: int, mode: str = "numeric",
                      rootsets: dict | None = None,
                      tolerance=None) -> list:
    """The Laurent coefficients a_0, a_1, a_2 and a_4 of w_n at every pole,
    a root of Q_{n-1}: the relations rows T1, T2, T3 and T5 (_families)."""
    return _verify("poleseries", records, n, mode, rootsets, tolerance)
