"""Inter-root relations between consecutive family members.

Every relation family is a linear combination of two power sums at a root
w of a host polynomial, for p = 1..5: the self sum S_p(w) over the host's
other roots r of 1/(w - r)^p, and the cross sum C_p(w) over the roots t of
the neighbouring member of 1/(w - t)^p. The families are one data table,
FAMILIES; _verify sets each row up once, and one evaluator per route
judges it from tables of these sums built once per host. The pole series of the rational solutions w_n is no
separate check: its Laurent coefficients a_0, a_1, a_2 and a_4 at the
poles, the roots of Q_{n-1}, are the families T1, T2, T3 and T5, which
`pole_series_check` judges under the suite name "poleseries". A failed
report's witness names its family; a numeric one also names the root
where the deviation is worst, an exact one gives the residue's
coefficients.

* exact mode -- integer arithmetic in Z[a]/(host(a)), the host monic, where
  a stands simultaneously for every root of the host. One division-free
  series kernel, `sum_residue(host, other)`, built once per (host, other)
  as the numeric rows are, gives both sums: it divides the Taylor expansion
  of B'/B, B(u) = other(a + u), divided by u for the self sum (other is
  host), and keeps its coefficients multiplied by powers of b0 = B(0),
  host'(a) or other(a), instead of inverting it. A relation is checked
  with its rational right-hand side and every b0 cleared: residue = 0
  after multiplying by L b0^p, which is sound because gcd(host, host') = 1
  and gcd(host, other) = 1 are proved first by a Euclid run mod 2^61 - 1,
  so the factor is invertible. Both are theorems for the family, so a
  failed proof raises UnexpectedCommonFactor, an integrity error, as it
  does for w_n in painleve. Residues are plain IntPolys, reduced once
  per series coefficient and once per relation. A C or K row reads one
  sum and keeps its residue with that sum's table as a pin. A row that
  reads both sums passes, with `derived_from` naming the two, when the
  rows of FAMILIES with its p that read each sum alone have zero pins
  and right-hand sides that combine to its own; otherwise, and always for
  T1 and T6, its residue is that of pin_S b0_C^p + (-1)^(p-1) L cc
  G_C[p-1] b0_S^p, pin_S the residue of cs S_p alone at the row's own
  right-hand side, not kept: L b0_S^p b0_C^p (cs S_p + cc C_p - c - k a).

* numeric mode -- tables over certified high-precision root sets, built
  by one loop at the base w of each orbit of z -> omega z and z -> conj(z)
  (_judge says why the bases speak for their orbits): one reciprocal per
  root t of the host, for S_p, or of its neighbour, for C_p. The terms are
  fixed-point integers, so the sums add exactly, at bits that come from
  the tolerance: its bits, HEADROOM_BITS = 64 to spare, and the bits the
  row length and the closest pair of roots can cost (_table_bits), capped
  at the roots' own precision. A relation is then judged at each base in
  integers, and only the worst becomes an mpf. Each report states its
  `table_bits`, and its `margin_digits` reads against the 64 headroom bits.

Tables are shared across suites and n. They are keyed by the identity of
the records or root sets (and, numerically, the bits) they were built
from, and dropped when those objects are collected; a failed build keeps
nothing. The same memo, TABLES, holds each record's inverse power sums for
`series`, the rational solution w_n that `painleve.rational_solution`
builds once from Q_{n-1} and Q_n for every caller, and the root sets a CLI
run reads from its records.
"""

from __future__ import annotations

import functools
import weakref
from collections.abc import Sequence
from fractions import Fraction as F
from math import comb, frexp, lcm

import mpmath as mp
from mpmath.libmp import to_fixed

from .intpoly import IntPoly, certify_coprime
from .quotient import QuotientContext
from .report import SKIPPED, VerificationReport, timed
from .roots import _closure, _orbits, _separation

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
    dropped when one of those is collected. Only built values are kept: a
    build that raises keeps nothing, and the next request builds again."""

    def __init__(self):
        self._entries = {}

    def get(self, sources, kind, build):
        key = (kind, *map(id, sources))
        if key not in self._entries:
            self._entries[key] = build()
            for obj in sources:
                weakref.finalize(obj, self._entries.pop, key, None)
        return self._entries[key]


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


def sum_residue(host: IntPoly, other: IntPoly, p: int,
                ctx: QuotientContext) -> tuple:
    """(G, b0_powers) in Z[a]/(host): x_k = (-1)^(k-1) G[k-1] / b0^k is the
    sum of 1/(a - t)^k over the roots t != a of other, k = 1..p, the self
    sum s_k when other is host, else the cross sum c_k; b0_powers[k] = b0^k.

    B'/B = sum_k (-1)^k x_{k+1} u^k for B(u) = other(a + u), divided by u
    when other is host, and b0 = B(0), host'(a) or other(a), is proved
    invertible first: gcd(host, host') = 1 or gcd(host, other) = 1.
    """
    shift = other is host
    certify_coprime(host.derivative() if shift else other, host,
                    "host and host'" if shift else "host and target")
    b = _taylor(other, p + 1 + shift, ctx)[shift:]
    return _series_quotient([(m + 1) * b[m + 1] for m in range(p)], b[:p],
                            ctx)


def _pin(table, coeff, p, cleared, ctx) -> IntPoly:
    """The residue of coeff X_p = c + k a, X one sum, with cleared =
    (L, L c, L k): (-1)^(p-1) L coeff G_{p-1} - (L c + L k a) b0^p from X's
    table (G, b0_powers, pins), kept in pins."""
    G, b0_powers, pins = table
    if (coeff, p, cleared) not in pins:
        scale, c, k = cleared
        pins[coeff, p, cleared] = ctx.reduce(
            (-1) ** (p - 1) * scale * coeff * G[p - 1]
            - IntPoly((c, k)) * b0_powers[p])
    return pins[coeff, p, cleared]


def _derived_from(fam, n, used, ctx):
    """The pins that prove fam, a row reading S_p and C_p, at n, or None.

    Each sum's pin is the row of FAMILIES with the same p that reads it
    alone: for S_p the row hosted by fam's host, for C_p the row with fam's
    host key at n. A pin with residue 0 proves its sum equal to its row's
    right-hand side over its coefficient, as b0 is invertible (see
    sum_residue), so fam holds if those combine to fam's right-hand side.
    """
    _, _, host_key, p, _, _, rhs = fam
    h = n - (host_key == "prev")  # fam's host is Q_h
    total, names = [F(0), F(0)], []
    for i, (coeff, table, _) in enumerate(used):  # S_p, then C_p
        row = next((f for f in FAMILIES if f[3] == p and f[4 + i]
                    and not f[5 - i] and (not i or f[2] == host_key)), None)
        if row is None:
            return None
        m = n if i else h + (row[2] == "prev")
        scale, *pinned = cleared = _cleared_rhs(row[6], m)
        if _pin(table, row[4 + i], p, cleared, ctx):
            return None
        total = [t + F(coeff * v, scale * row[4 + i])
                 for t, v in zip(total, pinned)]
        names.append(f"{row[1]}@Q_{n - 1},Q_{n}" if i else f"{row[1]}@Q_{h}")
    return sorted(names) if total == list(map(F, rhs(n))) else None


@timed
def _exact_report(fam, n, host, used):
    _, _, _, p, _, _, rhs = fam
    ctx = TABLES.get((host,), "ring", lambda: QuotientContext(host.poly))
    # (coefficient, (G, b0_powers, pins), name of b0) per sum read
    used = [(coeff, TABLES.get((host, sums), "residues", lambda: (
        *sum_residue(host.poly, sums.poly, P_MAX, ctx), {})),
        f"Q_{sums.n}'(a)" if sums is host else f"Q_{sums.n}(a)")
        for coeff, sums in used]
    if len(used) == 2 and (derived := _derived_from(fam, n, used, ctx)):
        return _report(fam, n, "exact", True, {}, derived_from=derived)
    scale = (cleared := _cleared_rhs(rhs, n))[0]
    (coeff, first, _), *second = used
    if second:  # a pin that no other row reads is not kept
        first = (*first[:2], {})
    residue = _pin(first, coeff, p, cleared, ctx)
    for coeff, (G, b0_powers, _), _ in second:  # see the module docstring
        residue = ctx.reduce(residue * b0_powers[p] + (-1) ** (p - 1)
                             * scale * coeff * G[p - 1] * first[1][p])
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


def root_bits(tol) -> int:
    """The precision of root sets whose tables resolve tol uncapped: the
    tolerance's bits, HEADROOM_BITS to spare, and HEADROOM_BITS more for
    the row-length and separation terms of _table_bits."""
    return _neg_log2(tol) + 2 * HEADROOM_BITS


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


def _add_powers(row, dx, dy, bits):
    """With x - y = (dx + i dy) / 2^bits, add 1/(x - y)^p to row,
    p = 1..P_MAX, as fixed-point pairs (real part at 2p - 2, imaginary
    part at 2p - 1)."""
    norm = dx * dx + dy * dy
    re = (dx << 2 * bits) // norm
    im = (-dy << 2 * bits) // norm
    p_re, p_im = re, im
    for i in range(0, 2 * P_MAX, 2):
        if i:  # the next power; none is formed past P_MAX
            p_re, p_im = ((p_re * re - p_im * im) >> bits,
                          (p_re * im + p_im * re) >> bits)
        row[i] += p_re
        row[i + 1] += p_im


def _table(host, other, tol_bits):
    """(bits, rows): rows[i] = [X_1..X_5] at the base w = host.roots[i] of
    each orbit of host (roots._orbits), X_p the sum of 1/(w - t)^p over the
    roots t != w of other: S_p when other is host, else C_p, as fixed-point
    integers at bits, which both directions of a cross pair share."""
    a, b = sorted((host, other), key=lambda rs: rs.n)
    bits = TABLES.get((a, b), ("bits", tol_bits), lambda: _table_bits(
        tol_bits, max(len(a.roots), len(b.roots)),
        _separation(a.roots, [orbit[0] for orbit in _orbits(a)],
                    None if a is b else b.roots), _fixed_bits(a, b)))

    def build():
        ts, rows = _to_fixed(other.roots, bits), {}
        for i in (orbit[0] for orbit in _orbits(host)):
            (wx, wy), = _to_fixed([host.roots[i]], bits)
            row = rows[i] = [0] * (2 * P_MAX)
            for j, (tx, ty) in enumerate(ts):
                if j != i or other is not host:
                    _add_powers(row, wx - tx, wy - ty, bits)
        return rows
    return bits, TABLES.get((host, other), ("rows", bits), build)


def _judge(fam, n, host, terms, tol):
    """(ok, worst, index): whether fam holds within tol at every root of
    host, the largest deviation |lhs - rhs| / max(1, |rhs|) among them, as
    an mpf, and the index of a root where it is reached. terms holds
    (coefficient, bits, rows) per power sum used, rows as _table's.

    Only the orbits' bases are judged: z -> omega z and z -> conj(z) take
    S_p and C_p to omega^-p times them and to their conjugates, and every
    c + k w in FAMILIES has that weight (k = 0 at p = 0 mod 3, c = 0 at
    p = 2, c = k = 0 at p = 1), so an orbit shares its deviation and |rhs|.
    Each base is judged in integers at b, the largest bits of the tables:
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
    for i in terms[0][2]:  # the bases
        (wx, wy), = _to_fixed([host.roots[i]], bits)
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
def _numeric_report(fam, n, host, used, pair, tol):
    for rs in pair:
        if not TABLES.get((rs,), "layout", lambda: all(_closure(rs))):
            return _report(fam, n, "numeric", False, {
                "check": "layout", "roots_n": rs.n})
    tol_bits = _neg_log2(tol)
    terms = [(coeff, *_table(host, sums, tol_bits)) for coeff, sums in used]
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
    """The suite's rows at n: SKIPPED if hosted by Q_0, else judged by the
    route from the host and the (coefficient, source) of each sum read."""
    if mode == "exact":
        if not 1 <= n < len(records):
            raise ValueError(f"exact mode: n = {n} needs 1 <= n < "
                             f"len(records) = {len(records)}")
        sources, judge = records, _exact_report
    elif mode == "numeric":
        for m in (n - 1, n):
            if m not in (rootsets or {}):
                raise ValueError(f"numeric mode: no root set of Q_{m} given")
        sources, judge = rootsets, functools.partial(
            _numeric_report, pair=(rootsets[n - 1], rootsets[n]),
            tol=_tolerance(tolerance))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    for fam in _families(suite):
        h = n - (fam[2] == "prev")  # the row's host is Q_h
        host, other = sources[h], sources[2 * n - 1 - h]
        used = [(coeff, sums) for coeff, sums in ((fam[4], host),
                                                  (fam[5], other)) if coeff]
        reports.append(judge(fam, n, host, used) if h
                       else _skipped(fam, n, mode))
    return reports


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
