"""High-precision root extraction for the family, with certification.

Root finding runs in the y = z^3 domain on the compressed coefficients
(one third the degree, and the threefold symmetry of the full root set is
then exact by construction). Full precision is spent only where it is
needed:

1. Aberth-Ehrlich simultaneous correction in hardware doubles, from a
   seeded circle. y is scaled by 2^s, s from the log2 Fujiwara bound, so
   coefficients past the float range (n >= 25) still convert. Each
   Newton quotient R/R' comes from Horner's rule in doubles until |R| is
   within that rule's rounding bound, and from exact integer evaluation
   at the double point after that, because the coefficients cancel so
   badly near the roots that doubles alone resolve nothing past n ~ 25.
   A root stops when its step no longer changes it.
2. Newton steps at doubling precision, from 106 bits up to twice the
   working precision: each step runs at about twice the bits the one
   before reached, and the top step repeats until a further one could
   not change the roots. At each step every correction must have shrunk
   roughly quadratically, and the roots must stay pairwise farther apart
   than twice the largest correction, so that no two seeds converge to
   the same root.
3. If a check fails, Aberth runs again in mpmath at the working precision
   plus 32 bits, from the float seeds, and two Newton steps at doubled
   precision polish the result.

Steps 1 and 3 share one Aberth kernel. Lifting to z and certification
screen their pair scans with float approximations and measure only the
pairs that survive the screen at full precision.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .family import StructureViolation, YvRecord, expected_degree
from .report import VerificationReport

DEFAULT_PRECISION_BITS = 256
MAX_ITERATIONS = 400
FLOAT_EPS = 2.0 ** -53  # unit roundoff of a hardware double
# A ladder correction may exceed the quadratic prediction by this factor;
# the first must be below FIRST_STEP, and the top level runs at most
# TOP_STEPS times.
LADDER_SLACK = 2 ** 16
FIRST_STEP = 2 ** -20
TOP_STEPS = 3


class RootFindingError(RuntimeError):
    """A root set that could not be found or certified, with its witness."""

    def __init__(self, message, iterations=None, worst_residual=None, n=None):
        super().__init__(message)
        self.iterations = iterations
        self.worst_residual = worst_residual
        self.n = n


class NoConvergence(RootFindingError):
    pass


class CertificationFailure(RootFindingError):
    pass


@dataclass(frozen=True)
class ReducedPoly:
    """Compressed coefficients read as a polynomial R(y), y = z^3."""
    n: int
    y_coeffs: tuple  # low-to-high, integers; monic
    zero_root: bool  # true iff a factor z was stripped

    @property
    def degree(self) -> int:
        return len(self.y_coeffs) - 1


@dataclass(frozen=True)
class RootSet:
    n: int
    roots: tuple  # mp.mpc values
    precision_bits: int
    residuals: tuple
    max_residual: object
    min_separation: object
    includes_zero: bool
    # How the roots were found (see the module docstring).
    float_iterations: int = 0  # Aberth sweeps in hardware doubles
    ladder: tuple = ()  # precision (bits) of each Newton step that passed
    fallback: bool = False  # whether the mpmath Aberth fallback ran
    final_correction: object = None  # largest relative last Newton step


def working_precision(degree: int, precision_bits: int = DEFAULT_PRECISION_BITS,
                      coeff_bits: int = 0) -> int:
    # coeff_bits keeps the exact-integer -> float conversion faithful
    return max(precision_bits, 128, 4 * degree, coeff_bits + 64)


def _coeff_bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs if c), default=1)


def cube_reduce(r: YvRecord) -> ReducedPoly:
    if r.compressed[0] != 1:
        raise StructureViolation(f"Q_{r.n} not monic in compressed form")
    y_coeffs = tuple(reversed(r.compressed))
    if r.n >= 1 and y_coeffs[0] == 0:
        raise StructureViolation(f"R_{r.n}(0) vanishes")
    return ReducedPoly(n=r.n, y_coeffs=y_coeffs, zero_root=r.has_zero_root)


def _horner(coeffs, x):
    """sum coeffs[k] x^k; works on floats, complex, mpf and mpc alike."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _aberth(newton, xs, eps):
    """Aberth-Ehrlich simultaneous correction of xs in place.

    Generic over the arithmetic of xs (complex or mpc), with unit roundoff
    eps. newton(x) returns p(x)/p'(x), or None once p(x) is down to its
    rounding error. A root stops moving then, or once its step falls
    below 8 eps |x|; stopped roots still repel the others. Returns
    (sweeps, whether every root stopped).
    """
    moving = list(range(len(xs)))
    sweep = 0
    while moving and sweep < MAX_ITERATIONS:
        sweep += 1
        still = []
        for i in moving:
            xi = xs[i]
            try:
                step = newton(xi)
            except ArithmeticError:  # p'(x) = 0 or overflow: nudge x
                xs[i] = xi + 8 * eps * (1 + abs(xi))
                still.append(i)
                continue
            if step is None:
                continue
            s = sum(1 / (xi - xj) for xj in xs if xj != xi)
            denom = 1 - step * s
            corr = step if denom == 0 else step / denom
            xs[i] = xi - corr
            if abs(corr) > 8 * eps * abs(xi):
                still.append(i)
        moving = still
    return sweep, not moving


def _horner_newton(coeffs, eps):
    """newton(x) for _aberth by Horner's rule in the arithmetic of x; None
    within the rounding bound 8 d eps sum |a_k| |x|^k."""
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    abs_coeffs = [abs(c) for c in coeffs]
    bound = 8 * len(dcoeffs) * eps

    def newton(x):
        pv = _horner(coeffs, x)
        if abs(pv) <= bound * _horner(abs_coeffs, abs(x)):
            return None
        return pv / _horner(dcoeffs, x)
    return newton


def _exact_horner(coeffs, re, im, e):
    """2^(e m) sum coeffs[k] y^k for y = (re + i im) / 2^e, m = degree,
    exactly, as the integer pair (real, imaginary)."""
    m = len(coeffs) - 1
    pr, pi = coeffs[m], 0
    for k in range(m - 1, -1, -1):
        pr, pi = pr * re - pi * im + (coeffs[k] << (e * (m - k))), \
            pr * im + pi * re
    return pr, pi


def _float_newton(coeffs, s):
    """newton(u) for _aberth on R(2^s u) in doubles, u = y / 2^s.

    Horner's rule in doubles where it resolves R; where |R(u)| is within
    its rounding bound, R and R' are evaluated exactly in integers at the
    double u, so the step is correctly rounded however ill-conditioned R
    is there (past n ~ 20, doubles alone stall far from the roots).
    """
    d = len(coeffs) - 1
    # exact int/int division rounds each scaled coefficient once
    fast = _horner_newton([c / (1 << (s * (d - k)))
                           for k, c in enumerate(coeffs)], FLOAT_EPS)
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]

    def newton(u):
        step = fast(u)
        if step is not None:
            return step
        (nr, dr), (ni, di) = (u.real.as_integer_ratio(),
                              u.imag.as_integer_ratio())
        f = max(dr, di).bit_length() - 1  # u = (re + i im) / 2^f
        re, im = nr * (1 << f) // dr, ni * (1 << f) // di
        e = max(f - s, 0)  # y = 2^s u = (re + i im) / 2^e after the shift
        re, im = re << max(s - f, 0), im << max(s - f, 0)
        pr, pi = _exact_horner(coeffs, re, im, e)
        qr, qi = _exact_horner(dcoeffs, re, im, e)
        # R/R' = (p / 2^(e d)) / (q / 2^(e (d-1))); divide by 2^s for u
        den = (qr * qr + qi * qi) << (e + s)
        return complex((pr * qr + pi * qi) / den, (pi * qr - pr * qi) / den)
    return newton


def _scale_exponent(coeffs) -> int:
    """s with every root of the monic polynomial below 2^s in modulus:
    the log2 of the Fujiwara bound 2 max |a_{d-k}|^(1/k), from bit lengths."""
    d = len(coeffs) - 1
    return 1 + max((-(-abs(coeffs[d - k]).bit_length() // k)
                    for k in range(1, d + 1)), default=0)


def _circle(coeffs, s, seed):
    """The seeded starting circle, in units of 2^s. Its radius is the
    geometric mean of the root moduli, |a_0|^(1/d): the Fujiwara bound is
    up to 2^9 times the largest root here, which costs O(d) extra sweeps."""
    d = len(coeffs) - 1
    radius = 2.0 ** (math.log2(abs(coeffs[0])) / d - s)
    rng = random.Random(seed)
    xs = []
    for k in range(d):
        # symmetry-breaking perturbation of the initial circle
        angle = 2 * math.pi * (k + 0.25) / d + rng.uniform(-0.1, 0.1) / d
        xs.append(radius * cmath.exp(1j * angle)
                  * (1 + rng.uniform(-0.01, 0.01)))
    return xs


def _float_seeds(p: ReducedPoly, seed: int):
    """Aberth in doubles on R(2^s u); returns (s, roots in u, sweeps)."""
    s = _scale_exponent(p.y_coeffs)
    xs = _circle(p.y_coeffs, s, seed)
    sweeps, _ = _aberth(_float_newton(p.y_coeffs, s), xs, FLOAT_EPS)
    if not all(cmath.isfinite(x) for x in xs):
        xs = _circle(p.y_coeffs, s, seed)  # seeds for the mpmath fallback
    return s, xs, sweeps


def _newton_ladder(coeffs, xs, top):
    """Newton steps from 106 bits up to top bits, each at about twice the
    precision the previous one reached, and repeated at top (at most
    TOP_STEPS times) until a further step could not change the roots; see
    the module docstring for the checks.

    Returns (roots, the precision of each step that passed, the last
    relative correction); roots is None if a check failed.
    """
    passed = []
    prev_rel, prev_level, level = None, None, 106
    while passed.count(top) < TOP_STEPS:
        with mp.workprec(level):
            cs = [mp.mpf(c) for c in coeffs]
            dcs = [mp.mpf(k * c) for k, c in enumerate(coeffs)][1:]
            corrs = []
            for x in xs:
                dv = _horner(dcs, x)
                if dv == 0 or x == 0:
                    return None, passed, None
                corrs.append(_horner(cs, x) / dv)
            rel = [abs(c) / abs(x) for c, x in zip(corrs, xs)]
            if prev_rel is None:
                ok = max(rel) <= FIRST_STEP
            else:
                # below the floor, rounding at prev_level dominates the step
                floor = LADDER_SLACK * mp.mpf(2) ** (-prev_level // 2)
                ok = all(r <= max(min(q / 2, LADDER_SLACK * q * q), floor)
                         for r, q in zip(rel, prev_rel))
            if not (ok and _min_separation(xs) > 2 * max(map(abs, corrs))):
                return None, passed, None
            xs = [x - c for x, c in zip(xs, corrs)]
            worst = max(rel)
        passed.append(level)
        if level == top and LADDER_SLACK * worst ** 2 <= mp.mpf(2) ** -top:
            return xs, passed, worst
        # the roots now hold about twice the bits the step corrected, and
        # the next step doubles them again; 64 bits spare for cancellation
        bits = -mp.mag(worst) if worst else top
        prev_rel, prev_level = rel, level
        level = min(top, max(level, 4 * bits + 64))
    return None, passed, None


def _mp_aberth(p: ReducedPoly, xs, prec):
    """The fallback: Aberth at prec + 32 bits from xs, then two Newton
    steps at 2 prec. Returns (roots, last relative correction)."""
    with mp.workprec(prec + 32):
        coeffs = [mp.mpf(c) for c in p.y_coeffs]
        xs = [mp.mpc(x) for x in xs]
        eps = mp.mpf(2) ** -(prec + 32)
        sweeps, converged = _aberth(_horner_newton(coeffs, eps), xs, eps)
        if not converged:
            worst = max(abs(_horner(coeffs, x)) for x in xs)
            raise NoConvergence(
                f"Aberth did not converge for n={p.n}",
                iterations=sweeps, worst_residual=worst, n=p.n)
    with mp.workprec(2 * prec):
        coeffs = [mp.mpf(c) for c in p.y_coeffs]
        dcoeffs = [mp.mpf(k * c) for k, c in enumerate(p.y_coeffs)][1:]
        polished, last = [], mp.mpf(0)
        for x in xs:
            x = mp.mpc(x)
            for _ in range(2):
                dv = _horner(dcoeffs, x)
                corr = _horner(coeffs, x) / dv if dv != 0 else 0
                x = x - corr
            polished.append(x)
            last = max(last, abs(corr) / abs(x))
    return polished, last


def find_roots(p: ReducedPoly, precision_bits: int = DEFAULT_PRECISION_BITS,
               seed: int = 0, *, diagnostics: dict | None = None) -> list:
    """All simple roots of R(y), accurate at twice the working precision.

    The seed perturbs the starting circle. Returns a list of mpc. A dict
    passed as diagnostics receives how they were found: the RootSet fields
    float_iterations, ladder, fallback and final_correction.
    """
    d = p.degree
    if d < 1:
        return []
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    prec = working_precision(d, precision_bits, _coeff_bits(p.y_coeffs))
    s, seeds, sweeps = _float_seeds(p, seed)
    xs = [mp.mpc(mp.ldexp(u.real, s), mp.ldexp(u.imag, s)) for u in seeds]
    roots, ladder, last = _newton_ladder(p.y_coeffs, xs, 2 * prec)
    fallback = roots is None
    if fallback:
        roots, last = _mp_aberth(p, xs, prec)
    if diagnostics is not None:
        diagnostics.update(float_iterations=sweeps, ladder=tuple(ladder),
                           fallback=fallback, final_correction=last)
    return roots


def _residual(coeffs, abs_coeffs, z, zero_root):
    """|z^e R(z^3)| relative to |z|^e R_abs(|z|^3), e = 1 iff zero_root:
    the residual of z as a root of Q_n, scaled by the coefficient sizes."""
    val = abs(_horner(coeffs, z ** 3))
    az = abs(z)
    scale = _horner(abs_coeffs, az ** 3)
    if zero_root:
        val, scale = val * az, scale * az
    return val / scale if scale > 0 else val


def _float_bounds(a, b):
    """(lo, hi) around |x - y|, from the complex approximations a, b of
    x, y: wide enough for the rounding of a, b and of |a - b|."""
    dist = abs(a - b)
    if not math.isfinite(dist):
        return 0.0, math.inf
    err = 2.0 ** -50 * (abs(a) + abs(b)) + 2.0 ** -1070  # last: subnormals
    return dist - err, dist + err


def _min_separation(points):
    """min |p_i - p_j| at the current precision, equal to a full scan.

    Only pairs whose float lower bound does not exceed the smallest float
    upper bound are measured exactly.
    """
    approx = [complex(z) for z in points]
    pairs = itertools.combinations(range(len(points)), 2)
    ceiling = min((_float_bounds(approx[i], approx[j])[1] for i, j in pairs),
                  default=None)
    if ceiling is None:
        return mp.inf
    return min(abs(points[i] - points[j])
               for i, j in itertools.combinations(range(len(points)), 2)
               if _float_bounds(approx[i], approx[j])[0] <= ceiling)


def lift_cube_roots(y_roots: Sequence, p: ReducedPoly,
                    precision_bits: int = DEFAULT_PRECISION_BITS, *,
                    diagnostics: dict | None = None) -> RootSet:
    """Each y-root contributes its three cube roots; zero appended if stripped.

    diagnostics, as filled in by find_roots, is copied onto the RootSet.
    """
    prec = working_precision(p.degree, precision_bits, _coeff_bits(p.y_coeffs))
    diagnostics = diagnostics or {}
    with mp.workprec(2 * prec):
        coeffs = [mp.mpf(c) for c in p.y_coeffs]
        abs_coeffs = [abs(c) for c in coeffs]
        omega = mp.exp(2j * mp.pi / 3)
        roots = []
        for y in y_roots:
            r = mp.cbrt(abs(y))
            theta = mp.arg(y) / 3
            base = r * mp.exp(1j * theta)
            roots.extend([base, base * omega, base * omega * omega])
        if p.zero_root:
            roots.append(mp.mpc(0))
        residuals = tuple(_residual(coeffs, abs_coeffs, z, p.zero_root)
                          for z in roots)
        max_residual = max(residuals) if residuals else mp.mpf(0)
        min_sep = _min_separation(roots)
    rs = RootSet(
        n=p.n, roots=tuple(roots), precision_bits=prec,
        residuals=residuals, max_residual=max_residual,
        min_separation=min_sep, includes_zero=p.zero_root, **diagnostics)
    threshold = mp.mpf(2) ** (-prec // 2)
    if rs.roots and rs.max_residual > threshold:
        raise CertificationFailure(
            f"residual {mp.nstr(rs.max_residual, 5)} above threshold at n={p.n}",
            iterations=diagnostics.get("float_iterations"),
            worst_residual=rs.max_residual, n=p.n)
    return rs


def roots_for_record(r: YvRecord, precision_bits: int = DEFAULT_PRECISION_BITS,
                     seed: int = 0) -> RootSet:
    rp = cube_reduce(r)
    if rp.degree < 1 and not rp.zero_root:
        return RootSet(n=r.n, roots=(), precision_bits=precision_bits,
                       residuals=(), max_residual=mp.mpf(0),
                       min_separation=mp.inf, includes_zero=False)
    diagnostics = {}
    y_roots = find_roots(rp, precision_bits, seed=seed,
                         diagnostics=diagnostics) if rp.degree >= 1 else []
    return lift_cube_roots(y_roots, rp, precision_bits,
                           diagnostics=diagnostics)


def _closed_under(roots, images, tol):
    """Greedy nearest-neighbour matching; must be an unambiguous bijection.

    A float screen with slack for rounding picks a superset of the roots
    within tol of each image; the exact test decides among those.
    """
    approx = [complex(r) for r in roots]
    ftol = math.nextafter(float(tol), math.inf)
    used = [False] * len(roots)
    for img in images:
        a = complex(img)
        hits = [k for k, r in enumerate(roots)
                if _float_bounds(approx[k], a)[0] <= ftol
                and abs(r - img) < tol]
        if len(hits) != 1 or used[hits[0]]:
            return False
        used[hits[0]] = True
    return all(used)


def certify(rs: RootSet, r: YvRecord) -> VerificationReport:
    """Count, residual, separation, rotation/conjugation closure, and a
    numeric guard that no nonzero real root sits near a small rational."""
    rep = VerificationReport(suite="roots", n=rs.n)
    expected = expected_degree(r.n)
    if len(rs.roots) != expected:
        rep.fail({"check": "count", "got": len(rs.roots), "want": expected})
    with mp.workprec(rs.precision_bits):
        tol = mp.mpf(2) ** (-rs.precision_bits // 2)
        if rs.roots and rs.max_residual > tol:
            rep.fail({"check": "residual",
                      "max_residual": mp.nstr(rs.max_residual, 8)})
        if len(rs.roots) > 1 and not rs.min_separation > 0:
            rep.fail({"check": "separation"})
        if rs.roots:
            omega = mp.exp(2j * mp.pi / 3)
            if not _closed_under(rs.roots, [z * omega for z in rs.roots], tol):
                rep.fail({"check": "omega_closure"})
            if not _closed_under(rs.roots, [mp.conj(z) for z in rs.roots], tol):
                rep.fail({"check": "conjugation_closure"})
        for z in rs.roots:
            if z == 0 or abs(mp.im(z)) >= tol:
                continue
            x = mp.re(z)
            for q in range(1, 65):
                approx = mp.mpf(int(mp.nint(x * q))) / q
                if abs(x - approx) < tol:
                    rep.fail({"check": "near_rational",
                              "root": mp.nstr(x, 20), "denominator": q})
                    break
    return rep


# ---------------------------------------------------------------------------
# Exports

def export_csv(rs: RootSet, path) -> None:
    import csv
    digits = max(17, int(rs.precision_bits * 0.3))
    with mp.workprec(rs.precision_bits), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re", "im", "residual"])
        for z, res in zip(rs.roots, rs.residuals):
            writer.writerow([
                rs.n,
                mp.nstr(mp.re(z), digits),
                mp.nstr(mp.im(z), digits),
                mp.nstr(res, 8),
            ])


def export_svg(rs: RootSet, path, size: int = 480) -> None:
    """Self-contained scatter of the root set, equal-aspect axes."""
    with mp.workprec(64):
        radius = max((abs(z) for z in rs.roots), default=mp.mpf(1))
        span = float(radius) * 1.15 or 1.0
        pts = [(float(mp.re(z)), float(mp.im(z))) for z in rs.roots]
    half = size / 2
    scale = half / span
    dot = max(2.0, size / 160)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" stroke="#ccc"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" stroke="#ccc"/>',
    ]
    for x, y in pts:
        cx = half + x * scale
        cy = half - y * scale
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{dot:.1f}" '
                     f'fill="#1f4e9c"/>')
    lines.append(f'<text x="8" y="{size - 8}" font-family="sans-serif" '
                 f'font-size="14">n = {rs.n}, {len(rs.roots)} roots</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
