"""High-precision root extraction for the family, with certification.

Roots are found in the y = z^3 domain on the compressed coefficients (one
third the degree; the threefold symmetry of the full root set is then
exact by construction), spending full precision only where it is needed:

1. Aberth-Ehrlich in hardware doubles from a seeded circle, on R(2^s u)
   so that coefficients past the float range (n >= 25) still convert, and
   with integer evaluation where doubles lose R to cancellation.
2. The seeds pair off under conjugation, and Newton steps at doubling
   precision up to twice the working precision refine one root of each
   pair; the top step's evaluation gives each root an inclusion disc, and
   the step repeats while the discs fail and still shrink.
3. Failing that, the same two steps once more from the circle of seed + 1;
   if they fail too, the run fails.

Narrow disjoint discs hold one simple root each: the one acceptance test,
checked again after the lift to z, which builds each orbit of z -> omega z
and z -> conj(z) from one cube root, in the layout RootSet states. R is
evaluated by _fixed_horner, whose docstring derives the discs' error bound.
"""

from __future__ import annotations

import cmath
import math
import random

import mpmath as mp
from mpmath.libmp import from_float, mpf_shift, to_fixed, to_float

from .family import DEFAULT_PRECISION_BITS, YvRecord, expected_degree
from .report import Frozen, VerificationReport, timed

MAX_ITERATIONS = 400
FLOAT_EPS = 2.0 ** -53  # unit roundoff of a hardware double
SVG_SIZE = 480  # pixels per side of export_svg's scatter
GUARD_BITS = 8  # fractional bits _fixed_horner keeps past the caller's
# Bits below |y| that the float stage's integer steps keep of y = 2^s u,
# so a part far below |y| costs no more than a zero one. Against exact
# steps at the double u, _float_seeds for n = 2..30 at seeds 0-3 (116 root
# sets) changed (s, seeds, sweeps) in 76 sets at 128 bits, 4 at 160 and
# none at 200 or 256.
FLOAT_STAGE_BITS = 200


class CertificationFailure(RuntimeError):
    """A root set that could not be found or certified, with its witness."""

    def __init__(self, message, iterations=None, n=None):
        super().__init__(message)
        self.iterations = iterations
        self.n = n


class RootSet(Frozen):
    """The roots of Q_n in one layout: per y-root a triple (b, b omega,
    b conj(omega)) of images of its cube root b rounded once at 2 prec;
    the triples of a conjugate pair of y-roots adjacent, the second the
    exact conjugate of the first; real bases exactly real; zero last."""
    n: int
    roots: tuple  # mp.mpc values
    precision_bits: int
    residuals: tuple
    includes_zero: bool
    radii: tuple  # of each root's inclusion disc (lift_cube_roots)
    # How the roots were found (see the module docstring).
    float_iterations: int  # Aberth sweeps in hardware doubles, all starts
    ladder: tuple  # precision (bits) of each Newton step that passed
    fallback: bool  # whether the second start, from seed + 1, ran
    representatives: int  # y-roots the ladder stepped, one per pair

    def __init__(self, n, roots, precision_bits, residuals, includes_zero,
                 radii, float_iterations, ladder, fallback, representatives):
        vars(self).update(
            n=n, roots=roots, precision_bits=precision_bits,
            residuals=residuals, includes_zero=includes_zero, radii=radii,
            float_iterations=float_iterations, ladder=ladder,
            fallback=fallback, representatives=representatives)


def working_precision(degree: int,
                      precision_bits: int = DEFAULT_PRECISION_BITS) -> int:
    # R is only ever evaluated on its integer coefficients (_fixed_horner),
    # so their size asks for no bits; the roots' closeness grows with d
    return max(precision_bits, 128, 4 * degree)


def _horner(coeffs, x):
    """sum coeffs[k] x^k in the arithmetic of x: doubles and complex in the
    float stage."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _int_horner(coeffs, parts, bits, derivative=True):
    """(R(x), R'(x), f) by Horner's rule on Python ints, for the integer
    coefficients coeffs of R, low to high, and finite x given by its raw mpf
    parts, (x,) or (re, im): R(x) and R'(x), zeros unless derivative, are
    tuples of integers over 2^f, f = max(bits - m, 0), m the largest exp +
    bitcount of the nonzero parts, so 2^(m-1) <= |x| < 2^(m+1/2). Each part
    and each product is truncated to f fractional bits; c enters as c << f."""
    m = max((p[2] + p[3] for p in parts if p[1]), default=0)
    f = max(bits - m, 0)
    if len(parts) == 1:
        a = to_fixed(parts[0], f)
        p, q = coeffs[-1] << f, 0
        for c in reversed(coeffs[:-1]):
            if derivative:
                q = (q * a >> f) + p
            p = (p * a >> f) + (c << f)
        return (p,), (q,), f
    a, b = to_fixed(parts[0], f), to_fixed(parts[1], f)
    # three products per complex one, exactly: with t = a (r + i),
    # a r - b i = t - i (a + b) and b r + a i = t + r (b - a)
    s, w = a + b, b - a
    pr, pi, qr, qi = coeffs[-1] << f, 0, 0, 0
    for c in reversed(coeffs[:-1]):
        if derivative:
            t = a * (qr + qi)
            qr, qi = (t - qi * s >> f) + pr, (t + qr * w >> f) + pi
        t = a * (pr + pi)
        pr, pi = (t - pi * s >> f) + (c << f), t + pr * w >> f
    return (pr, pi), (qr, qi), f


def _fixed_horner(coeffs, x, bits, derivative=True):
    """(R(x), R'(x)) for the integer coefficients coeffs of R, low to high,
    by _int_horner at bits + GUARD_BITS bits, x an mpf or an mpc; R'(x) is
    None unless derivative. The results become mpf or mpc once, at the end,
    rounded to the working precision, which callers hold at bits or above.

    The error bound, before that rounding. Let d be the degree,
    u = 2^-f <= 2^(m - bits - GUARD_BITS) <= 2 |x| 2^-(bits + GUARD_BITS),
    kappa = 1 for real x and sqrt2 for complex x, chi = 0 if x converts
    exactly (an mpf of at most bits + GUARD_BITS bits does) and 1
    otherwise, rho = |x| + chi kappa u >= |x^|, x^ the converted x, and
    A(t) = sum |c_k| t^k. The exact partial values p_d = c_d,
    p_k = c_k + x p_{k+1} and the computed ones differ by e_k with
    e_k = x^ e_{k+1} + p_{k+1} (x^ - x) + t_k, where the truncation t_k is
    below kappa u and t_{d-1} = 0 (c_d x^ is exact). Unrolled, with
    sum_k rho^k |p_{k+1}| <= A'(rho),
        |R^ - R(x)| <= kappa u (chi A'(rho) + sum_{k<=d-2} rho^k).
    The derivative, q_{d-1} = c_d and q_k = p_{k+1} + x q_{k+1}, takes the
    value errors e_{k+1} in as well; with sum_k rho^k |q_{k+1}| <=
    A''(rho)/2 the same unrolling gives
        |R'^ - R'(x)| <= kappa u (chi A''(rho) + sum_{k<=d-3} (k+2) rho^k).
    Against floating-point Horner at bits bits, whose standard bound is
    2 d 2^-bits A(|x|): for integers c_0 c_d != 0, as R has, rho^(k+1) <=
    A(rho) for k <= d - 2, and rho A'(rho) <= d A(rho), so the first bound
    is below 4 sqrt2 d A(rho) 2^-(bits + GUARD_BITS) < 0.023 d 2^-bits
    A(|x|), since rho <= |x| (1 + 2^(2 - bits - GUARD_BITS)) and
    d <= 2^(bits - 2); with the final rounding, 2^-bits |R^| at most, the
    value stays within the standard bound for every d >= 1.
    """
    parts = x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_,)
    value, slope, f = _int_horner(coeffs, parts, bits + GUARD_BITS, derivative)

    def back(ints):  # rounded once, to the working precision
        xs = [mp.mpf((v, -f)) for v in ints]
        return mp.mpc(*xs) if len(xs) == 2 else xs[0]
    return back(value), back(slope) if derivative else None


def _aberth(newton, xs):
    """Aberth-Ehrlich simultaneous correction of the complex xs in place,
    in doubles.

    newton(x) returns p(x)/p'(x). A root stops moving once its step falls
    below 8 FLOAT_EPS |x|; stopped roots still repel the others. Returns
    the sweeps, at most MAX_ITERATIONS.
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
                xs[i] = xi + 8 * FLOAT_EPS * (1 + abs(xi))
                still.append(i)
                continue
            s = sum(1 / (xi - xj) for xj in xs if xj != xi)
            denom = 1 - step * s
            corr = step if denom == 0 else step / denom
            xs[i] = xi - corr
            if abs(corr) > 8 * FLOAT_EPS * abs(xi):
                still.append(i)
        moving = still
    return sweep


def _horner_newton(coeffs, eps):
    """newton(x) for _float_newton by Horner's rule in complex doubles;
    None within the rounding bound 8 d eps sum |a_k| |x|^k."""
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    abs_coeffs = [abs(c) for c in coeffs]
    bound = 8 * len(dcoeffs) * eps

    def newton(x):
        pv = _horner(coeffs, x)
        if abs(pv) <= bound * _horner(abs_coeffs, abs(x)):
            return None
        return pv / _horner(dcoeffs, x)
    return newton


def _float_newton(coeffs, s):
    """newton(u) for _aberth on R(2^s u) in doubles, u = y / 2^s: Horner's
    rule in doubles where it resolves R, else R/R' from _int_horner at y
    kept to FLOAT_STAGE_BITS bits below |y|, one int/int division rounded to
    a double, however ill-conditioned R is there (past n ~ 20, doubles
    alone stall far from the roots)."""
    d = len(coeffs) - 1
    # exact int/int division rounds each scaled coefficient once
    fast = _horner_newton([c / (1 << (s * (d - k)))
                           for k, c in enumerate(coeffs)], FLOAT_EPS)

    def newton(u):
        step = fast(u)
        if step is not None:
            return step
        if not cmath.isfinite(u):
            raise OverflowError("the iterate left the doubles")  # nudged
        y = [mpf_shift(from_float(p), s) for p in (u.real, u.imag)]
        (pr, pi), (qr, qi), _ = _int_horner(coeffs, y, FLOAT_STAGE_BITS)
        # R/R' = (pr + i pi) / (qr + i qi), both over 2^f; divide by 2^s for u
        den = (qr * qr + qi * qi) << s
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


def _float_seeds(coeffs, seed: int):
    """Aberth in doubles on R(2^s u); returns (s, roots in u, sweeps)."""
    s = _scale_exponent(coeffs)
    xs = _circle(coeffs, s, seed)
    return s, xs, _aberth(_float_newton(coeffs, s), xs)


def _mirror_pairs(seeds):
    """The representatives of the finite complex seeds under conjugation.

    A seed's mirror is the seed nearest its conjugate. The mirrors must
    form an involution whose pairs straddle the real axis. Returns the
    seeds that are their own mirror, as their real parts, and the upper
    member of each pair; None if the seeds do not pair off so.
    """
    mirror = [min(range(len(seeds)),
                  key=lambda j: abs(seeds[j] - u.conjugate()))
              for u in seeds]
    reps = []
    for i, m in enumerate(mirror):
        if mirror[m] != i:
            return None
        if m == i:
            reps.append(seeds[i].real)
        elif seeds[i].imag > 0 > seeds[m].imag:
            reps.append(seeds[i])
        elif not seeds[m].imag > 0 > seeds[i].imag:
            return None
    return reps


def _log2_abs(x):
    """log2 |x| of an mpf or mpc x to float rounding; -inf at 0, inf at nan."""
    parts = x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_,)
    f = math.hypot(*map(to_float, parts))
    if 2.0 ** -1000 < f < 2.0 ** 1000:
        return math.log2(f)
    _, man, exp, _ = abs(x)._mpf_
    return math.log2(man) + exp if man else (math.inf if exp else -math.inf)


def _pow2_sum(logs):
    """An mpf at least sum 2^l over the float log2s logs, inf if one is:
    each l is raised by 2^-40 (1 + |l|), for its rounding and the sum's."""
    logs = [l + 2.0 ** -40 * (1 + abs(l)) for l in logs if l > -math.inf]
    if math.inf in logs:
        return mp.inf
    k = math.floor(max(logs))
    return mp.ldexp(math.fsum(2.0 ** (l - k) for l in logs), k)


def _radii(coeffs, points, steps, bits):
    """Radii of inclusion discs about y - c for the first len(steps) of the
    points y, which approximate all d roots of the monic R, (v, c) being
    _fixed_horner's R(y) at bits bits and the Newton step from y. Discs of
    radius d |R(y_i)| / prod_{j != i} |y_i - y_j| about distinct y_i cover
    the roots, and k meeting none of the rest hold exactly k (Bini and
    Fiorentino, Numer. Algorithms 23 (2000)); the move by c and its
    rounding add |c| + 2^(1-bits) |y|. |R(y)| <= |v| + E <= 2 max(|v|, E),
    E = 2 d 2^-bits A(|y|) <= 2 d (d + 1) 2^-bits max |a_k| |y|^k the
    kernel's bound. Distances are in doubles less _rounding, or measured where
    that is not positive; float log2s are raised by 2^-40 (1 + |l|) each."""
    d = len(coeffs) - 1
    approx = [complex(y) for y in points]
    rounding = _rounding(approx)
    top = [abs(a).bit_length() for a in coeffs]  # |a_k| < 2^top[k]
    radii = []
    with mp.workprec(53):
        for i, (v, c) in enumerate(steps):
            y, a = points[i], approx[i]
            t = max(_log2_abs(y), -bits)
            err = 1 + math.log2(d * (d + 1)) - bits + max(
                e + k * t for k, e in enumerate(top))
            terms = [math.log2(d), max(_log2_abs(v), err) + 1] + [
                -math.log2(lo) if 0 < (lo := abs(a - b) - rounding) < math.inf
                else -_log2_abs(y - points[j])
                for j, b in enumerate(approx) if j != i]
            log_r = math.fsum(l + 2.0 ** -40 * (1 + abs(l)) for l in terms)
            radii.append(_pow2_sum([log_r, _log2_abs(c),
                                    math.floor(t) + 3 - bits]))
    return radii


def _rounding(approx):
    """2^-49 max |a| + 2^-1070 (subnormals): a bound on the rounding of the
    complex doubles approx and of the float distances between them."""
    return 2.0 ** -49 * max(map(abs, approx), default=0) + 2.0 ** -1070


def _separation(points, bases, others=None):
    """A lower bound on |points[i] - t| over i in bases and t in others,
    or t = points[j], j != i, when others is None, from doubles: the
    smallest float distance less _rounding of the points compared. Not
    positive where the doubles cannot tell two points apart, and -inf
    when one lies past their range."""
    ts = [complex(t) for t in (points if others is None else others)]
    ws = [ts[i] if others is None else complex(points[i]) for i in bases]
    rounding = _rounding(ws + ts)
    if rounding == math.inf:
        return -math.inf
    return min((abs(w - t) for i, w in zip(bases, ws) for j, t in enumerate(ts)
                if j != i or others is not None), default=math.inf) - rounding


def _inclusion(ys, radii, prec, bases):
    """Whether each y of ys has a disc within 2^-prec |y|, none meeting by
    _separation of ys from the indices bases, which must see every pair,
    and min -log10(radius / |y|) but at an exact zero of radius 0, or None."""
    logs = [_log2_abs(r) - _log2_abs(y) for y, r in zip(ys, radii) if y or r]
    return (len(radii) == len(ys) and max(logs, default=-math.inf) <= -prec
            and _separation(ys, bases) > 2 * max(radii, default=0),
            round(-max(logs) * math.log10(2), 2) if logs else None)


def _newton_ladder(coeffs, xs, top):
    """Newton steps on the orbit representatives xs (mpf for a real root,
    mpc in the upper half plane for a pair) from 106 bits, the precision
    of two doubles, up to top bits, each above and at about twice the
    precision the previous one reached, repeated at top while the discs
    fail _inclusion at top/2 bits but are narrower than at the previous top
    step; the first top step forms no discs when it moves a root by more
    than 2^(1 - top/2) of it, as they would be at least that wide and fail.
    Returns (roots, each step's precision, their radii), roots being
    every root as mpc, each pair's upper member followed by its conjugate
    (a representative that crossed the real axis is conjugated back);
    None after R' = 0, y = 0 or discs that fail and no longer narrow."""
    passed, best, level = [], -math.inf, 106
    while True:
        with mp.workprec(level):
            steps = []
            for x in xs:
                v, dv = _fixed_horner(coeffs, x, level)
                if dv == 0 or x == 0:
                    return None
                steps.append((v, v / dv))
            new = [x - c for x, (_, c) in zip(xs, steps)]
            worst = max(abs(c) / abs(x) for x, (_, c) in zip(xs, steps))
        passed.append(level)
        if level < top or (passed[-2:-1] != [top]
                           and worst > mp.ldexp(1, 1 - top // 2)):
            # the roots now hold about twice the bits the step corrected, and
            # the next step doubles them again; 64 bits spare for cancellation
            bits = -mp.mag(worst) if worst else top
            level, xs = min(top, max(level + 1, 4 * bits + 64)), new
            continue
        with mp.workprec(top):  # below top, mpc and conj would round
            radii = _radii(coeffs, xs + [mp.conj(x) for x in xs
                                         if isinstance(x, mp.mpc)], steps, top)
            ups = [mp.conj(y) if mp.im(y) < 0 else y for y in new]
            zs = [(w, r) for y, r in zip(ups, radii) for w in
                  ((y, mp.conj(y)) if isinstance(y, mp.mpc) else (y,))]
            roots, radii = [mp.mpc(w) for w, _ in zs], [r for _, r in zs]
            # each lower member is the exact conjugate of the one before
            held, digits = _inclusion(roots, radii, top // 2, [
                i for i, y in enumerate(roots) if mp.im(y) >= 0])
        if held:
            return roots, passed, radii
        if not digits > best:
            return None
        best, xs = digits, new


def find_roots(r: YvRecord, precision_bits: int = DEFAULT_PRECISION_BITS,
               seed: int = 0) -> dict:
    """All roots ys of R(y), Q_n = z^e R(z^3) for the record r, as mpc in
    _newton_ladder's layout, each alone in an inclusion disc of radius at
    most 2^-prec |y|, so simple; else CertificationFailure, naming the step
    each start failed at. The seed perturbs the starting circle: if the
    float seeds from it are not all finite, do not pair off or give discs
    that fail, a second start from the circle of seed + 1 takes the same
    steps. Returns ys with what RootSet records of the search: the working
    precision_bits, float_iterations, ladder, fallback, the y-discs' radii
    and representatives."""
    coeffs, d = r.compressed[::-1], len(r.compressed) - 1
    prec, sweeps = working_precision(d, precision_bits), 0
    found = dict(ys=[], precision_bits=prec, float_iterations=0, ladder=(),
                 fallback=False, radii=(), representatives=0)
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    if d < 1:
        return found

    def y(u):  # the seed u, in units of 2^s, as mpf if real
        return mp.ldexp(u, s) if isinstance(u, float) \
            else mp.mpc(mp.ldexp(u.real, s), mp.ldexp(u.imag, s))

    failed = []  # the step each start failed at
    for start in (seed, seed + 1):
        s, seeds, spent = _float_seeds(coeffs, start)
        sweeps += spent
        if not all(map(cmath.isfinite, seeds)):
            failed.append(f"seed {start}: seeds not finite")
        elif (reps := _mirror_pairs(seeds)) is None:
            failed.append(f"seed {start}: seeds do not pair off")
        elif stepped := _newton_ladder(coeffs, [y(u) for u in reps],
                                       2 * prec):
            break
        else:
            failed.append(f"seed {start}: inclusion discs fail")
    else:
        raise CertificationFailure(f"n={r.n}, " + "; ".join(failed),
                                   sweeps, r.n)
    ys, ladder, radii = stepped
    return dict(found, ys=ys, float_iterations=sweeps, ladder=tuple(ladder),
                fallback=start != seed, radii=tuple(radii),
                representatives=len(reps))


def _residual(coeffs, abs_coeffs, z, az):
    """|R(z^3)| / R_abs(az^3), az = |z|: z's residual as a root of
    Q_n = z^e R(z^3), whose factor |z|^e cancels, by _fixed_horner at the
    working precision, in real arithmetic for a real z, over a scale summed
    at 64 bits."""
    y = z ** 3
    val = abs(_fixed_horner(coeffs, y if mp.im(z) else mp.re(y),
                            mp.mp.prec, False)[0])
    with mp.workprec(64):
        scale = _fixed_horner(abs_coeffs, az ** 3, 64, False)[0]
    return val / scale if scale > 0 else val


def lift_cube_roots(found: dict, r: YvRecord) -> RootSet:
    """The RootSet of the record r from find_roots' result found: the cube
    roots of its ys laid out as RootSet states, a y below the real axis
    taking the conjugates of the triple before it, as find_roots lays a
    pair out; the residual is evaluated once per orbit, at its base root,
    and copied to the orbit's other roots. A y-disc's radius q becomes
    (q / |y| + 2^(4 - 2 prec)) |z|, as |(1 + s)^(1/3) - 1| <= t for
    |s| <= t < 1, plus rounding; zero's radius is 0, as R(0) != 0."""
    fields = dict(found)
    ys, y_radii = fields.pop("ys"), fields.pop("radii")
    prec, coeffs = found["precision_bits"], r.compressed[::-1]
    abs_coeffs = [abs(c) for c in coeffs]
    with mp.workprec(2 * prec):
        omega = mp.exp(2j * mp.pi / 3)
        omegas = (1, omega, mp.conj(omega))
        roots, residuals, radii = [], [], []
        for y, q in zip(ys, y_radii):
            if mp.im(y) < 0:  # the mirror's size and residual carry over
                zs = [mp.conj(z) for z in roots[-3:]]
            else:
                size = mp.cbrt(abs(y))
                if mp.im(y) == 0:  # real base, so the images are conjugates
                    base = mp.mpc(mp.sign(mp.re(y)) * size)
                else:
                    base = size * mp.exp(1j * mp.arg(y) / 3)
                zs = [base * w for w in omegas]
                res = _residual(coeffs, abs_coeffs, base, size)
            roots.extend(zs)
            residuals.extend([res] * 3)
            log_size = _log2_abs(size)
            radii += [_pow2_sum([_log2_abs(q) - 2 * log_size,
                                 4 - 2 * prec + log_size])] * 3
        if r.has_zero_root:
            roots.append(mp.mpc(0))
            residuals.append(mp.mpf(0))
            radii.append(mp.mpf(0))
    return RootSet(
        n=r.n, roots=tuple(roots), residuals=tuple(residuals),
        includes_zero=r.has_zero_root, radii=tuple(radii), **fields)


def roots_for_record(r: YvRecord, precision_bits: int = DEFAULT_PRECISION_BITS,
                     seed: int = 0) -> RootSet:
    return lift_cube_roots(find_roots(r, precision_bits, seed), r)


def _orbits(rs: RootSet):
    """The orbits of z -> omega z and z -> conj(z) in RootSet's layout, as
    ranges of indices into rs.roots from each orbit's base: one or two
    triples, or zero; None if the nonzero roots do not fall into triples
    or zero is not last."""
    zs, count = rs.roots, len(rs.roots) - rs.includes_zero
    if rs.includes_zero and not (zs and zs[-1] == 0) or count % 3:
        return None
    orbits, k = [], 0
    while k < count:  # a non-real base's triple, then its conjugate's
        orbits.append(range(k, min(count, k + (6 if mp.im(zs[k]) else 3))))
        k = orbits[-1].stop
    return orbits + [range(count, len(zs))] * rs.includes_zero


def _closure(rs: RootSet):
    """(closed under z -> omega z, closed under conjugation), checked orbit
    by orbit (_orbits) against the layout RootSet states, at the 2 prec bits
    its images are rounded at. A set so laid out is closed."""
    orbits = _orbits(rs)
    if orbits is None:
        return False, False
    with mp.workprec(2 * rs.precision_bits):
        omega = mp.exp(2j * mp.pi / 3)
        bar = mp.conj(omega)
        nonzero = [[rs.roots[i] for i in orbit] for orbit in orbits
                   if len(orbit) > 1]
        # each triple holds its base's two images, in either order, and a
        # non-real base's conjugates are the next triple
        rotated = all({b, c} == {a * omega, a * bar} for zs in nonzero
                      for a, b, c in zip(*[iter(zs)] * 3))
        mirrored = all([mp.conj(z) for z in zs[:3]] == (
            zs[3:] if mp.im(zs[0]) else [zs[0], zs[2], zs[1]])
            for zs in nonzero)
    return rotated, mirrored


def _near_rational(x, tol):
    """The least q <= 64 with |x - p/q| < tol for an integer p, or None.

    Each q is screened in doubles first. With xf = float(x), the double
    xf q is within 2^-52 (1 + 2^-50) |xf| q of x q, so if it lies farther
    than q (2^-51 |xf| + 2 tol) from the nearest integer, x q lies farther
    than q tol from every integer, and q is ruled out; the doubled terms
    cover the rounding of the screen itself, and 2^-1070 subnormals. Only
    the q the screen cannot rule out are tested at the working precision.
    """
    xf = float(x)
    slack = 2.0 ** -51 * abs(xf) + 2 * float(tol) + 2.0 ** -1070
    for q in range(1, 65):
        y = xf * q
        if math.isfinite(y) and abs(y - round(y)) > q * slack:
            continue
        if abs(x - mp.mpf(int(mp.nint(x * q))) / q) < tol:
            return q
    return None


@timed
def certify(rs: RootSet, r: YvRecord) -> VerificationReport:
    """Count; one inclusion disc per root within 2^-prec |z| of it, no two
    meeting by _separation of rs.roots themselves, from each orbit's base
    (_orbits) in a closed set and from every root otherwise, so each holds
    one simple root, and two roots the doubles cannot tell apart meet;
    rotation/conjugation closure in RootSet's layout (_closure), so a set
    closed only in another order fails; a guard that no nonzero real root
    sits near a small rational. Details: inclusion_digits, min
    -log10(radius / |z|) over the nonzero roots."""
    rep = VerificationReport(suite="roots", n=rs.n)
    expected = expected_degree(r.n)
    if len(rs.roots) != expected:
        rep.fail({"check": "count", "got": len(rs.roots), "want": expected})
    closed = _closure(rs)
    bases = ([orbit[0] for orbit in _orbits(rs)] if all(closed)
             else range(len(rs.roots)))
    held, rep.details["inclusion_digits"] = _inclusion(
        rs.roots, rs.radii, rs.precision_bits, bases)
    with mp.workprec(rs.precision_bits):
        tol = mp.mpf(2) ** (-rs.precision_bits // 2)
        if not held:
            rep.fail({"check": "inclusion", "radii": len(rs.radii)})
        for check, ok in zip(("omega_closure", "conjugation_closure"),
                             closed):
            if not ok:
                rep.fail({"check": check})
        for z in rs.roots:
            if z == 0 or abs(mp.im(z)) >= tol:
                continue
            q = _near_rational(mp.re(z), tol)
            if q is not None:
                rep.fail({"check": "near_rational",
                          "root": mp.nstr(mp.re(z), 20), "denominator": q})
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


def export_svg(rs: RootSet, path) -> None:
    """Self-contained scatter of the root set, equal-aspect axes."""
    with mp.workprec(64):
        radius = max((abs(z) for z in rs.roots), default=mp.mpf(1))
        span = float(radius) * 1.15 or 1.0
        pts = [(float(mp.re(z)), float(mp.im(z))) for z in rs.roots]
    size, half = SVG_SIZE, SVG_SIZE / 2
    scale = half / span
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
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
                     f'r="{size / 160:.1f}" fill="#1f4e9c"/>')
    lines.append(f'<text x="8" y="{size - 8}" font-family="sans-serif" '
                 f'font-size="14">n = {rs.n}, {len(rs.roots)} roots</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
