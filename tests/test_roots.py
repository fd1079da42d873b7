import cmath
import math
import random

from mpmath import mp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yvpoly import family, roots
from yvpoly.family import expected_degree

from conftest import replaced


PART = st.floats(-1e6, 1e6)  # a coordinate of _separation's points


@pytest.fixture(scope="module")
def records30():
    return family.generate(30)


class TestCubeReduce:
    """Q_n read as R(y), y = z^3, whose coefficients, low to high, are the
    record's compressed ones reversed, as find_roots reads them."""

    def test_degree_and_zero_flag(self, records8):
        found = roots.find_roots(records8[4])
        assert roots.lift_cube_roots(found, records8[4]).includes_zero
        assert len(found["ys"]) == 3  # (10 - 1) / 3

    def test_expansion_matches(self, records8):
        coeffs = records8[5].compressed[::-1]
        # substituting y = z^3 back must reproduce the polynomial
        expanded = [0] * (3 * (len(coeffs) - 1) + 1)
        for k, c in enumerate(coeffs):
            expanded[3 * k] = c
        assert tuple(expanded) == records8[5].poly.coeffs


class TestWorkingPrecision:
    def test_floor(self):
        assert roots.working_precision(1, 64) == 128

    def test_scales_with_degree(self):
        assert roots.working_precision(100, 256) >= 400

    def test_four_bits_per_degree_at_n25(self):
        # y-degree (325 - 1) / 3 = 108; the 900-odd bits of the largest
        # coefficient ask for none, as R is evaluated on its integers
        assert roots.working_precision((expected_degree(25) - 1) // 3) == 432


class TestFindRoots:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, rootsets8, n):
        assert len(rootsets8[n].roots) == expected_degree(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_residuals_tiny(self, rootsets8, n):
        rs = rootsets8[n]
        with mp.workprec(rs.precision_bits):
            assert max(rs.residuals) < mp.mpf(2) ** (-rs.precision_bits // 2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_precision_floor_at_degree_zero(self, records8, n):
        # Q_0 = 1 and Q_1 = z have no y-roots to find; 52 bits still fails
        with pytest.raises(ValueError, match="precision_bits must be >= 53"):
            roots.roots_for_record(records8[n], 52)

    def test_zero_root_only_when_expected(self, rootsets8):
        for n in range(1, 9):
            assert rootsets8[n].includes_zero == (n % 3 == 1)

    def test_deterministic_given_seed(self, records8):
        for n in (3, 8):
            a = roots.roots_for_record(records8[n], 128, seed=7)
            b = roots.roots_for_record(records8[n], 128, seed=7)
            assert a.roots == b.roots and a.ladder and a.representatives
            assert (a.float_iterations, a.ladder, a.radii,
                    a.representatives) == \
                (b.float_iterations, b.ladder, b.radii,
                 b.representatives)


class TestLadder:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_agrees_with_circle_started_aberth(self, records16, n):
        coeffs = records16[n].compressed[::-1]
        prec = roots.working_precision(len(coeffs) - 1)
        s = roots._scale_exponent(coeffs)
        circle = [mp.mpc(mp.ldexp(u.real, s), mp.ldexp(u.imag, s))
                  for u in roots._circle(coeffs, s, 0)]
        # Aberth alone, apart from the float stage and the ladder under test
        reference = _mp_aberth(coeffs, circle, prec)
        found = roots.find_roots(records16[n], seed=0)
        ys, radii = found["ys"], found["radii"]
        assert type(ys) is list and found["precision_bits"] == prec
        assert not found["fallback"]
        assert found["ladder"][0] == 106
        assert found["ladder"][-1] == 2 * prec
        assert found["ladder"].count(2 * prec) == 1
        rs = roots.lift_cube_roots(found, records16[n])
        with mp.workprec(2 * prec):
            for y in ys:
                assert min(abs(y - r) for r in reference) \
                    < mp.mpf(2) ** -prec * abs(y)
            # the discs are sound: each reference root, polished by mpmath's
            # own Newton steps, lies in exactly one y-disc, and each of its
            # cube roots in exactly one z-disc
            omega = mp.exp(2j * mp.pi / 3)
            q = list(reversed(coeffs))
            for _ in range(2):
                reference = [r - mp.fdiv(*mp.polyval(q, r, derivative=True))
                             for r in reference]
            for r in reference:
                assert _discs_holding(r, ys, radii) == 1
                for k in range(3):
                    z = mp.cbrt(abs(r)) * mp.exp(1j * mp.arg(r) / 3) \
                        * omega ** k
                    assert _discs_holding(z, rs.roots, rs.radii) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_discs_hold_the_roots_of_polyroots(self, records16, n):
        found = roots.find_roots(records16[n])
        with mp.workdps(180):  # far inside the discs, about 1e-120 |y|
            others = mp.polyroots(list(records16[n].compressed),
                                  maxsteps=200, extraprec=600)
            assert len(others) == len(found["ys"])
            for r in others:
                assert _discs_holding(r, found["ys"], found["radii"]) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_top_step_repeats_while_discs_narrow(self, records30, seed):
        # at n = 24 the first top step's discs fail but narrow, so it repeats
        rs = roots.roots_for_record(records30[24], seed=seed)
        assert rs.precision_bits == 400 and not rs.fallback
        assert rs.ladder[0] == 106 and rs.ladder[-3:] == (464, 800, 800)
        assert roots.certify(rs, records30[24]).passed

    def test_every_root_has_a_narrow_disc(self, rootsets12):
        for rs in rootsets12.values():
            assert len(rs.radii) == len(rs.roots)
            with mp.workprec(rs.precision_bits):
                assert all(q <= mp.ldexp(abs(z), -rs.precision_bits)
                           for z, q in zip(rs.roots, rs.radii))
            assert roots._separation(rs.roots, range(len(rs.roots))) \
                > 2 * max(rs.radii, default=0)

    def test_pairs_are_laid_out_upper_first(self, records8):
        # started below the real axis, the ladder still lays each pair out
        # as its upper member and then the conjugate, as the lift reads it
        found = roots.find_roots(records8[6])
        lower = [mp.conj(y) if mp.im(y) else mp.re(y) for y in found["ys"]
                 if mp.im(y) >= 0]
        top = 2 * found["precision_bits"]
        ys, _, radii = roots._newton_ladder(records8[6].compressed[::-1],
                                            lower, top)
        k = 0
        with mp.workprec(top):  # conj would round below it
            while k < len(ys):
                if mp.im(ys[k]):
                    assert mp.im(ys[k]) > 0 and ys[k + 1] == mp.conj(ys[k])
                k += 2 if mp.im(ys[k]) else 1
        assert any(mp.im(y) for y in ys)
        rs = roots.lift_cube_roots(dict(found, ys=ys, radii=radii), records8[6])
        assert roots.certify(rs, records8[6]).passed

    def test_wide_discs_fall_back_then_fail(self, records8, monkeypatch):
        widths = []

        def wide(coeffs, points, steps, bits):
            widths.append(bits)
            return [mp.inf] * len(steps)

        monkeypatch.setattr(roots, "_radii", wide)
        with pytest.raises(roots.CertificationFailure) as exc:
            roots.roots_for_record(records8[5])
        assert exc.value.n == 5
        assert str(exc.value) == ("n=5, seed 0: inclusion discs fail; "
                                  "seed 1: inclusion discs fail")
        # one top step from each start's seeds
        assert len(widths) == 2

    @pytest.mark.parametrize("hows, steps", [
        (("colliding", "unpaired"), ("seeds do not pair off",) * 2),
        (("nonfinite", "colliding"),
         ("seeds not finite", "seeds do not pair off"))])
    def test_failure_names_each_start_step(self, records8, monkeypatch,
                                           hows, steps):
        starts = []
        monkeypatch.setattr(roots, "_float_seeds", _forced_seeds(
            roots._float_seeds, hows, starts))
        with pytest.raises(roots.CertificationFailure) as exc:
            roots.roots_for_record(records8[6], seed=0)
        assert starts == [0, 1] and exc.value.n == 6
        assert str(exc.value) == \
            f"n=6, seed 0: {steps[0]}; seed 1: {steps[1]}"

    def test_colliding_seeds_fall_back_and_certify(self, records8,
                                                   monkeypatch):
        starts = []
        monkeypatch.setattr(roots, "_float_seeds", _forced_seeds(
            roots._float_seeds, "colliding", starts))
        rs = roots.roots_for_record(records8[6], seed=0)
        assert starts == [0, 1]
        assert rs.fallback and len(rs.roots) == expected_degree(6)
        assert rs.ladder[0] == 106 and len(rs.radii) == len(rs.roots)
        assert roots.certify(rs, records8[6]).passed

    def test_unpaired_seed_falls_back_and_certifies(self, records8,
                                                    monkeypatch):
        second = roots.roots_for_record(records8[6], seed=1)
        starts = []
        monkeypatch.setattr(roots, "_float_seeds", _forced_seeds(
            roots._float_seeds, "unpaired", starts))
        rs = roots.roots_for_record(records8[6], seed=0)
        # the second start is the first start from seed + 1
        assert starts == [0, 1] and rs.fallback and not second.fallback
        assert rs.ladder[0] == 106
        assert (rs.roots, rs.ladder, rs.radii, rs.representatives) == \
            (second.roots, second.ladder, second.radii,
             second.representatives)
        assert rs.float_iterations > second.float_iterations
        assert roots.certify(rs, records8[6]).passed

    @pytest.mark.parametrize("n", range(2, 13))
    def test_orbits_are_exact(self, records16, rootsets12, n, monkeypatch):
        found = roots.find_roots(records16[n])
        ys = found["ys"]
        assert not found["fallback"]
        rs = _lift_once_per_orbit(found, records16[n], monkeypatch)
        assert rs.roots == rootsets12[n].roots
        _assert_layout(rs, ys)
        with mp.workprec(2 * rs.precision_bits):
            assert {mp.conj(z) for z in rs.roots} == set(rs.roots)
            assert {mp.conj(y) for y in ys} == set(ys)
            tol = mp.mpf(2) ** -rs.precision_bits
            near_real = [y for y in ys if abs(mp.im(y)) < tol]
            assert all(mp.im(y) == 0 for y in near_real)
            # each pair has one representative, each real root its own
            assert len(near_real) == 2 * found["representatives"] - len(ys)
            assert sum(1 for z in rs.roots if z != 0 and mp.im(z) == 0) \
                == len(near_real)
            # Q_n itself by mpmath's Horner, apart from the root layer
            q = list(reversed(records16[n].poly.coeffs))
            q_abs = [abs(c) for c in q]
            worst = max(abs(mp.polyval(q, z)) / mp.polyval(q_abs, abs(z))
                        for z in rs.roots if z != 0)
        assert worst < mp.mpf(2) ** (-rs.precision_bits // 2)

    @pytest.mark.parametrize("seeds, n", [("nonfinite", 2)] + [
        (seeds, n) for n in (6, 12, 20)
        for seeds in ("colliding", "unpaired", "nonfinite")])
    def test_fallback_keeps_the_orbit_layout(self, records30, seeds, n,
                                             monkeypatch):
        second = roots.find_roots(records30[n], seed=1)
        starts = []
        monkeypatch.setattr(roots, "_float_seeds", _forced_seeds(
            roots._float_seeds, seeds, starts))
        found = roots.find_roots(records30[n])
        assert starts == [0, 1] and found["fallback"]
        assert found["ladder"][0] == 106
        assert found["ys"] == second["ys"]
        assert found["representatives"] == second["representatives"]
        rs = _lift_once_per_orbit(found, records30[n], monkeypatch)
        _assert_layout(rs, found["ys"])
        assert roots.certify(rs, records30[n]).passed

    @pytest.mark.parametrize("n", [25, 30])
    def test_past_float_range_certifies(self, records30, n):
        assert _coeff_bits(records30[n].compressed) > 900
        rs = roots.roots_for_record(records30[n])
        # 432 and 620 bits
        assert rs.precision_bits == 4 * (len(records30[n].compressed) - 1)
        assert len(rs.roots) == expected_degree(n)
        assert roots.certify(rs, records30[n]).passed


def _coeff_bits(coeffs):
    """The bit length of the largest coefficient."""
    return max(abs(c).bit_length() for c in coeffs)


def _mp_aberth(coeffs, xs, prec):
    """Aberth-Ehrlich in mpmath from the mpc xs, by mpmath's own Horner
    rule, at prec + 32 bits and past the coefficients' bit length, so that
    they convert exactly: the reference the float stage and the ladder are
    held to. A root stops once R(x) is down to its rounding error or its
    step below 8 eps |x|; returns the roots as mpc."""
    bits = max(prec, _coeff_bits(coeffs)) + 32
    with mp.workprec(bits):
        eps = mp.mpf(2) ** -bits
        q = [mp.mpf(c) for c in reversed(coeffs)]
        q_abs = [abs(c) for c in q]
        bound = 8 * (len(q) - 1) * eps
        xs = [mp.mpc(x) for x in xs]
        moving = list(range(len(xs)))
        for _ in range(roots.MAX_ITERATIONS):
            still = []
            for i in moving:
                x = xs[i]
                v, dv = mp.polyval(q, x, derivative=True)
                if abs(v) <= bound * mp.polyval(q_abs, abs(x)):
                    continue
                step = v / dv
                corr = step / (1 - step * mp.fsum(
                    1 / (x - w) for j, w in enumerate(xs) if j != i))
                xs[i] = x - corr
                if abs(corr) > 8 * eps * abs(x):
                    still.append(i)
            moving = still
            if not moving:
                return xs
    raise AssertionError("the reference Aberth did not converge")


def _forced_seeds(real, how, starts):
    """_float_seeds whose first start fails, or, for a tuple how, whose
    first len(how) starts fail, each as named: "colliding" repeats the first
    seed in place of the last, "unpaired" moves the topmost seed onto the
    real axis, so that its mirror loses its match, "nonfinite" turns every
    seed to nan, as a diverging Aberth run does; a lone nan seed (n = 2)
    would pass for a real root. Later calls are real; starts collects every
    call's seed."""
    hows = (how,) if isinstance(how, str) else how

    def forced(coeffs, seed):
        s, xs, sweeps = real(coeffs, seed)
        starts.append(seed)
        if len(starts) > len(hows):
            return s, xs, sweeps
        how = hows[len(starts) - 1]
        if how == "colliding":
            xs = [xs[0]] + xs[:-1]
        elif how == "unpaired":
            top = max(range(len(xs)), key=lambda k: xs[k].imag)
            xs[top] = complex(xs[top].real, 0)
        else:
            xs = [complex(math.nan, math.nan)] * len(xs)
        assert how == "nonfinite" or roots._mirror_pairs(xs) is None
        return s, xs, sweeps
    return forced


def _lift_once_per_orbit(found, r, monkeypatch):
    """lift_cube_roots, checking that it evaluates one residual per orbit."""
    calls = []
    real = roots._residual
    monkeypatch.setattr(roots, "_residual",
                        lambda *args: calls.append(1) or real(*args))
    rs = roots.lift_cube_roots(found, r)
    assert len(calls) == rs.representatives
    return rs


def _assert_layout(rs, ys):
    """RootSet's layout, bit for bit: per y-root of ys the triple (b, b
    omega, b conj(omega)), a real y's triple its own conjugate with b
    exactly real, a pair's two triples adjacent and exact conjugates, zero
    last; every root with a negligible imaginary part exactly real."""
    zs = list(rs.roots)
    assert rs.includes_zero == (zs[-1:] == [0])
    zs = zs[:len(zs) - rs.includes_zero]
    assert len(zs) == 3 * len(ys)
    triples = [zs[k:k + 3] for k in range(0, len(zs), 3)]
    with mp.workprec(2 * rs.precision_bits):
        omega = mp.exp(2j * mp.pi / 3)
        k = 0
        while k < len(triples):
            b, *images = triples[k]
            assert images == [b * omega, b * mp.conj(omega)]
            if mp.im(ys[k]) == 0:
                assert mp.im(b) == 0
                assert [mp.conj(z) for z in images] == images[::-1]
                k += 1
            else:
                assert ys[k + 1] == mp.conj(ys[k])
                assert triples[k + 1] == [mp.conj(z) for z in triples[k]]
                k += 2
        tol = mp.mpf(2) ** -rs.precision_bits
        assert all(mp.im(z) == 0 for z in rs.roots if abs(mp.im(z)) < tol)


def _discs_holding(point, centres, radii):
    """How many of the discs about centres with radii hold point."""
    return sum(1 for c, q in zip(centres, radii) if abs(point - c) <= q)


# _fixed_horner's documented guard bits, stated here and not read from the
# module, so that a kernel keeping fewer fails TestFixedHorner
GUARD_BITS = 8


def _man_exp(p):
    """(man, exp) with p = man 2^exp, for an mpf p; man carries the sign."""
    sign, man, exp, _ = p._mpf_
    return -man if sign else man, exp


def _dyadic(x):
    """(re, im, e) with x = (re + i im) / 2^e exactly and e >= 0."""
    (mr, er), (mi, ei) = _man_exp(x.real), _man_exp(x.imag)
    e = max(0, -er, -ei)
    return mr << (er + e), mi << (ei + e), e


def _exact_horner(coeffs, re, im, e):
    """2^(e m) sum coeffs[k] y^k for y = (re + i im) / 2^e, m = degree,
    exactly, as the integer pair (real, imaginary): the reference the
    integer kernel is held to."""
    m = len(coeffs) - 1
    pr, pi = coeffs[m], 0
    for k in range(m - 1, -1, -1):
        pr, pi = pr * re - pi * im + (coeffs[k] << (e * (m - k))), \
            pr * im + pi * re
    return pr, pi


def _distance(v, exact, e):
    """|v - (exact[0] + i exact[1]) / 2^e|, v an mpf or mpc read exactly,
    as a 64-bit mpf."""
    (mr, er), (mi, ei) = _man_exp(v.real), _man_exp(v.imag)
    s = max(e, -er, -ei)
    dr = (mr << (er + s)) - (exact[0] << (s - e))
    di = (mi << (ei + s)) - (exact[1] << (s - e))
    with mp.workprec(64):
        return mp.hypot(mp.ldexp(dr, -s), mp.ldexp(di, -s))


def _documented_bounds(coeffs, x, bits):
    """_fixed_horner's bounds on R and R' at x, and the standard bound
    2 d 2^-bits A(|x|) of floating-point Horner at bits bits."""
    parts = [p for p in (x.real, x.imag) if p]
    m = max((p.exp + p.bc for p in parts), default=0)
    f = bits + GUARD_BITS - m
    chi = int(any(p.exp + f < 0 for p in parts))  # x^ != x
    d = len(coeffs) - 1

    def at(terms, t):  # sum terms[k] t^k, nonnegative terms
        acc = mp.mpf(0)
        for c in reversed(terms):
            acc = acc * t + c
        return acc

    a = [abs(c) for c in coeffs]
    with mp.workprec(64):
        kappa = 1 if isinstance(x, mp.mpf) else mp.sqrt(2)
        u = mp.ldexp(1, -f)
        rho = abs(x) + chi * kappa * u
        a1 = at([k * c for k, c in enumerate(a)][1:], rho)  # A'(rho)
        a2 = at([k * (k - 1) * c for k, c in enumerate(a)][2:], rho)
        value = kappa * u * (chi * a1 + at([1] * (d - 1), rho))
        slope = kappa * u * (chi * a2 + at(range(2, d), rho))
        standard = 2 * d * mp.ldexp(1, -bits) * at(a, abs(x))
    return value, slope, standard


class TestFixedHorner:
    def test_within_documented_bound(self, records16):
        """Against _exact_horner, an exact integer evaluation at the dyadic
        point, on the y-roots of n <= 12, points moved off them and their
        moduli, at 106, 276 and 2 prec bits, each point as found and
        rounded to the bits asked for."""
        ratios = []
        for n in range(2, 13):
            coeffs = records16[n].compressed[::-1]
            dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
            d = len(coeffs) - 1
            prec = roots.working_precision(d)
            ys = roots.find_roots(records16[n])["ys"]
            with mp.workprec(2 * prec):
                points = [y.real if y.imag == 0 else y for y in ys]
                points += [y * (1 + mp.mpc(1, 1) * mp.mpf(2) ** -30)
                           for y in ys]
                points += [abs(y) for y in ys]
            for bits in (106, 276, 2 * prec):
                with mp.workprec(bits):
                    rounded = [+x for x in points] if bits < 2 * prec else []
                for x in points + rounded:
                    re, im, e = _dyadic(x)
                    value = _exact_horner(coeffs, re, im, e)
                    slope = _exact_horner(dcoeffs, re, im, e)
                    with mp.workprec(1 << 16):  # the results unrounded
                        v, dv = roots._fixed_horner(coeffs, x, bits)
                        assert roots._fixed_horner(
                            coeffs, x, bits, False) == (v, None)
                    bound, dbound, standard = \
                        _documented_bounds(coeffs, x, bits)
                    err = _distance(v, value, e * d)
                    with mp.workprec(64):
                        assert err <= bound * (1 + mp.mpf(2) ** -40)
                        assert err <= standard
                        assert _distance(dv, slope, e * (d - 1)) \
                            <= dbound * (1 + mp.mpf(2) ** -40)
                        if bound:
                            ratios.append(err / bound)
        # the bound is sharp: a kernel twice as coarse would break it
        assert len(ratios) > 1000 and max(ratios) > 0.5


def _exact_step(coeffs, s, u):
    """R(y) / R'(y) / 2^s at y = 2^s u, from an exact evaluation at the
    double u, rounded once to a double."""
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    re, im, e = _dyadic(mp.mpc(mp.ldexp(u.real, s), mp.ldexp(u.imag, s)))
    pr, pi = _exact_horner(coeffs, re, im, e)
    qr, qi = _exact_horner(dcoeffs, re, im, e)
    den = (qr * qr + qi * qi) << (e + s)
    return complex((pr * qr + pi * qi) / den, (pi * qr - pr * qi) / den)


def _exact_float_newton(coeffs, s):
    """roots._float_newton with each step the doubles do not resolve taken
    from an exact evaluation at the double iterate."""
    d = len(coeffs) - 1
    fast = roots._horner_newton([c / (1 << (s * (d - k)))
                                 for k, c in enumerate(coeffs)],
                                roots.FLOAT_EPS)

    def newton(u):
        step = fast(u)
        return _exact_step(coeffs, s, u) if step is None else step
    return newton


class TestFloatStage:
    def test_integer_steps_keep_the_exact_seeds(self, records16, monkeypatch):
        """The float stage's integer pass, at FLOAT_STAGE_BITS bits of y,
        gives the (s, seeds, sweeps) of exact steps, n = 2..16, seeds 0-3."""
        reduced = [records16[n].compressed[::-1] for n in range(2, 17)]
        shipped = [roots._float_seeds(coeffs, seed)
                   for seed in range(4) for coeffs in reduced]
        monkeypatch.setattr(roots, "_float_newton", _exact_float_newton)
        assert [roots._float_seeds(coeffs, seed)
                for seed in range(4) for coeffs in reduced] == shipped

    def test_far_and_lopsided_iterates(self, records16, monkeypatch):
        """Integer steps alone at |y| = 2^300, past FLOAT_STAGE_BITS, where
        y is kept whole and the step is exact; at an imaginary part 2^-1000
        of the real part, which the pass drops; none at an infinite one."""
        coeffs = records16[12].compressed[::-1]
        s = roots._scale_exponent(coeffs)
        kernel, fs = roots._int_horner, []

        def spy(*args):  # the fractional bits of each integer pass
            value, slope, f = kernel(*args)
            fs.append(f)
            return value, slope, f
        monkeypatch.setattr(roots, "_int_horner", spy)
        monkeypatch.setattr(roots, "_horner_newton",
                            lambda coeffs, eps: lambda u: None)
        newton = roots._float_newton(coeffs, s)
        far = 2.0 ** (300 - s) * cmath.exp(1j)
        assert newton(far) == _exact_step(coeffs, s, far)
        lopsided = complex(0.5, 2.0 ** -1001)
        exact = _exact_step(coeffs, s, lopsided)
        assert abs(newton(lopsided) - exact) <= 2.0 ** -52 * abs(exact)
        assert fs == [0, roots.FLOAT_STAGE_BITS - s]
        with pytest.raises(ArithmeticError):  # _aberth nudges it
            newton(complex(math.inf, 1.0))


def _with_roots(rs, new_roots):
    return replaced(rs, roots=tuple(new_roots), radii=(),
                               residuals=rs.residuals[:len(new_roots)])


def _perturbed(rs):
    with mp.workprec(rs.precision_bits):
        moved = list(rs.roots)
        moved[5] *= 1 + mp.mpf(2) ** -80
    return moved


def _duplicated(rs):
    doubled = list(rs.roots)
    doubled[4] = doubled[3]
    return doubled


class TestScreens:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_separation_bounds_full_scan(self, rootsets12, n):
        rs = rootsets12[n]
        bases = [orbit[0] for orbit in roots._orbits(rs)]
        bound = roots._separation(rs.roots, bases)
        with mp.workprec(2 * rs.precision_bits):
            exact = min(abs(a - b) for i, a in enumerate(rs.roots)
                        for b in rs.roots[:i])
            assert exact - mp.mpf(2) ** -40 < bound <= exact
        doubled = _duplicated(rs)
        assert roots._separation(doubled, range(len(doubled))) <= 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(PART, PART, st.integers(-2 ** 20, 2 ** 20)),
                    min_size=2, max_size=12),
           st.lists(st.integers(0, 11), max_size=3), st.integers(1, 11))
    def test_separation_is_a_tight_lower_bound(self, parts, repeats, split):
        with mp.workprec(200):
            points = [mp.mpc(re + mp.ldexp(k, -70), im)
                      for re, im, k in parts]
            points += [points[r % len(points)] for r in repeats]
            slack = mp.ldexp(1 + max(map(abs, points)), -40)
            exact = min(abs(a - b) for i, a in enumerate(points)
                        for b in points[:i])
            bound = roots._separation(points, range(len(points)))
            assert bound <= exact and exact - bound <= slack
            k = 1 + split % (len(points) - 1)
            crossed = min(abs(a - b) for a in points[:k] for b in points[k:])
            bound = roots._separation(points[:k], range(k), points[k:])
            assert bound <= crossed and crossed - bound <= slack
        far = points + [mp.mpc(mp.mpf("1e400"))]
        assert not roots._separation(far, range(len(far))) > 0
        assert not roots._separation(points, range(1), far[1:]) > 0

    def test_near_rational_screen_equals_full_loop(self, rootsets12):
        def full_loop(x, tol):  # certify's guard before the double screen
            for q in range(1, 65):
                if abs(x - mp.mpf(int(mp.nint(x * q))) / q) < tol:
                    return q
            return None

        with mp.workprec(256):
            tol = mp.mpf(2) ** -128
            crafted = [mp.mpf(p) / q + s * d
                       for p, q in ((1, 3), (-7, 5), (22, 7), (5, 64),
                                    (3, 1), (-1, 2))
                       for s in (1, -1) for d in (tol / 2, 2 * tol)]
            # x q next to a half-integer, just past the double resolution
            crafted += [(mp.mpf(2 * k + 1) / 2 + mp.mpf(2) ** -60) / q
                        for k, q in ((0, 1), (3, 7), (-5, 64))]
            verdicts = [(roots._near_rational(x, tol), full_loop(x, tol))
                        for x in crafted]
        for rs in rootsets12.values():
            with mp.workprec(rs.precision_bits):  # as certify calls it
                tol = mp.mpf(2) ** (-rs.precision_bits // 2)
                verdicts += [(roots._near_rational(z.real, tol),
                              full_loop(z.real, tol)) for z in rs.roots
                             if z != 0 and abs(z.imag) < tol]
        assert len(verdicts) > 27 + 30  # 38 real roots for n <= 12
        assert all(screened == full for screened, full in verdicts), verdicts
        found = [full for _, full in verdicts]
        assert {1, 2, 3, 5, 7, 64} <= set(found) and None in found


CLOSURE = [{"check": "omega_closure"}, {"check": "conjugation_closure"}]


class TestCertify:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_passes(self, records8, rootsets8, n):
        rep = roots.certify(rootsets8[n], records8[n])
        assert rep.passed and rep.elapsed > 0

    def test_detects_dropped_root(self, records8, rootsets8):
        rs = rootsets8[3]
        broken = replaced(rs, roots=rs.roots[:-1], radii=(),
                                     residuals=rs.residuals[:-1])
        rep = roots.certify(broken, records8[3])
        assert rep.witnesses == [{"check": "count", "got": 5, "want": 6},
                                 {"check": "inclusion", "radii": 0},
                                 *CLOSURE]

    def test_detects_perturbed_root(self, records8, rootsets8):
        rs = rootsets8[7]
        rep = roots.certify(_with_roots(rs, _perturbed(rs)), records8[7])
        assert rep.witnesses == [{"check": "inclusion", "radii": 0}, *CLOSURE]

    def test_closure_is_read_from_the_layout(self, records8, rootsets8):
        rs = rootsets8[7]
        order = list(range(len(rs.roots)))
        random.Random(0).shuffle(order)
        shuffled = replaced(
            rs, roots=tuple(rs.roots[k] for k in order),
            residuals=tuple(rs.residuals[k] for k in order),
            radii=tuple(rs.radii[k] for k in order))
        assert set(shuffled.roots) == set(rs.roots)  # closed as a set
        rep = roots.certify(shuffled, records8[7])
        assert rep.witnesses == CLOSURE

    def test_detects_overlapping_discs(self, records8, rootsets8):
        rs = rootsets8[7]
        with mp.workprec(2 * rs.precision_bits):
            moved = list(rs.roots)
            moved[4] = moved[3] + rs.radii[3]  # on the rim of root 3's disc
        broken = replaced(rs, roots=tuple(moved))
        assert roots.certify(rs, records8[7]).passed
        rep = roots.certify(broken, records8[7])
        assert {"check": "inclusion", "radii": len(rs.radii)} \
            in rep.witnesses

    def test_detects_moved_orbit(self, records8, rootsets8):
        # one six-root orbit moved onto the images of a point in another's
        # base disc: closed in its layout, each root with its stored disc,
        # and two roots 1e-124 apart where the finder's separation was 1.87
        rs = rootsets8[7]
        moved_orbit, host = [o for o in roots._orbits(rs) if len(o) == 6][:2]
        with mp.workprec(2 * rs.precision_bits):
            omega = mp.exp(2j * mp.pi / 3)
            b = rs.roots[host[0]] + rs.radii[host[0]] / 2
            triple = [b, b * omega, b * mp.conj(omega)]
            moved = list(rs.roots)
            moved[moved_orbit.start:moved_orbit.stop] = \
                triple + [mp.conj(z) for z in triple]
        broken = replaced(rs, roots=tuple(moved))
        assert roots._closure(broken) == (True, True)
        rep = roots.certify(broken, records8[7])
        assert rep.witnesses == [{"check": "inclusion", "radii": 28}]

    def test_detects_missing_radii(self, records8, rootsets8):
        rep = roots.certify(replaced(rootsets8[7], radii=()),
                            records8[7])
        assert {"check": "inclusion", "radii": 0} in rep.witnesses
        assert rep.details["inclusion_digits"] is None

    def test_detects_duplicated_root(self, records8, rootsets8):
        rs = rootsets8[7]
        rep = roots.certify(_with_roots(rs, _duplicated(rs)), records8[7])
        assert rep.witnesses == [{"check": "inclusion", "radii": 0}, *CLOSURE]

    @pytest.mark.parametrize("kept, lost", [(3, 4), (4, 5)])
    def test_detects_duplicated_root_with_its_disc(self, records8, rootsets8,
                                                   kept, lost):
        # an unclosed set is measured from every root: root 3 is an orbit's
        # base, but from the bases alone two copies of root 4 go unseen
        rs = rootsets8[7]
        doubled = list(rs.roots)
        doubled[lost] = doubled[kept]
        broken = replaced(rs, roots=tuple(doubled))
        rep = roots.certify(broken, records8[7])
        assert rep.witnesses == [{"check": "inclusion", "radii": 28},
                                 *CLOSURE]


class TestExports:
    def test_csv(self, rootsets8, tmp_path):
        path = tmp_path / "roots_4.csv"
        roots.export_csv(rootsets8[4], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("n,re,im")
        assert len(lines) == 1 + expected_degree(4)

    def test_svg(self, rootsets8, tmp_path):
        path = tmp_path / "roots_4.svg"
        roots.export_svg(rootsets8[4], path)
        text = path.read_text()
        assert text.lstrip().startswith("<svg")
        assert text.count("<circle") >= expected_degree(4)
