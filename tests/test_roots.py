import dataclasses

from mpmath import mp

import pytest

from yvpoly import family, roots
from yvpoly.family import expected_degree


class TestCubeReduce:
    def test_degree_and_zero_flag(self, records8):
        rp = roots.cube_reduce(records8[4])
        assert rp.zero_root
        assert rp.degree == 3  # (10 - 1) / 3

    def test_expansion_matches(self, records8):
        rp = roots.cube_reduce(records8[5])
        # substituting y = z^3 back must reproduce the polynomial
        expanded = [0] * (3 * rp.degree + 1)
        for k, c in enumerate(rp.y_coeffs):
            expanded[3 * k] = c
        assert tuple(expanded) == records8[5].poly.coeffs


class TestWorkingPrecision:
    def test_floor(self):
        assert roots.working_precision(1, 64) == 128

    def test_scales_with_degree(self):
        assert roots.working_precision(100, 256) >= 400

    def test_scales_with_coefficients(self):
        assert roots.working_precision(2, 128, coeff_bits=1000) >= 1064


class TestFindRoots:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, rootsets8, n):
        assert len(rootsets8[n].roots) == expected_degree(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_residuals_tiny(self, rootsets8, n):
        rs = rootsets8[n]
        with mp.workprec(rs.precision_bits):
            assert rs.max_residual < mp.mpf(2) ** (-rs.precision_bits // 2)

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
        rp = roots.cube_reduce(records16[n])
        prec = roots.working_precision(
            rp.degree, coeff_bits=roots._coeff_bits(rp.y_coeffs))
        s = roots._scale_exponent(rp.y_coeffs)
        circle = [mp.mpc(mp.ldexp(u.real, s), mp.ldexp(u.imag, s))
                  for u in roots._circle(rp.y_coeffs, s, 0)]
        reference, _ = roots._mp_aberth(rp, circle, prec)
        diagnostics = {}
        found = roots.find_roots(rp, seed=0, diagnostics=diagnostics)
        assert type(found) is list
        assert not diagnostics["fallback"]
        assert diagnostics["ladder"][-1] == 2 * prec
        # the top step repeats only while a disc is wide and still shrinks
        assert diagnostics["ladder"].count(2 * prec) == (2 if n == 16 else 1)
        radii = diagnostics["radii"]
        rs = roots.lift_cube_roots(found, rp, diagnostics=diagnostics)
        with mp.workprec(2 * prec):
            for y in found:
                assert min(abs(y - r) for r in reference) \
                    < mp.mpf(2) ** -prec * abs(y)
            # the discs are sound: each reference root lies in exactly one
            # y-disc, and each of its cube roots in exactly one z-disc
            omega = mp.exp(2j * mp.pi / 3)
            for r in reference:
                assert _discs_holding(r, found, radii) == 1
                for k in range(3):
                    z = mp.cbrt(abs(r)) * mp.exp(1j * mp.arg(r) / 3) \
                        * omega ** k
                    assert _discs_holding(z, rs.roots, rs.radii) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_discs_hold_the_roots_of_polyroots(self, records16, n):
        rp = roots.cube_reduce(records16[n])
        diagnostics = {}
        found = roots.find_roots(rp, diagnostics=diagnostics)
        with mp.workdps(180):  # far inside the discs, about 1e-120 |y|
            others = mp.polyroots(list(reversed(rp.y_coeffs)),
                                  maxsteps=200, extraprec=600)
            assert len(others) == len(found)
            for r in others:
                assert _discs_holding(r, found, diagnostics["radii"]) == 1

    def test_every_root_has_a_narrow_disc(self, rootsets12):
        for rs in rootsets12.values():
            assert len(rs.radii) == len(rs.roots)
            with mp.workprec(rs.precision_bits):
                assert all(q <= mp.ldexp(abs(z), -rs.precision_bits)
                           for z, q in zip(rs.roots, rs.radii))
                assert rs.min_separation > 2 * max(rs.radii, default=0)

    def test_wide_discs_fall_back_then_fail(self, records8, monkeypatch):
        widths = []

        def wide(coeffs, points, steps, bits):
            widths.append(bits)
            return [mp.inf] * len(steps)

        monkeypatch.setattr(roots, "_radii", wide)
        with pytest.raises(roots.CertificationFailure) as exc:
            roots.roots_for_record(records8[5])
        assert exc.value.n == 5
        assert len(widths) == 2  # the ladder's top step, then the fallback

    def test_colliding_seeds_fall_back_and_certify(self, records8,
                                                   monkeypatch):
        real = roots._float_seeds

        def colliding(p, seed):
            s, xs, sweeps = real(p, seed)
            return s, [xs[0]] + xs[:-1], sweeps  # xs[0] twice, xs[-1] lost

        monkeypatch.setattr(roots, "_float_seeds", colliding)
        rs = roots.roots_for_record(records8[6], seed=0)
        assert rs.fallback and len(rs.roots) == expected_degree(6)
        assert len(rs.radii) == len(rs.roots)
        assert roots.certify(rs, records8[6]).passed

    def test_unpaired_seed_falls_back_and_certifies(self, records8,
                                                    monkeypatch):
        real = roots._float_seeds

        def unpaired(p, seed):
            s, xs, sweeps = real(p, seed)
            top = max(range(len(xs)), key=lambda k: xs[k].imag)
            xs[top] = complex(xs[top].real, 0)  # its mirror loses its match
            assert roots._mirror_pairs(xs) is None
            return s, xs, sweeps

        monkeypatch.setattr(roots, "_float_seeds", unpaired)
        rs = roots.roots_for_record(records8[6], seed=0)
        assert rs.fallback and not rs.ladder and rs.representatives == 0
        assert len(rs.roots) == len(rs.radii) == expected_degree(6)
        assert roots.certify(rs, records8[6]).passed

    @pytest.mark.parametrize("n", range(2, 13))
    def test_orbits_are_exact(self, records16, rootsets12, n, monkeypatch):
        rp = roots.cube_reduce(records16[n])
        diagnostics = {}
        ys = roots.find_roots(rp, diagnostics=diagnostics)
        assert not diagnostics["fallback"]
        calls = []
        real = roots._residual
        monkeypatch.setattr(roots, "_residual",
                            lambda *args: calls.append(1) or real(*args))
        rs = roots.lift_cube_roots(ys, rp, diagnostics=diagnostics)
        assert len(calls) == rs.representatives  # one residual per orbit
        assert rs.roots == rootsets12[n].roots
        with mp.workprec(2 * rs.precision_bits):
            assert {mp.conj(z) for z in rs.roots} == set(rs.roots)
            assert {mp.conj(y) for y in ys} == set(ys)
            tol = mp.mpf(2) ** -rs.precision_bits
            near_real = [y for y in ys if abs(mp.im(y)) < tol]
            assert all(mp.im(y) == 0 for y in near_real)
            # each pair has one representative, each real root its own
            assert len(near_real) == \
                2 * diagnostics["representatives"] - len(ys)
            assert sum(1 for z in rs.roots if z != 0 and mp.im(z) == 0) \
                == len(near_real)
            # Q_n itself by mpmath's Horner, apart from the root layer
            q = list(reversed(records16[n].poly.coeffs))
            q_abs = [abs(c) for c in q]
            worst = max(abs(mp.polyval(q, z)) / mp.polyval(q_abs, abs(z))
                        for z in rs.roots if z != 0)
        assert worst < mp.mpf(2) ** (-rs.precision_bits // 2)

    @pytest.mark.parametrize("n", [25, 30])
    def test_past_float_range_certifies(self, n):
        records = family.generate(n)
        assert roots._coeff_bits(roots.cube_reduce(records[n]).y_coeffs) > 900
        rs = roots.roots_for_record(records[n])
        assert len(rs.roots) == expected_degree(n)
        assert roots.certify(rs, records[n]).passed


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
            rp = roots.cube_reduce(records16[n])
            coeffs = rp.y_coeffs
            dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
            d = len(coeffs) - 1
            prec = roots.working_precision(
                d, coeff_bits=roots._coeff_bits(coeffs))
            ys = roots.find_roots(rp)
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
                    value = roots._exact_horner(coeffs, re, im, e)
                    slope = roots._exact_horner(dcoeffs, re, im, e)
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


def _with_roots(rs, new_roots):
    return roots.RootSet(
        n=rs.n, roots=tuple(new_roots), precision_bits=rs.precision_bits,
        residuals=rs.residuals[:len(new_roots)],
        max_residual=rs.max_residual, min_separation=rs.min_separation,
        includes_zero=rs.includes_zero)


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
    def test_min_separation_equals_full_scan(self, rootsets12, n):
        rs = rootsets12[n]
        with mp.workprec(2 * rs.precision_bits):
            brute = min(abs(a - b) for i, a in enumerate(rs.roots)
                        for b in rs.roots[:i])
        assert rs.min_separation == brute

    def test_closed_under_across_a_float_rounding_boundary(self):
        with mp.workprec(256):
            # 1 + 2^-53 rounds to the double 1, the image to 1 + 2^-52
            points = [mp.mpc(1 + mp.mpf(2) ** -53), mp.mpc(-1)]
            images = [points[0] + mp.mpf(2) ** -200, points[1]]
            assert complex(points[0]) != complex(images[0])
            assert roots._closed_under(points, images, mp.mpf(2) ** -128)

    def test_min_separation_past_float_range(self):
        points = [mp.mpc(2.5, 1), mp.mpc(mp.mpf("1e400")), mp.mpc(1),
                  mp.mpc(2, 1)]
        assert roots._min_separation(points) == mp.mpf("0.5")

    def test_closed_under_equals_full_scan(self, rootsets8):
        sets = [(rs, rs.roots) for rs in rootsets8.values() if rs.roots]
        sets += [(rootsets8[7], _perturbed(rootsets8[7])),
                 (rootsets8[7], _duplicated(rootsets8[7])),
                 (rootsets8[3], rootsets8[3].roots[:-1])]
        verdicts = []
        for rs, points in sets:
            with mp.workprec(rs.precision_bits):  # as certify calls it
                tol = mp.mpf(2) ** (-rs.precision_bits // 2)
                omega = mp.exp(2j * mp.pi / 3)
                for images in ([z * omega for z in points],
                               [mp.conj(z) for z in points]):
                    hits = [[k for k, z in enumerate(points)
                             if abs(z - img) < tol] for img in images]
                    brute = all(len(h) == 1 for h in hits) and \
                        sorted(h[0] for h in hits) == list(range(len(points)))
                    assert roots._closed_under(points, images, tol) == brute
                    verdicts.append(brute)
        assert True in verdicts and False in verdicts

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


class TestCertify:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_passes(self, records8, rootsets8, n):
        rep = roots.certify(rootsets8[n], records8[n])
        assert rep.passed and rep.elapsed > 0

    def test_detects_dropped_root(self, records8, rootsets8):
        rs = rootsets8[3]
        broken = roots.RootSet(
            n=3, roots=rs.roots[:-1], precision_bits=rs.precision_bits,
            residuals=rs.residuals[:-1], max_residual=rs.max_residual,
            min_separation=rs.min_separation, includes_zero=rs.includes_zero)
        rep = roots.certify(broken, records8[3])
        assert not rep.passed

    def test_detects_perturbed_root(self, records8, rootsets8):
        rs = rootsets8[7]
        rep = roots.certify(_with_roots(rs, _perturbed(rs)), records8[7])
        assert {"check": "omega_closure"} in rep.witnesses

    def test_detects_overlapping_discs(self, records8, rootsets8):
        rs = rootsets8[7]
        with mp.workprec(2 * rs.precision_bits):
            moved = list(rs.roots)
            moved[4] = moved[3] + rs.radii[3]  # on the rim of root 3's disc
            broken = dataclasses.replace(
                rs, roots=tuple(moved),
                min_separation=roots._min_separation(moved))
        assert roots.certify(rs, records8[7]).passed
        rep = roots.certify(broken, records8[7])
        assert {"check": "inclusion", "radii": len(rs.radii)} \
            in rep.witnesses

    def test_detects_missing_radii(self, records8, rootsets8):
        rep = roots.certify(dataclasses.replace(rootsets8[7], radii=()),
                            records8[7])
        assert {"check": "inclusion", "radii": 0} in rep.witnesses
        assert rep.details["inclusion_digits"] is None

    def test_detects_duplicated_root(self, records8, rootsets8):
        rs = rootsets8[7]
        rep = roots.certify(_with_roots(rs, _duplicated(rs)), records8[7])
        assert {"check": "omega_closure"} in rep.witnesses
        assert {"check": "conjugation_closure"} in rep.witnesses


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
