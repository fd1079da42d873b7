import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from yvpoly import cli, family, relations, roots
from yvpoly.intpoly import IntPoly
from yvpoly.quotient import QuotientContext
from yvpoly.report import FAIL, PASS, SKIPPED


def _statuses(reports):
    return {r.details.get("family"): r.status for r in reports}


def _hosts(records, rootsets, n):
    """(host key, host record, target record, host root set) at n."""
    for key, host, target in (("prev", n - 1, n), ("cur", n, n - 1)):
        if rootsets[host].roots:
            yield key, records[host], records[target], rootsets[host]


def _entry(row, p, bits):
    """S_p or C_p (p = 1..5) of a fixed-point table row, as an mpc."""
    return mp.mpc(mp.mpf((row[2 * p - 2], -bits)),
                  mp.mpf((row[2 * p - 1], -bits)))


DEFAULT_TOL_BITS = relations._neg_log2(mp.mpf(10) ** -30)  # 100
CAPPED = relations._neg_log2(mp.mpf(10) ** -500)  # past every table's cap


def _at(element, w):
    """The residue polynomial evaluated at w, at the working precision."""
    acc = mp.mpc(0)
    for c in reversed(element.residue.coeffs):
        acc = acc * w + c
    return acc


class TestResidues:
    def test_cross_sum_first_order(self, records8):
        # sum over roots beta of Q_2 of 1/(alpha - beta), as an element of
        # Z[alpha]/(Q_1): Q_2'(alpha) / Q_2(alpha) = 3 alpha^2 / (alpha^3 + 4)
        q1, q2 = records8[1].poly, records8[2].poly
        G, b0_powers = relations.cross_sum_residue(q1, q2, 1,
                                                   QuotientContext(q1))
        # modulo alpha: G_0 = 0 over b0 = 4
        assert len(G) == 1
        assert G[0].residue == IntPoly()
        assert b0_powers[1].residue == IntPoly([4])
        # and back, over the root 0 of Q_1 at a root alpha of Q_2: 1 / alpha
        G, b0_powers = relations.cross_sum_residue(q2, q1, 1)
        assert G[0].residue == IntPoly([1])
        assert b0_powers[1].residue == IntPoly([0, 1])

    def test_self_sum_quadratic_host(self, records8):
        # Q_2 = z^3 + 4, p = 1: S_1(alpha) = Q_2''(alpha) / (2 Q_2'(alpha))
        # = 3 alpha / (3 alpha^2), kept as G_0 = 3 alpha over b0 = 3 alpha^2
        ctx = QuotientContext(records8[2].poly)
        G, b0_powers = relations.self_sum_residue(records8[2].poly, 1, ctx)
        assert len(G) == 1
        assert G[0].residue == IntPoly([0, 3])
        assert b0_powers[1].residue == IntPoly([0, 0, 3])
        # S_1 = G_0 / b0 = 1 / alpha, cross-multiplied
        assert G[0] * ctx.element(IntPoly.z()) == b0_powers[1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kernels_agree_at_every_power(self, records8, rootsets8, n):
        # every exact s_p, c_p (p = 1..5, including the unused p = 4),
        # (-1)^(p-1) G(w) / b0(w)^p at each certified root w, equals the
        # numeric table, at the default tolerance's bits and at the cap
        prec = max(rootsets8[n - 1].precision_bits,
                   rootsets8[n].precision_bits)
        with mp.workprec(prec):
            tol = mp.mpf(2) ** -(prec // 2)  # room for cancellation in _at
            for key, host, target, rs in _hosts(records8, rootsets8, n):
                s = relations.self_sum_residue(host.poly, 5)
                c = relations.cross_sum_residue(host.poly, target.poly, 5)
                assert len(s[0]) == len(c[0]) == 5
                for tol_bits in (DEFAULT_TOL_BITS, CAPPED):
                    s_bits, s_rows = relations._self_table(rs, tol_bits)
                    c_bits, c_rows = relations._cross_table(
                        rootsets8[n - 1], rootsets8[n], key, tol_bits)
                    for i, w in enumerate(rs.roots):
                        for p in range(5):
                            for (G, b0_powers), bits, row in (
                                    (s, s_bits, s_rows[i]),
                                    (c, c_bits, c_rows[i])):
                                want = ((-1) ** p * _at(G[p], w)
                                        / _at(b0_powers[p + 1], w))
                                scale = max(1, abs(want))
                                assert abs(_entry(row, p + 1, bits) - want) \
                                    <= tol * scale

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tables_equal_direct_sums(self, records8, rootsets8, n):
        # at the cap, within 2^-(prec - 16) relative to max(1, |sum|) as
        # before the bits came from the tolerance; at the default
        # tolerance, within the absolute bound _table_bits documents
        prec = max(rootsets8[n - 1].precision_bits,
                   rootsets8[n].precision_bits)
        bound = mp.mpf(2) ** -(DEFAULT_TOL_BITS + relations.HEADROOM_BITS - 3)
        with mp.workprec(prec):
            for key, host, target, rs in _hosts(records8, rootsets8, n):
                others = rootsets8[target.n].roots
                sums = {}
                for i, w in enumerate(rs.roots):
                    for p in range(1, 6):
                        sums[i, p] = (
                            mp.fsum(1 / (w - r) ** p for k, r in
                                    enumerate(rs.roots) if k != i),
                            mp.fsum(1 / (w - t) ** p for t in others))
                for tol_bits in (CAPPED, DEFAULT_TOL_BITS):
                    tables = (relations._self_table(rs, tol_bits),
                              relations._cross_table(
                                  rootsets8[n - 1], rootsets8[n], key,
                                  tol_bits))
                    for (bits, rows), cap in zip(tables, (
                            relations._fixed_bits(rs), relations._fixed_bits(
                                rootsets8[n - 1], rootsets8[n]))):
                        assert (bits == cap) == (tol_bits == CAPPED)
                    for (i, p), want in sums.items():
                        for (bits, rows), sum_ in zip(tables, want):
                            got = _entry(rows[i], p, bits)
                            if tol_bits == CAPPED:
                                assert abs(got - sum_) <= \
                                    mp.mpf(2) ** -(prec - 16) \
                                    * max(1, abs(sum_))
                            else:
                                assert abs(got - sum_) <= bound

    def test_tables_live_with_their_sources(self, tmp_path, monkeypatch):
        records = family.generate(4)
        rootsets = {n: roots.roots_for_record(records[n]) for n in range(5)}
        before = len(relations.TABLES._entries)
        for n in range(1, 5):
            relations.verify_theorem(records, n, mode="exact")
            relations.verify_theorem(records, n, mode="numeric",
                                     rootsets=rootsets)
        assert len(relations.TABLES._entries) > before
        del records, rootsets
        gc.collect()
        assert len(relations.TABLES._entries) == before
        # a CLI run's root sets and w_n go with its records
        real_get, kinds = relations.TABLES.get, set()

        def spy(sources, kind, *args):
            kinds.add(kind[0] if isinstance(kind, tuple) else kind)
            return real_get(sources, kind, *args)

        monkeypatch.setattr(relations.TABLES, "get", spy)
        assert cli.main(["verify", "--n-max", "4", "--out", str(tmp_path),
                         "--suites", "pii,backlund,relations"]) == 0
        assert {"roots", "w"} <= kinds
        gc.collect()
        assert len(relations.TABLES._entries) == before


class TestExactMode:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_theorem(self, records8, n):
        reports = relations.verify_theorem(records8, n, mode="exact")
        assert all(r.status == PASS for r in reports), _statuses(reports)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kudryashov(self, records8, n):
        reports = relations.verify_kudryashov(records8, n, mode="exact")
        assert all(r.status == PASS for r in reports), _statuses(reports)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_corollary(self, records8, n):
        reports = relations.verify_corollary(records8, n, mode="exact")
        assert all(r.status == PASS for r in reports), _statuses(reports)

    def test_n1_prev_host_skipped(self, records8):
        reports = relations.verify_theorem(records8, 1, mode="exact")
        statuses = {r.status for r in reports}
        assert SKIPPED in statuses  # Q_0 = 1 has no roots
        assert FAIL not in statuses

    def test_detects_wrong_rhs(self, records8):
        # corrupt the target polynomial: identities must fail, not silently pass
        bad = list(records8)
        bad[2] = type(records8[2])(
            n=2, poly=IntPoly([5, 0, 0, 1]), compressed=(1, 5), x_n=5, p_n=0)
        reports = relations.verify_theorem(bad, 3, mode="exact")
        assert any(r.status == FAIL for r in reports)

    def test_repeated_root_host_is_a_fail_report(self, records8):
        # Q_2 replaced by (z - 1)^2 (z + 2): host'(a) is not invertible, and
        # the certificate finds the common factor z - 1 of host and host'
        bad = list(records8)
        bad[2] = type(records8[2])(
            n=2, poly=IntPoly([2, -3, 0, 1]), compressed=(1, 0, -3, 2),
            x_n=2, p_n=0)
        reports = relations.verify_theorem(bad, 3, mode="exact")
        by_family = {r.details["family"]: r for r in reports}
        for family_id in ("T1", "T2", "T3", "T5"):  # hosted by bad[2]
            rep = by_family[family_id]
            assert rep.status == FAIL
            witness = rep.witnesses[0]
            assert witness["error"] == "UnexpectedCommonFactor"
            assert witness["gcd_degree"] == 1
        # the error kept in the tables does not keep its host alive
        host = weakref.ref(bad[2])
        del bad
        gc.collect()
        assert host() is None

    def test_residue_fail_names_its_scaling(self, records8):
        bad = list(records8)
        bad[2] = type(records8[2])(
            n=2, poly=IntPoly([5, 0, 0, 1]), compressed=(1, 5), x_n=5, p_n=0)
        by_family = {r.details["family"]: r for r in
                     relations.verify_theorem(bad, 3, mode="exact")}
        witness = by_family["T2"].witnesses[0]  # rhs a / 6: L = 6
        assert witness["scaled_by"] == "6·Q_2'(a)^2·Q_3(a)^2"
        assert witness["family"] == "T2"
        assert all(isinstance(c, str) for c in witness["residue"])
        assert any(int(c) for c in witness["residue"])

    def test_every_factor_is_certified(self, monkeypatch):
        # fresh records, so no cached table hides a certificate
        records = family.generate(6)
        seen = set()
        real = relations.certify_coprime

        def spy(num, den, what):
            seen.add((num, den))
            return real(num, den, what)

        monkeypatch.setattr(relations, "certify_coprime", spy)
        for n in range(1, 7):
            for verifier in (relations.verify_theorem,
                             relations.verify_corollary,
                             relations.verify_kudryashov):
                verifier(records, n, mode="exact")
        for n in range(1, 7):
            q = records[n].poly
            assert (q.derivative(), q) in seen  # host'(a), every host
            assert (records[n - 1].poly, q) in seen  # Q_{n-1}(a) mod Q_n
            if n > 1:  # Q_0 = 1 hosts nothing
                assert (q, records[n - 1].poly) in seen

    def test_wrong_identity_is_never_scaled_away(self, records8,
                                                monkeypatch):
        # shift every right-hand side by 1/144: the scaling by L and the
        # b0 powers must not turn a false identity into a zero residue
        def shifted(rhs):
            return lambda n: (Fraction(rhs(n)[0]) + Fraction(1, 144),
                              rhs(n)[1])

        monkeypatch.setattr(relations, "FAMILIES", tuple(
            (*fam[:6], shifted(fam[6])) for fam in relations.FAMILIES))
        for n in range(2, 9):
            for verifier in (relations.verify_theorem,
                             relations.verify_corollary,
                             relations.verify_kudryashov):
                reports = verifier(records8, n, mode="exact")
                assert all(r.status == FAIL for r in reports), \
                    _statuses(reports)


class TestNumericMode:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_theorem(self, records8, rootsets8, n):
        reports = relations.verify_theorem(records8, n, mode="numeric",
                                           rootsets=rootsets8)
        assert all(r.status == PASS for r in reports), _statuses(reports)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kudryashov(self, records8, rootsets8, n):
        reports = relations.verify_kudryashov(records8, n, mode="numeric",
                                              rootsets=rootsets8)
        assert all(r.status == PASS for r in reports), _statuses(reports)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_corollary(self, records8, rootsets8, n):
        reports = relations.verify_corollary(records8, n, mode="numeric",
                                             rootsets=rootsets8)
        assert all(r.status == PASS for r in reports), _statuses(reports)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_modes_agree(self, records16, rootsets12, n):
        for verifier in (relations.verify_theorem,
                         relations.verify_kudryashov,
                         relations.verify_corollary):
            exact = _statuses(verifier(records16, n, mode="exact"))
            for exponent in (30, 50):
                numeric = _statuses(verifier(
                    records16, n, mode="numeric", rootsets=rootsets12,
                    tolerance=mp.mpf(10) ** -exponent))
                assert exact == numeric

    def test_table_bits_follow_the_tolerance(self, records8, rootsets8):
        # below the cap at 10^-30, at the cap at 10^-500; a report states
        # the larger bits of the tables it read
        for n in range(2, 9):
            prev, cur = rootsets8[n - 1], rootsets8[n]
            caps = {"T": relations._fixed_bits(prev, cur),
                    "C": relations._fixed_bits(prev, cur),
                    "K": relations._fixed_bits(cur)}
            for verifier in (relations.verify_theorem,
                             relations.verify_corollary,
                             relations.verify_kudryashov):
                for exponent in (30, 500):
                    for rep in verifier(records8, n, mode="numeric",
                                        rootsets=rootsets8,
                                        tolerance=mp.mpf(10) ** -exponent):
                        cap = caps[rep.details["family"][0]]
                        bits = rep.details["table_bits"]
                        assert bits < cap if exponent == 30 else bits == cap

    def test_wrong_identity_fails_at_the_cut_bits(self, records16,
                                                  rootsets12, monkeypatch):
        # every right-hand side shifted by 10^-25: the tables, at the bits
        # a 10^-30 check needs, must still resolve the shift
        def shifted(rhs):
            return lambda n: (Fraction(rhs(n)[0]) + Fraction(1, 10 ** 25),
                              rhs(n)[1])

        monkeypatch.setattr(relations, "FAMILIES", tuple(
            (*fam[:6], shifted(fam[6])) for fam in relations.FAMILIES))
        for n in range(2, 13):
            for verifier in (relations.verify_theorem,
                             relations.verify_corollary,
                             relations.verify_kudryashov):
                reports = verifier(records16, n, mode="numeric",
                                   rootsets=rootsets12)
                assert all(r.status == FAIL for r in reports), \
                    _statuses(reports)
        for n in range(2, 9):
            reports = relations.pole_series_check(records16, n,
                                                  rootsets=rootsets12)
            # a_0, a_1, a_2 and a_4, each naming its family and worst pole
            assert [r.status for r in reports] == [FAIL] * 4
            assert [w["family"] for r in reports for w in r.witnesses] == \
                ["T1", "T2", "T3", "T5"]

    def test_one_table_per_root_set_and_pair(self, tmp_path, monkeypatch):
        # relations, corollary, kudryashov and poleseries read one self
        # table per root set and one cross table per consecutive pair
        real_get, builds = relations.TABLES.get, Counter()

        def spy(sources, kind, build, *args):
            def counted():
                if isinstance(kind, tuple) and kind[0] in ("S", "C"):
                    builds[(kind[0], *map(id, sources))] += 1
                return build()
            return real_get(sources, kind, counted, *args)

        monkeypatch.setattr(relations.TABLES, "get", spy)
        assert cli.main(["verify", "--n-max", "6", "--mode", "numeric",
                         "--out", str(tmp_path)]) == 0
        assert set(builds.values()) == {1}
        kinds = Counter(key[0] for key in builds)
        assert kinds == {"S": 6, "C": 6}  # Q_1..Q_6; (Q_0, Q_1)..(Q_5, Q_6)

    def test_reports_margin_digits(self, records8, rootsets8):
        for n in range(2, 9):
            for rep in relations.verify_theorem(records8, n, mode="numeric",
                                                rootsets=rootsets8):
                assert rep.status == PASS
                assert rep.details["margin_digits"] > 0
        impossible = mp.mpf(10) ** -500
        for rep in relations.verify_corollary(records8, 5, mode="numeric",
                                              rootsets=rootsets8,
                                              tolerance=impossible):
            assert rep.status == FAIL
            assert rep.details["margin_digits"] < 0

    def test_unknown_mode(self, records8):
        with pytest.raises(ValueError):
            relations.verify_theorem(records8, 2, mode="symbolic")


class TestPoleSeries:
    # a_0, a_1, a_2 and a_4 at every pole of w_n, a root of Q_{n-1}
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_all_poles(self, records8, rootsets8, n):
        reports = relations.pole_series_check(records8, n, rootsets=rootsets8)
        assert _statuses(reports) == dict.fromkeys(["T1", "T2", "T3", "T5"],
                                                   PASS)
        assert {r.suite for r in reports} == {"poleseries"}

    def test_reports_margin_digits(self, records8, rootsets8):
        cap = relations._fixed_bits(rootsets8[4], rootsets8[5])
        for rep in relations.pole_series_check(records8, 5,
                                               rootsets=rootsets8):
            assert rep.passed and rep.details["margin_digits"] > 0
            assert rep.details["table_bits"] < cap
        for rep in relations.pole_series_check(records8, 5,
                                               rootsets=rootsets8,
                                               tolerance=mp.mpf(10) ** -500):
            assert not rep.passed and rep.details["margin_digits"] < 0
            assert rep.details["table_bits"] == cap

    def test_loose_tolerance_not_fooled(self, records8, rootsets8):
        # a tolerance no root set reaches fails every coefficient
        reports = relations.pole_series_check(records8, 3, rootsets=rootsets8,
                                              tolerance=mp.mpf(10) ** -500)
        assert [r.status for r in reports] == [FAIL] * 4


class TestDeepExact:
    @pytest.fixture(scope="class")
    def rootsets16(self, records16, rootsets8):
        deep = {n: roots.roots_for_record(records16[n]) for n in range(9, 17)}
        return {**rootsets8, **deep}

    @pytest.mark.parametrize("n", range(9, 17))
    def test_exact_passes_and_matches_numeric(self, records16, rootsets16,
                                              n):
        for verifier in (relations.verify_theorem,
                         relations.verify_corollary,
                         relations.verify_kudryashov):
            exact = _statuses(verifier(records16, n, mode="exact"))
            numeric = _statuses(verifier(records16, n, mode="numeric",
                                         rootsets=rootsets16))
            assert set(exact.values()) == {PASS}, exact
            assert exact == numeric
