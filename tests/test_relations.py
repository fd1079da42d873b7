import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from yvpoly import cli, family, relations, roots
from yvpoly.intpoly import IntPoly, UnexpectedCommonFactor
from yvpoly.quotient import QuotientContext
from yvpoly.report import FAIL, PASS, SKIPPED

from conftest import replaced, table_keys


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


def _at(residue, w):
    """The residue polynomial evaluated at w, at the working precision."""
    acc = mp.mpc(0)
    for c in reversed(residue.coeffs):
        acc = acc * w + c
    return acc


_SUMS = {}  # (id(host), id(other), prec) -> (host, other, sums)


def _direct_sums(host, other):
    """Per root i of host, {p: [S_p, C_p]} for p = 1..5, summed directly at
    the working precision over the host's other roots and the other set's
    roots; kept, with the sets, so that their ids stay theirs."""
    key = (id(host), id(other), mp.prec)
    if key not in _SUMS:
        rows = []
        for i, w in enumerate(host.roots):
            sums = {p: [] for p in range(1, 6)}
            for ts in (host.roots, other.roots):
                terms = [1 / (w - t) for k, t in enumerate(ts)
                         if ts is not host.roots or k != i]
                powers = terms
                for p in range(1, 6):
                    sums[p].append(mp.fsum(powers))
                    powers = [a * b for a, b in zip(powers, terms)]
            rows.append(sums)
        _SUMS[key] = host, other, rows
    return _SUMS[key][2]


def _image(z, w, omega):
    """(j, flip) with z = omega^j w, or its conjugate if flip."""
    images = {(j, flip): (mp.conj(omega ** j * w) if flip else omega ** j * w)
              for j in range(3) for flip in (False, True)}
    j, flip = min(images, key=lambda jf: abs(images[jf] - z))
    assert abs(images[j, flip] - z) <= mp.mpf(2) ** (-mp.prec // 2) * abs(z)
    return j, flip


def _reference(suite, rootsets, n, tol):
    """{family: (status, worst deviation)} of a suite, judged at every root
    of the host from _direct_sums: the reference the bases-only judge is
    held to."""
    verdicts = {}
    for fam in relations._families(suite):
        _, name, host_key, p, cs, cc, rhs = fam
        host, other = rootsets[n - 1], rootsets[n]
        if host_key == "cur":
            host, other = other, host
        if not host.roots:
            verdicts[name] = SKIPPED, None
            continue
        c, k = (mp.mpf(x.numerator) / x.denominator
                for x in map(Fraction, rhs(n)))
        worst = max(abs(cs * s_p + cc * c_p - (c + k * w))
                    / max(1, abs(c + k * w)) for w, sums in
                    zip(host.roots, _direct_sums(host, other))
                    for s_p, c_p in [sums[p]])
        verdicts[name] = PASS if worst < tol else FAIL, worst
    return verdicts


def _chain(fam, records, n):
    """(residue, scaled_by) of a row that reads both sums, multiplied out as
    one product chain: cs S_p + cc C_p - (c + k a), times L and both b0^p,
    with lhs / factor = cs S_p + cc C_p and factor the product of the b0^p.
    The reference the shipped pin formula is held to."""
    _, _, host_key, p, cs, cc, rhs = fam
    host, other = records[n - 1], records[n]
    if host_key == "cur":
        host, other = other, host
    ctx = QuotientContext(host.poly)
    lhs, factor = IntPoly(), IntPoly.one()
    for coeff, sums in ((cs, host), (cc, other)):
        G, b0_powers = relations.sum_residue(host.poly, sums.poly, p, ctx)
        lhs = lhs * b0_powers[p] + coeff * G[p - 1] * factor
        factor = factor * b0_powers[p]
    scale, c, k = relations._cleared_rhs(rhs, n)
    residue = ctx.reduce((-1) ** (p - 1) * scale * lhs
                         - IntPoly((c, k)) * factor)
    return residue, f"{scale}·Q_{host.n}'(a)^{p}·Q_{other.n}(a)^{p}"


SUITES = (("relations", relations.verify_theorem),
          ("corollary", relations.verify_corollary),
          ("kudryashov", relations.verify_kudryashov),
          ("poleseries", relations.pole_series_check))


class TestResidues:
    def test_cross_sum_first_order(self, records8):
        # sum over roots beta of Q_2 of 1/(alpha - beta), as an element of
        # Z[alpha]/(Q_1): Q_2'(alpha) / Q_2(alpha) = 3 alpha^2 / (alpha^3 + 4)
        q1, q2 = records8[1].poly, records8[2].poly
        G, b0_powers = relations.sum_residue(q1, q2, 1, QuotientContext(q1))
        # modulo alpha: G_0 = 0 over b0 = 4
        assert len(G) == 1
        assert G[0] == IntPoly()
        assert b0_powers[1] == IntPoly([4])
        # and back, over the root 0 of Q_1 at a root alpha of Q_2: 1 / alpha
        G, b0_powers = relations.sum_residue(q2, q1, 1, QuotientContext(q2))
        assert G[0] == IntPoly([1])
        assert b0_powers[1] == IntPoly([0, 1])

    def test_self_sum_quadratic_host(self, records8):
        # Q_2 = z^3 + 4, p = 1: S_1(alpha) = Q_2''(alpha) / (2 Q_2'(alpha))
        # = 3 alpha / (3 alpha^2), kept as G_0 = 3 alpha over b0 = 3 alpha^2
        q2 = records8[2].poly
        ctx = QuotientContext(q2)
        G, b0_powers = relations.sum_residue(q2, q2, 1, ctx)
        assert len(G) == 1
        assert G[0] == IntPoly([0, 3])
        assert b0_powers[1] == IntPoly([0, 0, 3])
        # S_1 = G_0 / b0 = 1 / alpha, cross-multiplied
        assert ctx.reduce(G[0] * IntPoly.z()) == b0_powers[1]

    @pytest.mark.parametrize("sums", ["self", "cross"])
    def test_series_quotient_reduces_once_per_coefficient(self, records8,
                                                          monkeypatch, sums):
        # b0^1..b0^p, the weights b_i b0^(i-1) (i = 1..p-1) and each G_m are
        # reduced once, and the residues equal those of a route that
        # reduces after every product
        host, target, p = records8[5].poly, records8[6].poly, 5
        ctx = QuotientContext(host)
        if sums == "self":
            c = relations._taylor(host, p + 2, ctx)
            a, b = [(m + 1) * c[m + 2] for m in range(p)], c[1:p + 1]
        else:
            t = relations._taylor(target, p + 1, ctx)
            a, b = [(m + 1) * t[m + 1] for m in range(p)], t[:p]

        def mul(u, v):
            return ctx.reduce(u * v)

        powers = [IntPoly.one()]
        for _ in a:
            powers.append(mul(powers[-1], b[0]))
        eager = []
        for m, a_m in enumerate(a):
            acc = mul(a_m, powers[m])
            for i in range(1, m + 1):
                acc = acc - mul(mul(b[i], powers[i - 1]), eager[m - i])
            eager.append(acc)
        calls = []
        reduce = QuotientContext.reduce

        def spy(self, poly):
            calls.append(poly)
            return reduce(self, poly)

        monkeypatch.setattr(QuotientContext, "reduce", spy)
        G, b0_powers = relations._series_quotient(a, b, ctx)
        assert len(calls) == p + (p - 1) + p
        assert (G, b0_powers) == (tuple(eager), tuple(powers))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kernels_agree_at_every_power(self, records8, rootsets8, n):
        # every exact s_p, c_p (p = 1..5, including the unused p = 4),
        # (-1)^(p-1) G(w) / b0(w)^p at each orbit's base w, equals the
        # numeric row, at the default tolerance's bits and at the cap
        prec = max(rootsets8[n - 1].precision_bits,
                   rootsets8[n].precision_bits)
        with mp.workprec(prec):
            tol = mp.mpf(2) ** -(prec // 2)  # room for cancellation in _at
            for key, host, target, rs in _hosts(records8, rootsets8, n):
                ctx = QuotientContext(host.poly)
                s = relations.sum_residue(host.poly, host.poly, 5, ctx)
                c = relations.sum_residue(host.poly, target.poly, 5, ctx)
                assert len(s[0]) == len(c[0]) == 5
                for tol_bits in (DEFAULT_TOL_BITS, CAPPED):
                    tables = (relations._table(rs, rs, tol_bits),
                              relations._table(rs, rootsets8[target.n],
                                               tol_bits))
                    for i in tables[0][1]:  # the bases
                        w = rs.roots[i]
                        for p in range(5):
                            for (G, b0_powers), (bits, rows) in zip((s, c),
                                                                    tables):
                                want = ((-1) ** p * _at(G[p], w)
                                        / _at(b0_powers[p + 1], w))
                                scale = max(1, abs(want))
                                assert abs(_entry(rows[i], p + 1, bits)
                                           - want) <= tol * scale

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tables_equal_direct_sums(self, records16, rootsets12, n):
        # one row per orbit, at its base; each base's row against its
        # direct sum: at the cap, within 2^-(prec - 16) relative to
        # max(1, |sum|) as before the bits came from the tolerance; at the
        # default tolerance, within the absolute bound _table_bits
        # documents. Every root of the set, at the same bounds, against
        # its base's row turned: omega^(-j p) row at omega^j w, and its
        # conjugate at conj(omega^j w)
        prec = max(rootsets12[n - 1].precision_bits,
                   rootsets12[n].precision_bits)
        bound = mp.mpf(2) ** -(DEFAULT_TOL_BITS + relations.HEADROOM_BITS - 3)
        with mp.workprec(prec):
            omega = mp.exp(2j * mp.pi / 3)
            for key, host, target, rs in _hosts(records16, rootsets12, n):
                other = rootsets12[target.n]
                sums = _direct_sums(rs, other)
                orbits = roots._orbits(rs)
                assert sorted(i for orbit in orbits for i in orbit) == \
                    list(range(len(rs.roots)))
                for tol_bits in (CAPPED, DEFAULT_TOL_BITS):
                    tables = (relations._table(rs, rs, tol_bits),
                              relations._table(rs, other, tol_bits))
                    for (bits, rows), cap in zip(tables, (
                            relations._fixed_bits(rs),
                            relations._fixed_bits(rs, other))):
                        assert (bits == cap) == (tol_bits == CAPPED)
                        assert list(rows) == [orbit[0] for orbit in orbits]
                    for orbit in orbits:
                        w = rs.roots[orbit[0]]
                        for i in orbit:
                            j, flip = _image(rs.roots[i], w, omega)
                            for p in range(1, 6):
                                for (bits, rows), sum_ in zip(tables,
                                                              sums[i][p]):
                                    got = (_entry(rows[orbit[0]], p, bits)
                                           * omega ** (-j * p))
                                    got = mp.conj(got) if flip else got
                                    if tol_bits == CAPPED:
                                        assert abs(got - sum_) <= \
                                            mp.mpf(2) ** -(prec - 16) \
                                            * max(1, abs(sum_))
                                    else:
                                        assert abs(got - sum_) <= bound

    def test_tables_live_with_their_sources(self, tmp_path, monkeypatch):
        records = family.generate(4)
        rootsets = {n: roots.roots_for_record(records[n]) for n in range(5)}
        before = table_keys()
        for n in range(1, 5):
            relations.verify_theorem(records, n, mode="exact")
            relations.verify_theorem(records, n, mode="numeric",
                                     rootsets=rootsets)
        assert table_keys() - before
        del records, rootsets
        assert not table_keys() - before
        # a CLI run's root sets and w_n go with its records
        real_get, kinds = relations.TABLES.get, set()

        def spy(sources, kind, *args):
            kinds.add(kind[0] if isinstance(kind, tuple) else kind)
            return real_get(sources, kind, *args)

        monkeypatch.setattr(relations.TABLES, "get", spy)
        assert cli.main(["verify", "--n-max", "4", "--out", str(tmp_path),
                         "--suites", "pii,backlund,relations"]) == 0
        assert {"roots", "w"} <= kinds
        assert not table_keys() - before


class _Source:
    """A weakly referenceable stand-in for a record or root set."""


class TestTables:
    def test_failed_build_keeps_nothing(self):
        tables, source, calls = relations.Tables(), _Source(), []

        def build():
            calls.append(1)
            raise ValueError("no")

        for _ in range(2):  # not replayed: each request builds again
            with pytest.raises(ValueError, match="no"):
                tables.get((source,), "kind", build)
        assert len(calls) == 2 and tables._entries == {}
        collected = weakref.ref(source)
        del source
        gc.collect()
        assert collected() is None

    def test_value_built_once_per_sources_and_kind(self):
        tables, a, b, built = relations.Tables(), _Source(), _Source(), []

        def build(value):
            def counted():
                built.append(value)
                return value
            return counted

        for _ in range(2):
            assert tables.get((a,), "x", build(1)) == 1
            assert tables.get((a,), "y", build(2)) == 2
            assert tables.get((a, b), "x", build(3)) == 3
            assert tables.get((b, a), "x", build(4)) == 4
        assert built == [1, 2, 3, 4]

    def test_entry_goes_with_any_of_its_sources(self):
        tables, a, b = relations.Tables(), _Source(), _Source()
        tables.get((a,), "x", lambda: 1)
        tables.get((a, b), "x", lambda: 2)
        tables.get((b,), "x", lambda: 3)
        del a
        gc.collect()
        assert list(tables._entries.values()) == [3]
        del b
        gc.collect()
        assert tables._entries == {}


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

    def test_n_out_of_range_is_an_error(self, records8):
        # n = 0 does not read records[-1] as Q_{-1}, and n past the last
        # record raises no bare IndexError
        records = records8[:6]
        for n in (0, len(records)):
            for _, verifier in SUITES:
                with pytest.raises(ValueError, match=f"n = {n} needs"):
                    verifier(records, n, mode="exact")

    def test_detects_wrong_rhs(self, records8):
        # corrupt the target polynomial: identities must fail, not silently pass
        bad = list(records8)
        bad[2] = type(records8[2])(
            n=2, poly=IntPoly([5, 0, 0, 1]), compressed=(1, 5), x_n=5, p_n=0)
        reports = relations.verify_theorem(bad, 3, mode="exact")
        assert any(r.status == FAIL for r in reports)

    def test_repeated_root_host_raises(self, records8):
        # Q_2 replaced by (z - 1)^2 (z + 2): host'(a) is not invertible, and
        # the certificate finds the common factor z - 1 of host and host'.
        # The premise is a theorem, so its failure is an integrity error
        bad = list(records8)
        bad[2] = replaced(records8[2], poly=IntPoly([2, -3, 0, 1]),
                          compressed=(1, 0, -3, 2), x_n=2, p_n=0)
        before = set(relations.TABLES._entries)
        with pytest.raises(UnexpectedCommonFactor, match="has degree 1"):
            relations.verify_theorem(bad, 3, mode="exact")
        # the failed build keeps nothing; only the host's ring, built
        # before it, is kept, and goes with the host
        assert set(relations.TABLES._entries) - before == {
            ("ring", id(bad[2]))}
        host = weakref.ref(bad[2])
        del bad
        gc.collect()
        assert host() is None
        assert set(relations.TABLES._entries) == before

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

    def test_derived_rows_agree_with_their_chains(self, records16,
                                                 monkeypatch):
        # every row decided as shipped, then with FAMILIES cut to its
        # relations rows, so no pin is found and every T row computes its
        # own residue; on the true records and with Q_2 corrupted
        bad = list(records16[:13])
        bad[2] = type(records16[2])(
            n=2, poly=IntPoly([5, 0, 0, 1]), compressed=(1, 5), x_n=5, p_n=0)

        def decide(records):
            return [(n, r.details["family"], r.status,
                     "derived_from" in r.details)
                    for n in range(1, 13) for _, verifier in SUITES
                    for r in verifier(records, n, mode="exact")]

        shipped = [decide(records) for records in (records16[:13], bad)]
        derivable = {"T2", "T3", "T5", "T7", "T8", "T10"}
        assert all(derived == (name in derivable and status == PASS)
                   for rows in shipped for _, name, status, derived in rows)
        assert (3, "T2", FAIL, False) in shipped[1]
        monkeypatch.setattr(relations, "FAMILIES", tuple(
            fam for fam in relations.FAMILIES if fam[0] == "relations"))
        for records, rows in zip((records16[:13], bad), shipped):
            assert [row[:3] for row in rows if row[1][0] == "T"] \
                == [row[:3] for row in decide(records)]

    @pytest.mark.parametrize("case", ["true", "corrupted", "shifted"])
    def test_two_sum_residues_equal_the_chain(self, records16, monkeypatch,
                                              case):
        # with FAMILIES cut to its relations rows no pin decides a T row, so
        # each computes its residue from its pin at its own right-hand side;
        # that residue, 0 or the witness's, and its scaled_by equal the
        # product chain's, on the true records, with Q_2 = z^3 + 5, and
        # with every right-hand side shifted by 1/144
        records = list(records16[:13])
        if case == "corrupted":
            records[2] = type(records16[2])(
                n=2, poly=IntPoly([5, 0, 0, 1]), compressed=(1, 5), x_n=5,
                p_n=0)
        shift = Fraction(case == "shifted", 144)
        monkeypatch.setattr(relations, "FAMILIES", tuple(
            (*fam[:6], lambda n, rhs=fam[6]: (Fraction(rhs(n)[0]) + shift,
                                              rhs(n)[1]))
            for fam in relations.FAMILIES if fam[0] == "relations"))
        failed = 0
        for n in range(1, 13):
            reports = relations.verify_theorem(records, n, mode="exact")
            for fam, rep in zip(relations._families("relations"), reports):
                if fam[2] == "prev" and n == 1:
                    assert rep.status == SKIPPED
                    continue
                residue, scaled_by = _chain(fam, records, n)
                assert "derived_from" not in rep.details
                assert rep.passed == (not residue), (n, fam[1])
                if residue:
                    failed += 1
                    witness, = rep.witnesses
                    assert witness["residue"] == list(map(str,
                                                          residue.coeffs))
                    assert witness["scaled_by"] == scaled_by
        assert failed == {"true": 0, "corrupted": 12, "shifted": 92}[case]

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

    @pytest.mark.parametrize("weights", [(1, 2, 0), (0, 0, 1)])
    def test_pins_follow_their_right_hand_sides(self, records8, monkeypatch,
                                                weights):
        # a run on these records fills their pins; then each right-hand
        # side is shifted by (x cs + y cc + z cs cc) / 144, cs and cc its
        # coefficients of S_p and C_p: with (1, 2, 0) every row is false
        # while each T row's still combines its pins', with (0, 0, 1) only
        # the T rows are false, and their pins hold. No pin of the first
        # run may decide the rerun on these records, and no true pin a
        # false T row.
        for n in range(1, 9):
            for _, verifier in SUITES[:3]:
                assert {r.status for r in verifier(
                    records8, n, mode="exact")} <= {PASS, SKIPPED}
        x, y, z = weights
        shifts = {}

        def shifted(fam):
            *head, cs, cc, rhs = fam
            shift = shifts[fam[1]] = Fraction(x * cs + y * cc + z * cs * cc,
                                              144)
            return (*head, cs, cc,
                    lambda n: (Fraction(rhs(n)[0]) + shift, rhs(n)[1]))

        monkeypatch.setattr(relations, "FAMILIES",
                            tuple(map(shifted, relations.FAMILIES)))
        for n in range(2, 9):
            for _, verifier in SUITES:
                reports = verifier(records8, n, mode="exact")
                assert all(r.status == (FAIL if shifts[r.details["family"]]
                                        else PASS) for r in reports), \
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
        # relations, corollary, kudryashov and poleseries read, per route,
        # one self table per root set or record and one cross table per
        # direction of each consecutive pair: numeric rows and exact
        # residues alike, keyed by (host, other)
        real_get, builds = relations.TABLES.get, Counter()

        def spy(sources, kind, build, *args):
            def counted():
                route = kind[0] if isinstance(kind, tuple) else kind
                if route in ("rows", "residues"):
                    host, other = sources
                    builds[(route, "S" if host is other else "C", id(host),
                            id(other))] += 1
                return build()
            return real_get(sources, kind, counted, *args)

        monkeypatch.setattr(relations.TABLES, "get", spy)
        assert cli.main(["verify", "--n-max", "6", "--mode", "both",
                         "--out", str(tmp_path)]) == 0
        assert set(builds.values()) == {1}
        kinds = Counter(key[:2] for key in builds)
        # S: Q_1..Q_6; C: Q_n over Q_{n-1} for n = 1..6, and Q_{n-1} over
        # Q_n for n = 2..6 (Q_0 hosts nothing)
        assert kinds == {(route, sums): count
                         for route in ("rows", "residues")
                         for sums, count in (("S", 6), ("C", 11))}

    @pytest.mark.parametrize("shift", ["none", "c", "k"])
    def test_bases_judge_as_every_root(self, records16, rootsets12,
                                       monkeypatch, shift):
        # the shipped judge, at one root per orbit, against a reference
        # that visits every root of the host: with the right-hand sides as
        # given; with every c shifted by 10^-25; and with k shifted by
        # 10^-25 in the rows at p = 2 mod 3, where the shift keeps the
        # weight and the deviation, about 10^-25 |w| / max(1, |k w|), moves
        # from orbit to orbit, so the worst must be found among the bases
        eps = Fraction(1, 10 ** 25)
        monkeypatch.setattr(relations, "FAMILIES", tuple(
            (*fam[:6], lambda n, rhs=fam[6], p=fam[3]: (
                Fraction(rhs(n)[0]) + (eps if shift == "c" else 0),
                Fraction(rhs(n)[1])
                + (eps if shift == "k" and p % 3 == 2 else 0)))
            for fam in relations.FAMILIES))
        for n in range(1, 13):
            prec = max(rootsets12[n - 1].precision_bits,
                       rootsets12[n].precision_bits)
            bases = {key: {orbit[0] for orbit in roots._orbits(rs)}
                     for key, rs in (("prev", rootsets12[n - 1]),
                                     ("cur", rootsets12[n]))}
            host_of = {fam[1]: fam[2] for fam in relations.FAMILIES}
            for exponent in (30, 50):
                tol = mp.mpf(10) ** -exponent
                for suite, verifier in SUITES:
                    reports = verifier(records16, n, mode="numeric",
                                       rootsets=rootsets12, tolerance=tol)
                    with mp.workprec(prec):
                        want = _reference(suite, rootsets12, n, tol)
                    assert _statuses(reports) == {
                        name: status for name, (status, _) in want.items()
                    }, (suite, n, exponent)
                    for rep in reports:
                        name = rep.details["family"]
                        assert all(w["root"] in bases[host_of[name]]
                                   for w in rep.witnesses)
                        worst = want[name][1]
                        if shift == "k" and worst and worst > 1e-40:
                            got = mp.mpf(rep.details["deviation"])
                            assert abs(got / worst - 1) < 1e-6

    def test_root_set_out_of_layout_fails(self, records8, rootsets8):
        # Q_7's roots shuffled: still closed as a set, but not in the
        # layout the bases are read from, so no verdict is given from them
        rs = rootsets8[7]
        order = list(range(len(rs.roots)))
        random.Random(0).shuffle(order)
        shuffled = replaced(
            rs, roots=tuple(rs.roots[k] for k in order))
        rootsets = {**rootsets8, 7: shuffled}
        for n in (7, 8):
            for _, verifier in SUITES:
                for rep in verifier(records8, n, mode="numeric",
                                    rootsets=rootsets):
                    assert rep.status == FAIL
                    assert rep.witnesses == [{
                        "family": rep.details["family"], "check": "layout",
                        "roots_n": 7}]

    def test_missing_root_set_is_an_error(self, records8, rootsets8):
        # not summed over as an empty set
        for rootsets in ({5: rootsets8[5]}, None):
            with pytest.raises(ValueError, match="Q_4"):
                relations.verify_corollary(records8, 5, mode="numeric",
                                           rootsets=rootsets)
        with pytest.raises(ValueError, match="Q_5"):
            relations.verify_kudryashov(records8, 5, mode="numeric",
                                        rootsets={4: rootsets8[4]})

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

    def test_every_family_passes_at_20(self):
        # hosts Q_19 and Q_20, of degrees 190 and 210, divide quotient-first
        records = family.generate(20)
        reports = [rep for verifier in (relations.verify_theorem,
                                        relations.verify_corollary,
                                        relations.verify_kudryashov)
                   for rep in verifier(records, 20, mode="exact")]
        assert len(reports) == len(relations.FAMILIES) == 17
        assert {r.status for r in reports} == {PASS}


@pytest.mark.parametrize("n", range(1, 41))
def test_every_right_hand_side_has_the_weight_of_its_sums(n):
    # c + k w at p = 0, 1, 2 mod 3 must turn as S_p and C_p do under
    # z -> omega z, omega^-p, so that _judge may read one root per orbit
    for _, name, _, p, _, _, rhs in relations.FAMILIES:
        c, k = rhs(n)
        assert (k == 0, c == k == 0, c == 0)[p % 3], name
