"""Dense univariate polynomial arithmetic over the integers, exact throughout.

Coefficients are plain Python ints (arbitrary precision); ``coeffs[i]`` holds
the coefficient of z**i and the zero polynomial has an empty tuple.
Multiplication switches from schoolbook to Toom-3 above a size threshold,
splitting each sequence into its entries at each residue mod 3, and forms
five third-size products where schoolbook forms nine; a product of a
polynomial with itself takes a squaring path that forms about half the leaf
products. Polynomials whose support lives in a single residue class mod 3
(the common case in this project) are multiplied through their compressed
coefficient sequences. One routine, `_divmod_seq`, divides by a polynomial:
`IntPoly.exact_div` uses its quotient and `quotient.QuotientContext.reduce`
its remainder. Above a size cutoff it forms the quotient first and the
remainder by one product.

The family's coefficients ramp: those of Q_36 run from 1 bit at the leading
term to about 2,200 bits at the constant one, 1,800 in generation's scaled
form. Both kernels keep the big-integer products small on such a ramp.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from fractions import Fraction

# Leaf products of kbit coefficients are dear, so Toom-3 pays from few
# terms on. Sweep, medians of 8 interleaved in-process rounds at leaf sizes
# 6/9/12/18/24: generate(36) took 0.391/0.382/0.367/0.383/0.419 s, and
# pII_residual for n = 0..16 (coefficients up to 353 bits)
# 0.073/0.065/0.065/0.064/0.064 s.
TOOM_THRESHOLD = 12

# Nonzero lower divisor terms (the tail of _divisor) above which _divmod_seq
# forms the quotient first. Time quotient-first / loop, medians of 9
# interleaved rounds, best of 3 each: the exact relations' reductions by the
# z-form hosts Q_17..Q_22 (tails 51/57/62/70/77/83) 1.06/0.98/0.95/0.86/
# 0.83/0.81, generate(36)'s divisions at tails 51/57/62/70/77/83/100/197
# 1.39/1.29/1.21/1.12/1.03/0.99/0.89/0.58. The hosts, where the relation
# route spends its time, cross over between 51 and 57; generation's tails
# 57..77 then cost it 0.9 ms.
DIVISION_CUTOFF = 54


class IntegrityError(Exception):
    """A proven property failed computationally."""


class NonZeroRemainder(IntegrityError):
    """Exact division left a nonzero remainder."""


class NonIntegerQuotient(IntegrityError):
    """Exact division would require a non-integer coefficient."""


class ZeroConstantTerm(ValueError):
    """Operation requires a nonzero constant term."""


class UnexpectedCommonFactor(IntegrityError):
    """Coprimality of two polynomials that must be coprime could not be
    certified. `gcd_degree` is the degree of their gcd
    mod p, an upper bound on the degree of the true gcd (None when no
    certificate could be formed)."""

    def __init__(self, message, gcd_degree=None):
        super().__init__(message)
        self.gcd_degree = gcd_degree


def _trim(coeffs: list) -> list:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


def _add_seq(a: Sequence[int], b: Sequence[int]) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _school_mul(a: Sequence[int], b: Sequence[int]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _school_sqr(a: Sequence[int]) -> list:
    """a * a forming each cross term a_i a_j (i < j) once, then doubling."""
    out = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, aj in enumerate(a[i + 1:], i + 1):
            if aj:
                out[i + j] += ai * aj
    out = [c << 1 for c in out]
    for i, ai in enumerate(a):
        out[2 * i] += ai * ai
    return out


def _points(a: Sequence[int]):
    """The stride-3 parts of a = a0(y^3) + y a1(y^3) + y^2 a2(y^3), as the
    polynomial a0 + t a1 + t^2 a2 in t, evaluated at t = 0, 1, -1, -2 and
    infinity, each as long as a0. The values at 1 and -1 are one list,
    rewritten in place, so each value must be used before the next is
    drawn, and only one point's sums are held at a time."""
    a0, a1, a2 = a[0::3], a[1::3], a[2::3]
    yield a0
    p = _add_seq(_add_seq(a0, a2), a1)
    yield p
    for i, c in enumerate(a1):
        p[i] -= c << 1
    yield p
    for i, c in enumerate(a2):
        p[i] += c
    p = [(c << 1) - d for c, d in zip(p, a0)]  # 2 (a(-1) + a2) - a0
    yield p
    del p
    yield a2


def _toom_join(r0: list, r1: list, rm1: list, rm2: list, rinf: list,
               length: int) -> list:
    """a b from the five products r(t) = a(t) b(t) of the stride-3 parts at
    t = 0, 1, -1, -2 and infinity. Bodrato's sequence (one exact division by
    3, two exact halvings) recovers r = c0 + c1 t + ... + c4 t^4 entry by
    entry, and t^3 = y^3 moves c3 and c4 one entry up onto c0 and c1. The
    results overwrite r0, r1 and rm1 as they are read, so the join holds
    no second copy of the product."""
    c3 = c4 = 0
    for i, (x0, x1, xm1, xm2, x4) in enumerate(zip(
            r0, r1, rm1, rm2, rinf + [0] * (len(r0) - len(rinf)))):
        c2 = xm1 - x0
        c1 = (x1 - xm1) >> 1
        r0[i] = x0 + c3
        c3 = ((c2 - (xm2 - x1) // 3) >> 1) + (x4 << 1)
        r1[i] = c1 - c3 + c4
        rm1[i] = c2 + c1 - x4
        c4 = x4
    r0.append(c3)
    r1.append(c4)
    out = [0] * length  # entries past it are zero
    out[0::3] = r0[:(length + 2) // 3]
    out[1::3] = r1[:(length + 1) // 3]
    out[2::3] = rm1[:length // 3]
    return out


def _mul_seq(a: Sequence[int], b: Sequence[int]) -> list:
    """a * b by Toom-3 on the stride-3 split. On a coefficient ramp every
    part spans the whole ramp, so the evaluated sums stay the size of their
    parts; low/middle/high thirds would add the small parts to the big one
    and make every evaluated product as dear as the big one."""
    if not a or not b:
        return []
    if min(len(a), len(b)) <= TOOM_THRESHOLD:
        return _school_mul(a, b)
    return _toom_join(*[_mul_seq(p, q) for p, q in zip(_points(a), _points(b))],
                      len(a) + len(b) - 1)


def _sqr_seq(a: Sequence[int]) -> list:
    """_mul_seq(a, a) by five third-size squarings."""
    if not a:
        return []
    if len(a) <= TOOM_THRESHOLD:
        return _school_sqr(a)
    return _toom_join(*[_sqr_seq(p) for p in _points(a)], 2 * len(a) - 1)


def _stride3_class(coeffs: Sequence[int]):
    """Residue class mod 3 of the support, or None if mixed."""
    cls = -1
    for i, c in enumerate(coeffs):
        if c:
            r = i % 3
            if cls == -1:
                cls = r
            elif cls != r:
                return None
    return cls if cls != -1 else None


def _product(a: Sequence[int], b: Sequence[int], square: bool = False) -> list:
    """a * b of nonempty sequences (a * a when square), through the
    compressed sequences when both supports lie in one residue class mod 3."""
    ra, rb = _stride3_class(a), _stride3_class(b)
    if ra is None or rb is None or (len(a) <= 6 and len(b) <= 6):
        return _sqr_seq(a) if square else _mul_seq(a, b)
    prod = _sqr_seq(a[ra::3]) if square else _mul_seq(a[ra::3], b[rb::3])
    out = [0] * (len(a) + len(b) - 1)
    base = ra + rb
    for i, c in enumerate(prod):
        if c:
            out[base + 3 * i] = c
    return out


def _divisor(den: Sequence[int]) -> tuple:
    """The form _divmod_seq divides by: degree, leading coefficient (nonzero),
    the nonzero lower terms (k, den[k]) and den itself."""
    dd = len(den) - 1
    return dd, den[dd], [(k, c) for k, c in enumerate(den[:dd]) if c], den


def _divmod_seq(num: Sequence[int], divisor: tuple) -> tuple:
    """Quotient and remainder lists of num by a _divisor, top-down, one
    leading term at a time. Raises NonIntegerQuotient when a quotient
    coefficient is not an integer; a monic divisor never does.

    Above DIVISION_CUTOFF lower terms of den, the loop updates only the
    entries from deg(den) up, the ones later quotient coefficients read,
    and the remainder is num - q den by one Toom-3 product. The entries
    it skips pair the low coefficients of q and den, the largest here.
    """
    dd, lead, tail, den = divisor
    rem = list(num)
    if len(rem) <= dd:
        return [], rem
    quotient_first = len(tail) > DIVISION_CUTOFF
    q = [0] * (len(rem) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + dd]
        if not c:
            continue
        if lead != 1:
            c, r = divmod(c, lead)
            if r:
                raise NonIntegerQuotient(
                    f"coefficient {rem[i + dd]} not divisible by leading {lead}")
        q[i] = c
        for k, dk in (tail[bisect_left(tail, (dd - i,)):] if quotient_first
                      else tail):
            rem[i + k] -= c * dk
    if quotient_first:
        return q, [x - y for x, y in zip(num[:dd], _product(q, den))]
    del rem[dd:]  # every entry from dd up has been divided out
    return q, rem


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = tuple(_trim(list(coeffs)))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def z(cls) -> "IntPoly":
        return cls((0, 1))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):  # a constant hashes as the int it equals
        if self.degree:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_add_seq(self.coeffs, other.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        return IntPoly(_product(a, b, self is other))

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def exact_div(self, den: "IntPoly") -> "IntPoly":
        """Exact quotient self / den over the integers.

        Raises NonIntegerQuotient or NonZeroRemainder when self is not an
        exact integer-polynomial multiple of den; these signal integrity
        failures upstream, never recoverable rounding.
        """
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        q, rem = _divmod_seq(self.coeffs, _divisor(den.coeffs))
        if any(rem):
            raise NonZeroRemainder("nonzero remainder in exact division")
        return IntPoly(q)

    def reverse_nonzero(self) -> "IntPoly":
        """Reverse the coefficient sequence; roots become reciprocals."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroConstantTerm("constant term must be nonzero")
        return IntPoly(list(reversed(self.coeffs)))


def certify_coprime(num: IntPoly, den: IntPoly, what: str) -> None:
    """Prove gcd(num, den) = 1 over Q, or raise UnexpectedCommonFactor.

    Euclid over GF(p), p = 2**61 - 1. Sound only if p does not divide den's
    leading coefficient, which is checked: a common factor over Q then keeps
    its degree mod p, so a constant gcd mod p proves there is none (Brown,
    JACM 1971). For num = z^o F(z^3), den = z^o' G(z^3) it runs on F and G:
    the gcd has degree min(o, o') + 3 deg gcd(F, G).
    """
    p = (1 << 61) - 1
    if den.leading % p == 0:
        raise UnexpectedCommonFactor(f"{what}: {p} divides the leading "
                                     "coefficient, no certificate")
    a, b, shared, stride = den.coeffs, num.coeffs, 0, 1
    if _stride3_class(a) is not None and _stride3_class(b) is not None:
        oa, ob = (next(i for i, c in enumerate(x) if c) for x in (a, b))
        a, b, shared, stride = a[oa::3], b[ob::3], min(oa, ob), 3
    a, b = [c % p for c in a], [c % p for c in b]
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            q, s = a[-1] * inv % p, len(a) - len(b)
            for k, bk in enumerate(b):
                a[s + k] = (a[s + k] - q * bk) % p
            a.pop()
        a, b = b, a
    degree = shared + stride * (len(a) - 1)
    if degree:
        raise UnexpectedCommonFactor(
            f"{what}: gcd mod {p} has degree {degree}", degree)


def newton_power_sums(a: IntPoly, max_m: int) -> list:
    """Power sums p_1..p_max_m of the roots of a, exact rationals.

    Newton's identities on the monic normalization; entries are summed with
    multiplicity over all roots. Zero coefficients of a and zero sums enter
    no product: for a polynomial in z**3, about one product in nine is made.
    """
    if not a or a.degree < 1:
        raise ValueError("need degree >= 1")
    d, lead = a.degree, a.coeffs[-1]
    # {i: (-1)^(i-1) e_i} for the nonzero elementary symmetric functions e_i
    e = {i: Fraction(-a.coeffs[d - i], lead)
         for i in range(1, min(d, max_m) + 1) if a.coeffs[d - i]}
    p = [Fraction(0)] * (max_m + 1)
    for k in range(1, max_m + 1):
        p[k] = k * e.get(k, 0) + sum(
            (s * p[k - i] for i, s in e.items() if i < k and p[k - i]),
            Fraction(0))
    return p[1:]
