"""Dense univariate polynomial arithmetic over the integers, exact throughout.

Coefficients are plain Python ints (arbitrary precision); ``coeffs[i]`` holds
the coefficient of z**i and the zero polynomial has an empty tuple.
Multiplication switches from schoolbook to Karatsuba above a size threshold;
a product of a polynomial with itself takes a squaring path that forms
about half the leaf products. Polynomials whose support lives in a single
residue class mod 3 (the common case in this project) are multiplied
through their compressed coefficient sequences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

# Leaf products of kbit coefficients are dear, so Karatsuba pays from few
# terms on: 4 and 8 tied best on generate(36) in a sweep over 4, 8, 16, 32.
KARATSUBA_THRESHOLD = 8


class NonZeroRemainder(ArithmeticError):
    """Exact division left a nonzero remainder."""


class NonIntegerQuotient(ArithmeticError):
    """Exact division would require a non-integer coefficient."""


class ZeroConstantTerm(ValueError):
    """Operation requires a nonzero constant term."""


class UnexpectedCommonFactor(Exception):
    """Coprimality of two polynomials that must be coprime could not be
    certified: integrity failure. `gcd_degree` is the degree of their gcd
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


def _karatsuba_join(z0: list, z1: list, z2: list, h: int, length: int) -> list:
    """a0 b0 + z**h (a0 b1 + a1 b0) + z**(2h) a1 b1 from the three products
    z0 = a0 b0, z1 = (a0 + a1)(b0 + b1), z2 = a1 b1."""
    for i, c in enumerate(z0):
        z1[i] -= c
    for i, c in enumerate(z2):
        z1[i] -= c
    out = [0] * length
    for i, c in enumerate(z0):
        out[i] += c
    for i, c in enumerate(z1):
        if c:
            out[i + h] += c
    for i, c in enumerate(z2):
        if c:
            out[i + 2 * h] += c
    return out


def _mul_seq(a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    if min(len(a), len(b)) <= KARATSUBA_THRESHOLD:
        return _school_mul(a, b)
    h = min(len(a), len(b)) // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    return _karatsuba_join(_mul_seq(a0, b0),
                           _mul_seq(_add_seq(a0, a1), _add_seq(b0, b1)),
                           _mul_seq(a1, b1), h, len(a) + len(b) - 1)


def _sqr_seq(a: Sequence[int]) -> list:
    """_mul_seq(a, a) by three half-size squarings."""
    if not a:
        return []
    if len(a) <= KARATSUBA_THRESHOLD:
        return _school_sqr(a)
    h = len(a) // 2
    a0, a1 = a[:h], a[h:]
    return _karatsuba_join(_sqr_seq(a0), _sqr_seq(_add_seq(a0, a1)),
                           _sqr_seq(a1), h, 2 * len(a) - 1)


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

    def __hash__(self):
        return hash(self.coeffs)

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
        square = self is other
        ra, rb = _stride3_class(a), _stride3_class(b)
        if ra is not None and rb is not None and (len(a) > 6 or len(b) > 6):
            prod = (_sqr_seq(a[ra::3]) if square
                    else _mul_seq(a[ra::3], b[rb::3]))
            out = [0] * (len(a) + len(b) - 1)
            base = ra + rb
            for i, c in enumerate(prod):
                if c:
                    out[base + 3 * i] = c
            return IntPoly(out)
        return IntPoly(_sqr_seq(a) if square else _mul_seq(a, b))

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
        if not self:
            return IntPoly()
        if self.degree < den.degree:
            raise NonZeroRemainder(f"degree {self.degree} < {den.degree}")
        rem = list(self.coeffs)
        dc = den.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        support = [(k, c) for k, c in enumerate(dc) if c and k < dd]
        q = [0] * (len(rem) - dd)
        for i in range(len(q) - 1, -1, -1):
            c = rem[i + dd]
            if not c:
                continue
            qi, r = divmod(c, lead)
            if r:
                raise NonIntegerQuotient(
                    f"coefficient {c} not divisible by leading {lead}")
            q[i] = qi
            rem[i + dd] = 0
            for k, dk in support:
                rem[i + k] -= qi * dk
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
    JACM 1971).
    """
    p = (1 << 61) - 1
    if den.leading % p == 0:
        raise UnexpectedCommonFactor(f"{what}: {p} divides the leading "
                                     "coefficient, no certificate")
    a, b = [c % p for c in den.coeffs], [c % p for c in num.coeffs]
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
    if len(a) > 1:
        raise UnexpectedCommonFactor(
            f"{what}: gcd mod {p} has degree {len(a) - 1}", len(a) - 1)


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
