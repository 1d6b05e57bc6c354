"""Exact arithmetic in Q(zeta_24) on the power basis mod Phi_24(x) = x^8 - x^4 + 1.

The single field element type `Cyc24` is the coefficient domain for every
formal series in the package: it contains i = z^6, zeta_3 = z^8, sqrt(3)
= 2*z^2 - z^6 and all 24th roots of unity, which covers every constant
that shows up in the identities we verify.

An element is (n0 + n1*z + ... + n7*z^7)/den, eight integer numerators
over one positive denominator with gcd 1, the normal form of a QSeries
component.  +, -, * and == are integer operations and one gcd; `inverse`
runs the extended Euclidean algorithm on integer polynomials.  `c` views
the coefficients as Fractions.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

__all__ = ["Cyc24", "zeta_pow", "exp_pi_i", "ZERO", "ONE"]

_Z7 = (0,) * 7

# x^e reduced mod x^8 - x^4 + 1, for e = 0..14: list of (index, sign)
_REDUCE = {}
for _e in range(15):
    if _e < 8:
        _REDUCE[_e] = ((_e, 1),)
    elif _e < 12:
        # x^e = x^(e-4) - x^(e-8)
        _REDUCE[_e] = ((_e - 4, 1), (_e - 8, -1))
    else:
        # x^12 = -1
        _REDUCE[_e] = ((_e - 12, -1),)


def _ratstr(n, d):
    """str(Fraction(n, d)) for an integer n and a positive integer d."""
    g = gcd(n, d)
    return str(n // g) if g == d else "%d/%d" % (n // g, d // g)


class Cyc24:
    """(n0 + n1*z + ... + n7*z^7)/den with z = exp(2*pi*i/24): the integer
    numerators `num` over the positive denominator `den`, gcd-normalised."""

    __slots__ = ("den", "num")

    def __init__(self, coeffs=0, den=1):
        """coeffs/den: coeffs is a Cyc24, a rational, or the eight rational
        coefficients of 1, z, ..., z^7, and den a nonzero integer."""
        if isinstance(coeffs, Cyc24):
            coeffs, den = coeffs.num, coeffs.den * den
        if isinstance(coeffs, (int, Fraction)):
            nums = (coeffs,) + _Z7
        else:
            nums = tuple(coeffs)
            if len(nums) != 8:
                raise ValueError("Cyc24 needs exactly 8 coefficients")
        if not den:
            raise ZeroDivisionError("Cyc24 with denominator 0")
        try:
            g = gcd(den, *nums)
        except TypeError:  # rational coefficients: one common denominator
            fs = [Fraction(x) for x in nums]
            d = lcm(*(f.denominator for f in fs))
            nums = tuple(f.numerator * (d // f.denominator) for f in fs)
            den *= d
            g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
        self.den, self.num = den, nums

    @property
    def c(self):
        """The eight coefficients as Fractions (a read-only view)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- ring structure -------------------------------------------------

    def _plus(self, o, sign):
        """self + sign*o for sign = +-1, over the lcm of the denominators."""
        g = gcd(self.den, o.den)
        ma, mb = o.den // g, sign * (self.den // g)
        return Cyc24([ma * x + mb * y for x, y in zip(self.num, o.num)], self.den * ma)

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o._plus(self, -1)

    def __neg__(self):
        return Cyc24([-x for x in self.num], self.den)

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = [0] * 15
        nzb = [(j, y) for j, y in enumerate(o.num) if y]
        for i, x in enumerate(self.num):
            if x:
                for j, y in nzb:
                    p[i + j] += x * y
        for e in range(14, 7, -1):  # x^e = x^(e-4) - x^(e-8)
            if p[e]:
                p[e - 4] += p[e]
                p[e - 8] -= p[e]
        return Cyc24(p[:8], self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc24":
        """Extended Euclid against Phi_24 on integer polynomials: each step
        cancels r0's leading term with r1, keeping r = s*num mod Phi_24 for
        both pairs, and divides the content out once per division.  Phi_24
        is irreducible, so r1 ends as a constant, and self^-1 = den*s1/r1."""
        if not self:
            raise ZeroDivisionError("inverse of zero Cyc24 element")
        r0, r1 = [1, 0, 0, 0, -1, 0, 0, 0, 1], _trim(list(self.num))
        s0, s1 = [0] * 16, [1] + [0] * 15
        while len(r1) > 1:
            while len(r0) >= len(r1):
                sh, a, b = len(r0) - len(r1), r1[-1], r0[-1]
                r0 = _trim([a * x - b * y for x, y in zip(r0, [0] * sh + r1)])
                s0 = [a * x - b * y for x, y in zip(s0, [0] * sh + s1)]
            g = gcd(*r0, *s0)
            r0, r1 = r1, [x // g for x in r0]
            s0, s1 = s1, [x // g for x in s0]
        return Cyc24([self.den * x for x in s1[:8]], r1[0])

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure maps --------------------------------------------------

    def conjugate(self) -> "Cyc24":
        """Complex conjugation, the Galois map z -> z^-1."""
        out = sum((cj * zeta_pow(-j) for j, cj in enumerate(self.num) if cj), ZERO)
        return Cyc24(out, self.den)

    def to_complex(self) -> complex:
        return sum(
            cj / self.den * cmath.exp(2j * cmath.pi * j / 24)
            for j, cj in enumerate(self.num)
            if cj
        ) + 0j

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational: %s" % (self,))
        return Fraction(self.num[0], self.den)

    # -- misc -------------------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        return "Cyc24(%s)" % (self.to_text(),)

    def to_text(self) -> str:
        """Lossless rendering "c0 + c1*z + ... + c7*z^7" with rationals p/q."""
        return " + ".join(
            s if k == 0 else "%s*z" % s if k == 1 else "%s*z^%d" % (s, k)
            for k, s in enumerate(_ratstr(x, self.den) for x in self.num)
        )

    @classmethod
    def from_text(cls, text: str) -> "Cyc24":
        out = [0] * 8
        for part in text.split(" + "):
            part = part.strip()
            if "*z" in part:
                coef, _, tail = part.partition("*z")
                k = int(tail[1:]) if tail.startswith("^") else 1
            else:
                coef, k = part, 0
            out[k] = Fraction(coef)
        return cls(out)


def _coerce(x):
    if isinstance(x, Cyc24):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc24(x)
    return NotImplemented


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


ZERO = Cyc24(0)
ONE = Cyc24(1)

_ZETA_CACHE = {}


def zeta_pow(k: int) -> Cyc24:
    """zeta_24^k as an exact element."""
    k %= 24
    if k not in _ZETA_CACHE:
        if k < 12:
            coeffs = [0] * 8
            for j, s in _REDUCE[k]:
                coeffs[j] = s
            val = Cyc24(coeffs)
        else:
            val = -zeta_pow(k - 12)
        _ZETA_CACHE[k] = val
    return _ZETA_CACHE[k]


def exp_pi_i(r) -> Cyc24:
    """exp(pi*i*r) for rational r with 12*r integral."""
    r = Fraction(r)
    k = r * 12
    if k.denominator != 1:
        raise ValueError("exp(pi*i*%s) is not a 24th root of unity" % r)
    return zeta_pow(int(k))
