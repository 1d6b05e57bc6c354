"""Classical q-series building blocks: Euler products, eta quotients,
Pochhammer and Jacobi triple products, and theta functions, on the 1/24 grid.

Every bilateral series here is a Lerch sum with no denominator (c_const = 0)
expanded by lerch.lerch_expand: E(q) from the pentagonal-number series,
every theta series as a Theta, by its triple product sum, and
vartheta_onethird.  A Pochhammer product (a1, ..., ak; Q) is one
QSeries.binomial_chain, multiplied out in place on integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cyclotomic import Cyc24, ONE as CONE, exp_pi_i, zeta_pow
from .errors import GridError
from .lerch import LerchSpec, lerch_expand
from .qseries import QSeries

__all__ = [
    "Monomial",
    "EtaQuotientSpec",
    "euler_E",
    "euler_E_inv",
    "e_product",
    "eta_quotient",
    "pochhammer_inf",
    "pochhammer_fin",
    "jtp_product",
    "theta_sum",
    "theta_Theta",
    "theta3",
    "vartheta_onethird",
]


class Monomial(NamedTuple):
    """A root-of-unity constant times a grid power of q: const * q^(pow/24)."""

    const: Cyc24
    pow: int

    @classmethod
    def make(cls, const, pow=0):
        return cls(const if isinstance(const, Cyc24) else Cyc24(const), pow)

    def inverse(self):
        return Monomial(self.const.inverse(), -self.pow)


# ---------------------------------------------------------------------------
# Euler products

_E_CACHE = {}
_EINV_CACHE = {}


def _grid_mult(m) -> int:
    g = Fraction(m) * 24
    if g.denominator != 1 or g <= 0:
        raise GridError("multiplier %s is not a positive grid multiple" % (m,))
    return int(g)


def euler_E(m, cap) -> QSeries:
    """E(q^m) = prod (1-q^(mn)) via the pentagonal number theorem."""
    g = _grid_mult(m)
    key = g
    cached = _E_CACHE.get(key)
    if cached is None or cached.cap < cap:
        # sum (-1)^n q^(m n(3n-1)/2)
        spec = LerchSpec(A=Fraction(3 * g, 48), B=Fraction(-g, 48), c_const=0)
        cached = lerch_expand(spec, max(cap, 1))
        _E_CACHE[key] = cached
    return cached.truncate(cap)


def euler_E_inv(m, cap) -> QSeries:
    """1/E(q^m), cached (generating function of partitions into parts = 0 mod m)."""
    g = _grid_mult(m)
    cached = _EINV_CACHE.get(g)
    if cached is None or cached.cap < cap:
        cached = euler_E(m, max(cap, 1)).inv()
        _EINV_CACHE[g] = cached
    return cached.truncate(cap)


# ---------------------------------------------------------------------------
# eta quotients


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Finite product prod_i eta(m_i * tau)^(r_i)."""

    factors: tuple  # of (Fraction multiplier, int exponent)

    def __init__(self, factors):
        fs = tuple((Fraction(m), int(r)) for m, r in factors)
        if len({m for m, _ in fs}) != len(fs):
            raise ValueError("duplicate eta multipliers in %r" % (factors,))
        object.__setattr__(self, "factors", fs)

    def prefactor_grid(self) -> int:
        """Grid exponent of the q^(sum m*r/24) prefactor."""
        tot = sum(m * r for m, r in self.factors)
        if tot.denominator != 1:
            raise GridError("eta-quotient prefactor %s/24 off the grid" % tot)
        return int(tot)


def e_product(factors, cap) -> QSeries:
    """prod E(q^m)^r over the (m, r) pairs; eta_quotient adds the
    q^(sum m*r/24) prefactor."""
    out = QSeries.one(cap)
    for m, r in factors:
        f = euler_E(m, cap) if r > 0 else euler_E_inv(m, cap)
        for _ in range(abs(r)):
            out = out * f
    return out


def eta_quotient(spec: EtaQuotientSpec, cap) -> QSeries:
    pre = spec.prefactor_grid()
    return e_product(spec.factors, cap - min(0, pre)).shift(pre).truncate(cap)


# ---------------------------------------------------------------------------
# Pochhammer products with monomial argument


def pochhammer_inf(a, step: int, cap) -> QSeries:
    """(a1, ..., ak; Q)_infinity with Q = q^(step/24), step > 0, for a tuple
    of Monomials or one Monomial.  Every factor exponent is a multiple of
    g = gcd(step, every pow), so all factors are one binomial chain in
    q^(g/24) below ceil(cap/g) (e' < ceil(cap/g) iff e'*g < cap), spread
    back onto the grid.  Factors run past that by the total S of the
    negative exponents, which _chain shifts out."""
    starts = (a,) if isinstance(a, Monomial) else tuple(a)
    if step <= 0:
        raise GridError("pochhammer step must be positive")
    g = gcd(step, *(z.pow for z in starts))
    st, top = step // g, -(-cap // g)
    top_s = top - sum(sum(range(z.pow // g, 0, st)) for z in starts)
    exps = [(z.const, range(z.pow // g, top_s, st)) for z in starts]
    return _chain(exps, top)._stretched(g).truncate(cap)


def pochhammer_fin(a, step: int, n: int, cap) -> QSeries:
    """(a1, ..., ak; Q)_n with Q = q^(step/24), for a tuple of Monomials or
    one Monomial."""
    starts = (a,) if isinstance(a, Monomial) else tuple(a)
    return _chain([(z.const, [z.pow + k * step for k in range(n)]) for z in starts], cap)


def _chain(exps, cap) -> QSeries:
    """prod (1 - c*q^(e/24)) over each (c, es) in exps and e in es, as one
    QSeries.binomial_chain.  A factor with e < 0 is -c*q^e * (1 -
    c^(-1)*q^(-e)) with -c = 1 - (1 + c); the chain runs to cap + S for the
    total S of the -e and is shifted by -S."""
    factors, shift = [], 0
    for c, es in exps:
        neg = [-e for e in es if e < 0]
        factors.append((c, [e for e in es if e >= 0]))
        if neg:
            factors += [(c.inverse(), neg), (CONE + c, [0] * len(neg))]
            shift += sum(neg)
    return QSeries.binomial_chain(factors, cap + shift).shift(-shift)


# ---------------------------------------------------------------------------
# Jacobi triple product and Theta


def jtp_product(z: Monomial, cap):
    """Both sides of (q^2, qz, q/z; q^2)_inf = sum (-1)^n z^n q^(n^2); the
    product is never built from the sum."""
    prod = pochhammer_inf((Monomial(z.const, 24 + z.pow), Monomial(z.const.inverse(), 24 - z.pow)), 48, cap)
    return euler_E(2, cap - min(0, prod.low)) * prod, theta_sum(z, cap)


def theta_sum(z: Monomial, cap) -> QSeries:
    """sum_{n in Z} (-1)^n z^n q^(n^2) = Theta(zq, q^2)."""
    return theta_Theta(Monomial(z.const, z.pow + 24), 2, cap)


def theta_Theta(z: Monomial, m, cap) -> QSeries:
    """Theta(z, Q) = (z; Q)(z^-1 Q; Q)(Q; Q), Q = q^m, by its triple
    product sum: sum_{n in Z} (-1)^n z^n Q^(n(n-1)/2)."""
    a = Fraction(_grid_mult(m), 48)
    return lerch_expand(LerchSpec(A=a, B=-a, rho_const=z.const, rho_qpow=z.pow, c_const=0), cap)


def theta3(cap, m=1) -> QSeries:
    """Theta_3(q^m) = sum_{n in Z} q^(m n^2) = Theta(-q^m, q^(2m))."""
    return theta_Theta(Monomial(-CONE, _grid_mult(m)), 2 * m, cap)


def vartheta_onethird(cap):
    """Both sides of vartheta(1/3, 2*tau) = -sqrt(3) * q^(1/4) * E(q^6).

    The left side is the half-integer theta sum
    sum_{n in 1/2+Z} exp(pi*i*n^2*(2 tau) + 2*pi*i*n*(1/3 + 1/2)); the
    prefactor exp(5*pi*i/6)*(3/2 + i*sqrt(3)/2) of the closed form collapses
    to the exact constant -sqrt(3) = -(2*zeta^2 - zeta^6).
    """
    # with n = k/2 for odd k: sum over odd k of e^(5 pi i k/6) q^(k^2/4)
    spec = LerchSpec(A=Fraction(1, 4), rho_const=exp_pi_i(Fraction(5, 6)), global_sign=1, c_const=0)
    lhs = lerch_expand(spec, cap, residue=(2, 1))
    sqrt3 = 2 * zeta_pow(2) - zeta_pow(6)
    rhs = euler_E(6, cap).scale(-sqrt3).shift(6).truncate(cap)
    return lhs, rhs
