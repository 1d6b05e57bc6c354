"""3-dissection machinery: the e0/e1/e2 eta-quotients, the residue-class
Y-sums of the central bilateral sum, the six dissection relations tying them
to omega(-q), and the assembly of the new omega identity from those pieces.

Several records read `e_quotients`, `Y_components` and `omega_minus_q` at
one cap, so each is built once per cap into a bounded `lru_cache`; their
series are shared, never mutated, and `Y_components` is read-only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .cyclotomic import Cyc24, zeta_pow
from .etatheta import EtaQuotientSpec, e_product, euler_E, euler_E_inv
from .lerch import LerchSpec, lerch_expand
from .mocktheta import omega_watson
from .qseries import QSeries

__all__ = [
    "Y_SPEC",
    "e_quotients",
    "eta3diss_sides",
    "Y_sums",
    "Y_components",
    "omega_minus_q",
    "omega_minus_q_direct",
    "mudiss_sides",
    "zeta_bracket_sides",
    "newomega_assembly_constant",
]

# -2i/sqrt(3), the constant of the NEWOMEGA and NEWOMEGA2 right sides
MINUS_2I_OVER_SQRT3 = (Cyc24(2) - 4 * zeta_pow(4)) * Cyc24(Fraction(1, 3))
# E(q)^2 E(q^4)^2/(E(q^2)^2 E(q^6)), the eta quotient of the NEWOMEGA right side
NEWOMEGA_ETA = EtaQuotientSpec([(1, 2), (4, 2), (2, -2), (6, -1)])

# the inner sum of mu(tau+1/2, 1/3; 2*tau) splits over n mod 3 as
# Y_0 + zeta3*Y_1 + zeta3^2*Y_2 with this common summand shape
Y_SPEC = LerchSpec(A=Fraction(1), B=Fraction(1), c_const=-1, D=Fraction(2), E=Fraction(1))


@lru_cache(maxsize=2)
def e_quotients(cap):
    """(e0, e1, e2), the closed-form components of the 3-dissection of
    E(q)^2 E(q^4)^2 / (E(q^2)^2 E(q^6))."""
    e0 = e_product([(6, 10), (4, 2), (1, 2), (12, -4), (3, -4), (2, -5)], cap)
    e1 = e_product([(6, 4), (4, 1), (1, 1), (12, -1), (3, -1), (2, -3)], cap)
    e2 = e_product([(12, 2), (3, 2), (6, -2), (2, -1)], cap)
    return e0, e1, e2


def eta3diss_sides(cap):
    """LHS E(q)^2 E(q^4)^2/(E(q^2)^2 E(q^6)) and its dissected RHS
    e0(q^3) - 2q e1(q^3) + q^2 e2(q^3)."""
    lhs = e_product(NEWOMEGA_ETA.factors, cap)
    e0, e1, e2 = e_quotients(cap)
    rhs = (
        e0.compose_power(3).truncate(cap)
        - e1.compose_power(3).truncate(cap).shift(24).scale(2).truncate(cap)
        + e2.compose_power(3).truncate(cap).shift(48).truncate(cap)
    )
    return lhs, rhs


def Y_sums(cap):
    """(Y_0, Y_1, Y_2): the n = j mod 3 pieces of
    sum (-1)^n q^(n^2+n)/(1+q^(2n+1))."""
    return tuple(lerch_expand(Y_SPEC, cap, residue=(3, j)) for j in range(3))


@lru_cache(maxsize=2)
def Y_components(cap):
    """Read-only (j, k) -> Y_jk with Y_j(q) = sum_k q^k Y_jk(q^3), each exact to cap."""
    ys = Y_sums(3 * cap + 72)
    return MappingProxyType(
        {(j, k): ys[j].dissect(3, k).truncate(cap) for j in range(3) for k in range(3)}
    )


@lru_cache(maxsize=2)
def omega_minus_q(cap) -> QSeries:
    """omega(-q) as the parity sign-twist of the Watson form."""
    return omega_watson(cap).twist_minus_q()


def omega_minus_q_direct(cap) -> QSeries:
    """omega(-q) built directly: (1/E(q^2)) sum (-1)^n q^(3n(n+1))/(1+q^(2n+1)).

    Independent route from omega_minus_q; the two must agree.
    """
    spec = LerchSpec(A=Fraction(3), B=Fraction(3), c_const=-1, D=Fraction(2), E=Fraction(1))
    return (lerch_expand(spec, cap) * euler_E_inv(2, cap)).truncate(cap)


def mudiss_sides(part: str, cap):
    """The six dissection relations, as a list of (lhs, rhs) series pairs.

    parts: "i"   Y_0 - Y_2 = E(q^6)
           "ii"  2*Y_00 - E(q^2) = e_0 E(q^2)
           "iii" Y_01 = -e_1 E(q^2)
           "iv"  Y_10 = Y_11 = 0
           "v"   Y_12 = -omega(-q) E(q^2)
           "vi"  2*Y_02 = (omega(-q) + e_2) E(q^2)
    """
    if part == "i":
        y0, _, y2 = Y_sums(cap)
        return [(y0 - y2, euler_E(6, cap))]
    yk = Y_components(cap)
    e0, e1, e2 = e_quotients(cap)
    E2 = euler_E(2, cap)
    if part == "ii":
        return [(yk[(0, 0)].scale(2) - E2, (e0 * E2).truncate(cap))]
    if part == "iii":
        return [(yk[(0, 1)], (-(e1 * E2)).truncate(cap))]
    if part == "iv":
        z = QSeries.zero(cap)
        return [(yk[(1, 0)], z), (yk[(1, 1)], z)]
    w = omega_minus_q(cap)
    if part == "v":
        return [(yk[(1, 2)], (-(w * E2)).truncate(cap))]
    if part == "vi":
        return [(yk[(0, 2)].scale(2), ((w + e2) * E2).truncate(cap))]
    raise ValueError("unknown dissection part %r" % part)


def zeta_bracket_sides(cap):
    """The zeta3-weighted recombination of the Y-sums against its closed form:

    Y_0 + z Y_1 + z^2 Y_2 = (E(q^6)/2) [ (1+z^2) e_0(q^3) + (1-z^2)
        - 2q (1+z^2) e_1(q^3) + q^2 (1+z^2) e_2(q^3) - 3 q^2 z omega(-q^3) ],
    with z = zeta3.
    """
    z = zeta_pow(8)
    z2 = z * z
    y0, y1, y2 = Y_sums(cap)
    lhs = y0 + y1.scale(z) + y2.scale(z2)
    e0, e1, e2 = e_quotients(cap)
    w3 = omega_minus_q(cap).compose_power(3).truncate(cap)
    one_plus = Cyc24(1) + z2
    br = (
        e0.compose_power(3).truncate(cap).scale(one_plus)
        + QSeries.one(cap).scale(Cyc24(1) - z2)
        - e1.compose_power(3).truncate(cap).shift(24).scale(2 * one_plus).truncate(cap)
        + e2.compose_power(3).truncate(cap).shift(48).scale(one_plus).truncate(cap)
        - w3.shift(48).scale(3 * z).truncate(cap)
    )
    rhs = (euler_E(6, cap) * br).scale(Fraction(1, 2)).truncate(cap)
    return lhs, rhs


def newomega_assembly_constant() -> Cyc24:
    """The exact constant cancellation behind the assembly:
    -2i/sqrt(3) + (2/3)(1 + 2*zeta3) = 0; returns the (zero) residual."""
    return MINUS_2I_OVER_SQRT3 + (Cyc24(1) + 2 * zeta_pow(8)) * Cyc24(Fraction(2, 3))
