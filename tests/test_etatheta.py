from fractions import Fraction

import pytest

from mockq.cyclotomic import Cyc24, zeta_pow
from mockq.errors import GridError
from mockq.etatheta import (
    EtaQuotientSpec,
    Monomial,
    e_product,
    eta_quotient,
    euler_E,
    euler_E_inv,
    jtp_product,
    pochhammer_fin,
    pochhammer_inf,
    theta3,
    theta_Theta,
    theta_sum,
    vartheta_onethird,
)
from mockq.qseries import QSeries
from oracles import euler_E_product


def delta_triangular(cap) -> QSeries:
    """Delta(q) = sum_{n>=0} q^(n(n+1)/2)."""
    terms = []
    n = 0
    while 12 * n * (n + 1) < cap:
        terms.append((12 * n * (n + 1), 1))
        n += 1
    return QSeries.from_terms(terms, cap)


def delta_P0_P1(cap):
    """(Delta, P0, P1) with Delta(q) = P0(q^3) + q*P1(q^3)."""
    delta = delta_triangular(cap)
    p0 = euler_E(2, cap) * euler_E(3, cap) * euler_E(3, cap)
    p0 = p0 * euler_E_inv(6, p0.cap) * euler_E_inv(1, p0.cap)
    p1 = euler_E(6, cap) * euler_E(6, cap) * euler_E_inv(3, cap)
    return delta, p0.truncate(cap), p1.truncate(cap)


def phi_theta_product(cap) -> QSeries:
    """E(q)^2 / E(q^2), the product form of phi."""
    out = euler_E(1, cap) * euler_E(1, cap)
    return (out * euler_E_inv(2, out.cap)).truncate(cap)


def assert_eq(a, b, order=None):
    if order is None:
        order = (min(a.cap, b.cap) - 1) // 24
    ok, wit = a.eq_to(b, order)
    assert ok, wit


def test_pentagonal_matches_literal_product():
    for m in (1, 2, 3, Fraction(3, 2)):
        cap = 600
        assert_eq(euler_E(m, cap), euler_E_product(m, cap))


def test_euler_inv():
    cap = 400
    assert_eq(euler_E(1, cap) * euler_E_inv(1, cap), QSeries.one(cap))


def test_partition_counts():
    # 1/E(q) generates p(n): p(0..9) = 1,1,2,3,5,7,11,15,22,30
    inv = euler_E_inv(1, 24 * 10 + 1)
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, p in enumerate(want):
        assert inv.coeff(24 * n) == Cyc24(p)


def test_eta_quotient_prefactor_and_text():
    spec = EtaQuotientSpec([(3, 4), (1, -1), (6, -2)])
    assert spec.prefactor_grid() == -1
    s = eta_quotient(spec, 100)
    assert s.low == -1
    assert EtaQuotientSpec([(1, 2), (4, 2), (2, -2), (6, -1)]).prefactor_grid() == 0
    with pytest.raises(ValueError):
        EtaQuotientSpec([(1, 1), (1, 2)])
    with pytest.raises(GridError):
        EtaQuotientSpec([(Fraction(1, 5), 1)]).prefactor_grid()


def test_pochhammer_inf_zero_factor():
    # (1; q)_inf has the factor (1 - 1) = 0
    z = pochhammer_inf(Monomial(Cyc24(1), 0), 24, 50)
    assert z.is_zero()


def test_pochhammer_negative_exponent_normalization():
    # (c q^-1; q)_inf = -c q^-1 (1 - c^-1 q) * (c; q)_inf
    c = zeta_pow(5)
    cap = 120
    a = pochhammer_inf(Monomial(c, -24), 24, cap)
    b = (
        pochhammer_inf(Monomial(c, 0), 24, cap + 24)
        .mul_binomial(c.inverse(), 24)
        .scale(-c)
        .shift(-24)
    )
    assert_eq(a, b, 3)


def test_pochhammer_fin_matches_manual():
    c = Cyc24(-1)
    got = pochhammer_fin(Monomial(c, 24), 24, 3, 200)
    want = (
        QSeries.one(200)
        .mul_binomial(c, 24)
        .mul_binomial(c, 48)
        .mul_binomial(c, 72)
    )
    assert_eq(got, want)


@pytest.mark.parametrize(
    "z",
    [
        Monomial(Cyc24(1), 24),
        Monomial(Cyc24(-1), 24),
        Monomial(zeta_pow(8), 12),
        Monomial(zeta_pow(6), 0),
        Monomial(Cyc24(-1), -24),
    ],
)
def test_jtp(z):
    lhs, rhs = jtp_product(z, 24 * 40)
    assert_eq(lhs, rhs, 35)


def test_theta3_is_jtp_at_z_minus_one():
    # Theta_3(q) = sum q^(n^2) = (q^2; q^2)(-q; q^2)^2 via JTP at z = -1
    cap = 24 * 50
    lhs = theta3(cap)
    rhs = euler_E(2, cap)
    rhs = rhs * pochhammer_inf(Monomial(Cyc24(-1), 24), 48, rhs.cap)
    rhs = rhs * pochhammer_inf(Monomial(Cyc24(-1), 24), 48, rhs.cap)
    assert_eq(lhs, rhs, 45)


def test_theta_Theta_z_q_is_vanishing_free_quotient():
    # Theta(q; q^2) = E(q)^2/E(q^2) * ... sanity: it is E(q^2)(q;q^2)^2 * (1-1/q...)
    s = theta_Theta(Monomial(Cyc24(1), 24), 2, 24 * 20)
    assert not s.is_zero()


def test_triangular_3_dissection():
    # Delta(q) = P0(q^3) + q P1(q^3)
    cap = 24 * 60
    delta, p0, p1 = delta_P0_P1(cap)
    rhs = p0.compose_power(3).truncate(cap) + p1.compose_power(3).shift(24).truncate(cap)
    assert_eq(delta, rhs, 55)


def test_psi_and_phi_product_forms():
    cap = 24 * 80
    # psi(q) = (q^2;q^2)_inf / (q;q^2)_inf = E(q^2)^2 / E(q)
    assert_eq(delta_triangular(cap), e_product([(2, 2), (1, -1)], cap), 75)
    # phi(q) = sum (-1)^n q^(n^2)
    assert_eq(theta_sum(Monomial(Cyc24(1), 0), cap), phi_theta_product(cap), 75)


def test_vartheta_onethird_closed_form():
    lhs, rhs = vartheta_onethird(24 * 60)
    assert_eq(lhs, rhs, 55)
    # leading coefficient is exactly -sqrt(3) at q^(1/4)
    sqrt3 = 2 * zeta_pow(2) - zeta_pow(6)
    assert lhs.coeff(6) == -sqrt3
