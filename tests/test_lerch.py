import cmath
import math
from fractions import Fraction

import pytest

from mockq.cyclotomic import Cyc24, ONE, exp_pi_i, zeta_pow
from mockq.errors import GridError, PoleError, ThetaVanishesError
from mockq.etatheta import Monomial, euler_E, theta3, theta_sum, vartheta_onethird
from mockq.lerch import LerchSpec, crank_pair, lerch_expand, mu_formal, thetaid_pair
from mockq.numeric import mu_num, qseries_eval
from mockq.qseries import QSeries

# ---------------------------------------------------------------------------
# independent numeric oracle: evaluate the bilateral sum directly in complex
# floats at a point with |q| < 1 and compare with the exact expansion


def numeric_bilateral(spec, tau, n_range=60):
    q = cmath.exp(2j * math.pi * tau)

    def qp(e):
        return cmath.exp(2j * math.pi * tau * float(e))

    total = 0j
    for n in range(-n_range, n_range + 1):
        e_num = spec.A * n * n + spec.B * n + spec.C + Fraction(spec.rho_qpow * n, 24)
        base = complex(spec._base().to_complex()) ** n
        m = spec.D * n + spec.E
        c = complex(spec.c_const.to_complex())
        if m >= 0:
            total += base * qp(e_num) / (1 - c * qp(m))
        else:
            # q^m blows up for m < 0; multiply through by q^(-m) instead
            total += base * qp(e_num - m) / (qp(-m) - c)
    return total


SPECS = [
    LerchSpec(A=Fraction(3, 2), B=Fraction(1, 2), c_const=-1, D=1, E=0),
    LerchSpec(A=3, B=3, c_const=1, D=2, E=1),
    LerchSpec(A=1, B=1, c_const=-1, D=2, E=1),
    LerchSpec(A=1, B=1, rho_const=zeta_pow(8), c_const=-1, D=2, E=1),
    LerchSpec(A=1, B=1, rho_const=zeta_pow(16), c_const=zeta_pow(8), D=2, E=1),
    LerchSpec(A=Fraction(1, 2), B=Fraction(1, 2), rho_const=zeta_pow(16), c_const=-1, D=1, E=0),
    LerchSpec(A=Fraction(3, 2), B=Fraction(1, 2), c_const=-1, D=3, E=Fraction(-3, 2)),
    LerchSpec(A=2, B=0, rho_qpow=5, c_const=zeta_pow(3), D=2, E=Fraction(1, 3)),
]


@pytest.mark.parametrize("spec", SPECS)
def test_expansion_matches_numeric_oracle(spec):
    tau = 0.13 + 0.95j
    series = lerch_expand(spec, 24 * 40)
    got = qseries_eval(series, tau)
    want = numeric_bilateral(spec, tau)
    assert abs(got - want) < 1e-9, (got, want)


def test_residue_classes_partition_the_sum():
    spec = SPECS[2]
    cap = 24 * 30
    full = lerch_expand(spec, cap)
    parts = [lerch_expand(spec, cap, residue=(3, j)) for j in range(3)]
    total = parts[0] + parts[1] + parts[2]
    ok, wit = total.eq_to(full, 28)
    assert ok, wit


def test_negative_denominator_canonicalization():
    # for n < 0 the denominator exponent is negative and the geometric
    # expansion must be re-anchored; check coefficients stay exact by
    # comparing two windows
    spec = LerchSpec(A=1, B=0, c_const=-1, D=2, E=1)
    s1 = lerch_expand(spec, 24 * 20)
    s2 = lerch_expand(spec, 24 * 35)
    ok, wit = s1.eq_to(s2.truncate(24 * 20), 19)
    assert ok, wit


def test_pole_detection():
    spec = LerchSpec(A=1, B=0, c_const=1, D=2, E=0)  # n=0 term divides by 1-q^0
    with pytest.raises(PoleError):
        lerch_expand(spec, 240)


def test_off_grid_rejected():
    for spec in (
        LerchSpec(A=Fraction(1, 5)),
        LerchSpec(A=Fraction(1, 5), c_const=0),
        LerchSpec(A=1, C=Fraction(1, 48), c_const=0),
    ):
        with pytest.raises(GridError):
            lerch_expand(spec, 240)


# ---------------------------------------------------------------------------
# c_const = 0: plain theta series against a brute-force bilateral sum


def brute_theta(coef, expo, cap, n_range=80):
    """sum of coef(n) q^expo(n) over |n| <= n_range, with expo(n) a Fraction in
    q-units; every exponent must lie on the 1/24 grid."""
    terms = []
    for n in range(-n_range, n_range + 1):
        e = 24 * expo(n)
        assert e.denominator == 1, (n, e)
        terms.append((int(e), coef(n)))
    return QSeries.from_terms(terms, cap)


def brute_spec(spec, cap):
    def coef(n):
        return (_sign(n) if spec.global_sign == -1 else ONE) * spec.rho_const**n

    def expo(n):
        return spec.A * n * n + spec.B * n + spec.C + Fraction(spec.rho_qpow * n, 24)

    return brute_theta(coef, expo, cap)


def _sign(n):
    return Cyc24((-1) ** (n % 2))


CAP = 24 * 40
# (name, the kernel's series, its brute-force sum): each kernel theta series
# that lerch_expand builds with c_const = 0
THETA_CASES = [
    (
        "pentagonal m=%s" % m,
        lambda m=m: euler_E(m, CAP),
        lambda m=m: brute_theta(_sign, lambda n: Fraction(m) * n * (3 * n - 1) / 2, CAP),
    )
    for m in (1, Fraction(3, 2), 2, 6)
] + [
    (
        "theta_sum z=zeta^%d q^(%d/24)" % (k, p),
        lambda k=k, p=p: theta_sum(Monomial(zeta_pow(k), p), CAP),
        lambda k=k, p=p: brute_theta(
            lambda n: _sign(n) * zeta_pow(k) ** n, lambda n: n * n + Fraction(p * n, 24), CAP
        ),
    )
    for k, p in ((0, 0), (1, 12), (12, -12), (8, 36), (5, -36))
] + [
    (
        "theta3 m=%s" % m,
        lambda m=m: theta3(CAP, m),
        lambda m=m: brute_theta(lambda n: ONE, lambda n: Fraction(m) * n * n, CAP),
    )
    for m in (1, 2, Fraction(1, 2))
] + [
    (
        "vartheta_onethird",
        lambda: vartheta_onethird(CAP)[0],
        # n = m + 1/2: e^(5 pi i n/3) q^(n^2)
        lambda: brute_theta(
            lambda m: exp_pi_i(Fraction(5 * (2 * m + 1), 6)),
            lambda m: (m + Fraction(1, 2)) ** 2,
            CAP,
        ),
    ),
]


@pytest.mark.parametrize("name,kernel,brute", THETA_CASES, ids=[c[0] for c in THETA_CASES])
def test_theta_series_match_a_brute_bilateral_sum(name, kernel, brute):
    got, want = kernel(), brute()
    assert got.eq_to(want, 39) == (True, None)
    assert got.dump() == want.dump()


@pytest.mark.parametrize(
    "spec",
    [
        LerchSpec(A=Fraction(3, 4), B=Fraction(-1, 4), c_const=0),
        LerchSpec(A=1, B=1, C=Fraction(1, 4), rho_const=exp_pi_i(Fraction(5, 3)),
                  global_sign=1, c_const=0),
        LerchSpec(A=2, B=Fraction(1, 3), rho_const=zeta_pow(7), rho_qpow=-16, c_const=0),
        # D and E are unused without a denominator
        LerchSpec(A=1, rho_const=zeta_pow(3), c_const=0, D=2, E=Fraction(1, 48)),
    ],
)
def test_lerch_expand_without_denominator_is_the_bilateral_sum(spec):
    got = lerch_expand(spec, CAP)
    assert got.dump() == brute_spec(spec, CAP).dump()


def test_mu_formal_matches_numeric_mu():
    tau = 0.1 + 0.9j
    cases = [
        ((2, Fraction(1, 2)), (1, 0), 3),
        ((Fraction(-3, 2), Fraction(1, 2)), (-1, 0), 3),
        ((1, Fraction(1, 2)), (0, Fraction(1, 3)), 2),
        ((0, Fraction(-1, 2)), (0, Fraction(-1, 3)), 1),
    ]
    for u, v, M in cases:
        series = mu_formal(u, v, M, 24 * 30)
        got = qseries_eval(series, tau)
        un = u[0] * tau + float(u[1])
        vn = v[0] * tau + float(v[1])
        want = mu_num(un, vn, M * tau)
        assert abs(got - want) < 1e-8, (u, v, M, got, want)


def test_mu_formal_swap_symmetry():
    a = mu_formal((Fraction(3, 2), Fraction(1, 2)), (1, 0), 3, 24 * 25)
    b = mu_formal((1, 0), (Fraction(3, 2), Fraction(1, 2)), 3, 24 * 25)
    ok, wit = a.eq_to(b, 20)
    assert ok, wit


def test_mu_formal_grid_check():
    with pytest.raises(GridError):
        mu_formal((Fraction(1, 5), 0), (1, 0), 1, 240)


# ---------------------------------------------------------------------------
# a theta or product denominator that vanishes identically raises, before
# any series is inverted


@pytest.mark.parametrize("v", [(0, 0), (0, 1), (3, 0), (-3, 1)])
def test_mu_formal_raises_where_vartheta_vanishes(v):
    """vartheta(v; 3 tau) vanishes on v in Z + 3 tau Z."""
    with pytest.raises(ThetaVanishesError):
        mu_formal((1, 0), v, 3, 240)


@pytest.mark.parametrize("pow_", [0, 48, -48])
def test_thetaid_pair_raises_where_theta_minus_z_vanishes(pow_):
    """Theta(-z, q^2) vanishes identically at z = -q^(2k); the left side's
    denominator 1 + z q^(2n) then also vanishes at n = -k, and the product
    side's error is the one raised."""
    with pytest.raises(ThetaVanishesError):
        thetaid_pair(Monomial.make(-1, pow_), 240)


@pytest.mark.parametrize("z,qmult", [((1, -24), 1), ((1, 24), 1), ((1, -48), 2), ((1, 72), 3)])
def test_crank_pair_raises_on_a_vanishing_product_side(z, qmult):
    """(zQ; Q)(z^-1 Q; Q) vanishes at z = Q^(-1) and z = Q."""
    with pytest.raises(PoleError, match="crank product side vanishes"):
        crank_pair(Monomial.make(*z), 240, qmult)
