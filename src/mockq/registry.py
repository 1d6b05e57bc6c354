"""Declarative catalog of every coefficient-exact identity the package can
verify, with builders for both sides and a batch driver producing reports.

Some sides are built by two records at one cap: the NEWOMEGA right side
(NEWOMEGA and NEWOMEGA2_FROM_TWIST), the NEWOMEGA2 right side (NEWOMEGA2
and NEWOMEGA2_FROM_TWIST) and omega(-q^(1/2)) (OMEGA_HALF_SPLIT and
H2_MU_REP).  Each is built once per cap into a bounded `lru_cache`, as the
dissection pieces are; the series are shared and never mutated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .cyclotomic import Cyc24, exp_pi_i, zeta_pow
from .dissect import (
    MINUS_2I_OVER_SQRT3,
    NEWOMEGA_ETA,
    e_quotients,
    eta3diss_sides,
    mudiss_sides,
    newomega_assembly_constant,
    omega_minus_q,
    omega_minus_q_direct,
    zeta_bracket_sides,
)
from .etatheta import (
    EtaQuotientSpec,
    Monomial,
    e_product,
    eta_quotient,
    euler_E_inv,
    jtp_product,
    theta_sum,
    vartheta_onethird,
)
from .lerch import LerchSpec, crank_pair, lerch_expand, mu_formal, thetaid_pair
from .mocktheta import (
    f_eulerian,
    f_watson,
    omega_eulerian,
    omega_watson,
)
from .qseries import QSeries

__all__ = ["IdentityRecord", "MU_REPS", "MuRep", "VerifyReport", "registry_catalog", "sides",
           "verify", "verify_all"]

_F = Fraction
_FOUR_OVER_SQRT3 = 4 * (2 * zeta_pow(2) - zeta_pow(6)).inverse()

# eta quotients of the NEWOMEGA2 and NEWF right sides and of the
# omega(-q^(1/2)) split, shared with MU_REPS (NEWOMEGA_ETA is dissect's)
H2_ETA = EtaQuotientSpec([(6, 2), (_F(3, 2), 2), (3, -2), (1, -1)])
NEWOMEGA2_ETA = EtaQuotientSpec([(2, 4), (6, -1), (1, -2)])
NEWF_ETA = EtaQuotientSpec([(1, 4), (3, -1), (2, -2)])


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    description: str
    builder: object  # cap -> list of (lhs, rhs) QSeries pairs, each side exact to cap
    default_order: int = 200


@dataclass
class VerifyReport:
    id: str
    status: str  # "pass" | "fail"
    order: int
    first_mismatch: object  # None or (grid_exponent, lhs Cyc24, rhs Cyc24)
    ms: int

    def to_json_dict(self):
        fm = None
        if self.first_mismatch is not None:
            e, a, b = self.first_mismatch
            fm = {"exponent_num_24": e, "lhs": a.to_text(), "rhs": b.to_text()}
        return {
            "id": self.id,
            "status": self.status,
            "order": self.order,
            "first_mismatch": fm,
            "ms": self.ms,
        }


# ---------------------------------------------------------------------------
# builders


def _b_omegawatson(cap):
    return [(omega_eulerian(cap), omega_watson(cap))]


def _b_fidwat(cap):
    return [(f_eulerian(cap), f_watson(cap))]


def _f_q3(cap):
    """f(q^3), exact to cap."""
    return f_eulerian((cap + 71) // 3 + 1).compose_power(3).truncate(cap)


@lru_cache(maxsize=2)
def _omega_minus_sqrt_q(cap):
    """omega(-q^(1/2)), exact to cap."""
    return omega_eulerian(2 * cap + 48).twist_minus_q().compose_power(_F(1, 2)).truncate(cap)


def _omega_q3_shifted(cap):
    """2 q^2 omega(q^3), exact to cap."""
    w = omega_eulerian((cap + 71) // 3 + 1).compose_power(3)
    return w.shift(48).scale(2).truncate(cap)


def _omega_mq3_shifted(cap):
    """2 q^2 omega(-q^3), exact to cap."""
    return _omega_q3_shifted(cap).twist_minus_q()


@lru_cache(maxsize=2)
def _newomega_rhs(cap):
    etaq = eta_quotient(NEWOMEGA_ETA, cap)
    spec = LerchSpec(A=1, B=1, rho_const=zeta_pow(8), c_const=-1, D=2, E=1)
    mus = lerch_expand(spec, cap) * euler_E_inv(6, cap)
    return (
        QSeries.monomial(MINUS_2I_OVER_SQRT3, 0, cap)
        - etaq.scale(_F(2, 3))
        + mus.scale(exp_pi_i(_F(1, 3)) * _F(4, 3)).truncate(cap)
    )


def _b_newomega(cap):
    return [(_omega_mq3_shifted(cap), _newomega_rhs(cap))]


@lru_cache(maxsize=2)
def _newomega2_rhs(cap):
    etaq = eta_quotient(NEWOMEGA2_ETA, cap)
    spec = LerchSpec(A=1, B=1, rho_const=zeta_pow(16), c_const=zeta_pow(8), D=2, E=1)
    mus = lerch_expand(spec, cap) * euler_E_inv(6, cap)
    return (
        QSeries.monomial(MINUS_2I_OVER_SQRT3, 0, cap)
        + etaq.scale(_F(2, 3))
        - mus.scale(exp_pi_i(_F(-1, 3)) * _F(4, 3)).truncate(cap)
    )


def _b_newomega2(cap):
    return [(_omega_q3_shifted(cap), _newomega2_rhs(cap))]


def _b_newomega2_from_twist(cap):
    return [(_newomega_rhs(cap).twist_minus_q(), _newomega2_rhs(cap))]


def _b_newf(cap):
    # both sides multiplied by q^(1/8) (grid shift +3) to clear the fractional low
    lhs = _f_q3(cap)
    etaq = eta_quotient(NEWF_ETA, cap + 3).shift(3)
    spec = LerchSpec(A=_F(1, 2), B=_F(1, 2), rho_const=zeta_pow(16), c_const=-1, D=1, E=0)
    mus = lerch_expand(spec, cap) * euler_E_inv(3, cap)
    rhs = etaq.scale(_F(1, 3)).truncate(cap) + mus.scale(_F(4, 3)).truncate(cap)
    return [(lhs, rhs)]


# each z = zeta24^k * q^(p/24) is stored as (k, p); -1 is k = 12
_JTP_BATTERY = [
    (0, 24), (12, 24), (0, 12), (12, 12), (8, 24),
    (4, 24), (6, 24), (8, 0), (12, -24), (1, 12),
]


def _b_jtp(z):
    def build(cap):
        return [jtp_product(z, cap)]

    return build


_CRANK_BATTERY = [((0, 36), 3), ((12, 24), 1), ((12, 72), 6)]


def _b_crank(z, m):
    def build(cap):
        return [crank_pair(z, cap, qmult=m)]

    return build


_THETAID_BATTERY = [(0, 24), (8, 24), (0, 0), (12, 24)]


def _z_text(z):
    return "zeta24^%d * q^(%d/24)" % z


def _z_monomial(z):
    k, p = z
    return Monomial(zeta_pow(k), p)


def _b_thetaid(z):
    def build(cap):
        return [thetaid_pair(z, cap)]

    return build


def _b_eta3diss(cap):
    return [eta3diss_sides(cap)]


def _b_eta3diss_components(cap):
    lhs = eta_quotient(NEWOMEGA_ETA, 3 * cap + 72)
    e0, e1, e2 = e_quotients(cap)
    return [
        (lhs.dissect(3, 0).truncate(cap), e0),
        (lhs.dissect(3, 1).truncate(cap), e1.scale(-2)),
        (lhs.dissect(3, 2).truncate(cap), e2),
    ]


def _b_mudiss(part):
    def build(cap):
        return mudiss_sides(part, cap)

    return build


def _b_zeta_bracket(cap):
    return [zeta_bracket_sides(cap)]


def _b_omega_mq_xcheck(cap):
    return [(omega_minus_q(cap), omega_minus_q_direct(cap))]


def _b_omega_half_split(cap):
    # omega(-q^(1/2)) = E(q^6)^2 E(q^(3/2))^2 / (E(q^3)^2 E(q))
    #                   - (2 q^(-1)/E(q)) sum (-1)^n q^((3n^2+n)/2)/(1+q^(3n-3/2))
    lhs = _omega_minus_sqrt_q(cap)
    quot = e_product(H2_ETA.factors, cap)
    spec = LerchSpec(A=_F(3, 2), B=_F(1, 2), c_const=-1, D=3, E=_F(-3, 2))
    tail = lerch_expand(spec, cap + 24) * euler_E_inv(1, cap + 24)
    rhs = quot - tail.shift(-24).scale(2).truncate(cap)
    return [(lhs, rhs)]


def _b_mu_swap_symmetry(cap):
    return [
        (
            mu_formal((_F(3, 2), _F(1, 2)), (1, 0), 3, cap),
            mu_formal((1, 0), (_F(3, 2), _F(1, 2)), 3, cap),
        )
    ]


def _b_rln_omega(cap):
    # the left side sum_n q^(6n^2)/((q; q^6)_(n+1) (q^5; q^6)_n) by its running
    # term, t_n = t_(n-1) q^(12n-6)/((1-q^(6n+1))(1-q^(6n-1))): an Eulerian
    # sum, deliberately not via lerch
    term = QSeries.one(cap).div_binomial(1, 24)
    acc = term
    n = 1
    while 144 * n * n < cap:
        term = term.shift(144 * (2 * n - 1)).truncate(cap)
        term = term.div_binomial(1, 24 * (6 * n + 1)).div_binomial(1, 24 * (6 * n - 1))
        acc = acc + term
        n += 1
    rhs = (
        QSeries.one(cap)
        + _omega_q3_shifted(cap).scale(_F(1, 2))
        + e_product([(2, 4), (1, -2), (6, -1)], cap)  # psi(q)^2/E(q^6), psi = E(q^2)^2/E(q)
    ).scale(_F(1, 2))
    return [(acc, rhs)]


def _b_rln_f(cap):
    # sum_n (-1)^n q^(n^2) (q; q)_(2n)/(q^6; q^6)_n by its running term,
    # t_n = -t_(n-1) q^(2n-1) (1-q^(2n-1))(1-q^(2n))/(1-q^(6n))
    term = QSeries.one(cap)
    acc = term
    n = 1
    while 24 * n * n < cap:
        term = -term.shift(24 * (2 * n - 1)).truncate(cap)
        term = term.mul_binomial(1, 24 * (2 * n - 1)).mul_binomial(1, 48 * n)
        term = term.div_binomial(1, 144 * n)
        acc = acc + term
        n += 1
    f3 = _f_q3(cap)
    # varphi^2(-q) validated as (sum (-1)^n q^(n^2))^2, the classical theta at -q
    rhs = f3.scale(_F(3, 4)) + (
        theta_sum(Monomial(Cyc24(1), 0), cap) ** 2 * euler_E_inv(3, cap)
    ).scale(_F(1, 4)).truncate(cap)
    return [(acc, rhs)]


def _b_vartheta_third(cap):
    return [vartheta_onethird(cap)]


def _b_assembly_constant(cap):
    res = newomega_assembly_constant()
    return [(QSeries.monomial(res, 0, cap), QSeries.zero(cap))]


# ---------------------------------------------------------------------------
# mu-representations


@dataclass(frozen=True)
class MuRep:
    """A mu-representation of a mock theta side, stated once:

        mock = const + eta_coef q^(eta_shift/24) eta-quotient
               + mu_coef q^(mu_shift/24) mu(u0 tau + u1, v0 tau + v1; M tau),

    with rational or Cyc24 constants.  `series` builds the right side exactly
    (`mu_formal` expands geometric series); `numeric._mu_rep_num` evaluates it
    in floats (`mu_num` sums the Appell-Lerch definition).
    """

    id: str
    description: str
    mock: object  # cap -> QSeries
    rep_left: bool  # the representation is the left side of the pair
    const: object
    eta: EtaQuotientSpec
    eta_coef: object
    eta_shift: int
    mu_coef: object
    mu_shift: int
    u: tuple  # (u0, u1)
    v: tuple  # (v0, v1)
    M: int

    @cached_property
    def complex_consts(self):
        """(const, eta_coef, mu_coef) as Python complex numbers."""
        return tuple(Cyc24(x).to_complex() for x in (self.const, self.eta_coef, self.mu_coef))

    def series(self, cap):
        etaq = eta_quotient(self.eta, cap - self.eta_shift).shift(self.eta_shift)
        mu = mu_formal(self.u, self.v, self.M, cap - self.mu_shift).shift(self.mu_shift)
        const = QSeries.monomial(self.const, 0, cap)
        return etaq.scale(self.eta_coef) + mu.scale(self.mu_coef) + const

    def pairs(self, cap):
        rep, mock = self.series(cap), self.mock(cap)
        return [(rep, mock) if self.rep_left else (mock, rep)]


MU_REPS = (
    MuRep(
        "F_MU_REP",
        "q^(-1/24) f(q) = eta(3t)^4/(eta(t) eta(6t)^2) + 4 q^(-1/6) mu(2t+1/2, t; 3t)",
        lambda cap: f_eulerian(cap + 1).shift(-1).truncate(cap), True,
        const=0, eta=EtaQuotientSpec([(3, 4), (1, -1), (6, -2)]), eta_coef=1, eta_shift=0,
        mu_coef=4, mu_shift=-4, u=(2, _F(1, 2)), v=(1, 0), M=3,
    ),
    MuRep(
        "H2_MU_REP",
        "2q^(1/3) omega(-q^(1/2)) = 2 eta(6t)^2 eta(3t/2)^2/(eta(3t)^2 eta(t)) "
        "- 4 q^(-1/24) mu(-3t/2+1/2, -t; 3t); holds with the negated arguments "
        "only (the un-negated form differs at the completed level by R-terms)",
        lambda cap: _omega_minus_sqrt_q(cap).shift(8).scale(2).truncate(cap), True,
        const=0, eta=H2_ETA, eta_coef=2,
        eta_shift=0, mu_coef=-4, mu_shift=-1, u=(_F(-3, 2), _F(1, 2)), v=(-1, 0), M=3,
    ),
    MuRep(  # after tau -> 6 tau
        "NEWOMID",
        "rescaled identity: 2q^2 omega(q^3) from an eta-quotient and mu(t-2/3, -1/3; 2t)",
        _omega_q3_shifted, False,
        const=MINUS_2I_OVER_SQRT3, eta=NEWOMEGA2_ETA, eta_coef=_F(2, 3), eta_shift=0,
        mu_coef=-exp_pi_i(_F(1, 3)) * _FOUR_OVER_SQRT3, mu_shift=-6,
        u=(1, _F(-2, 3)), v=(0, _F(-1, 3)), M=2,
    ),
    MuRep(
        "NEWOMEGA_MU_FORM",
        "2q^2 omega(-q^3) from an eta-quotient and mu(t+1/2, 1/3; 2t)",
        _omega_mq3_shifted, False,
        const=MINUS_2I_OVER_SQRT3, eta=NEWOMEGA_ETA, eta_coef=_F(-2, 3), eta_shift=0,
        mu_coef=-exp_pi_i(_F(-1, 6)) * _FOUR_OVER_SQRT3, mu_shift=-6,
        u=(1, _F(1, 2)), v=(0, _F(1, 3)), M=2,
    ),
    MuRep(  # after t -> 3t, so everything lives on the grid, times q^(1/8)
        "NEWF_MU_FORM",
        "f via mu(-1/2, -1/3; t): q^(1/8)-normalized series identity",
        _f_q3, False,
        const=0, eta=NEWF_ETA, eta_coef=_F(1, 3), eta_shift=3,
        mu_coef=zeta_pow(6) * _FOUR_OVER_SQRT3, mu_shift=3, u=(0, _F(-1, 2)), v=(0, _F(-1, 3)), M=1,
    ),
)


# ---------------------------------------------------------------------------
# catalog


def registry_catalog():
    recs = [
        IdentityRecord(
            "OMEGAWATSON",
            "omega(q): Eulerian definition equals the bilateral Watson form",
            _b_omegawatson,
            300,
        ),
        IdentityRecord(
            "FIDWAT",
            "f(q): Eulerian definition equals 2/E(q) times the bilateral sum "
            "(the factor 2 is forced by the n <-> -n folding)",
            _b_fidwat,
            300,
        ),
        IdentityRecord(
            "NEWOMEGA",
            "2q^2 omega(-q^3) = -2i/sqrt3 - (2/3) eta-quotient "
            "+ (4/3) e^(pi i/3) lerch-sum / E(q^6)",
            _b_newomega,
            300,
        ),
        IdentityRecord(
            "NEWOMEGA2",
            "2q^2 omega(q^3) = -2i/sqrt3 + (2/3) eta-quotient "
            "- (4/3) e^(-pi i/3) lerch-sum / E(q^6); the sum term carries a "
            "minus sign, opposite to some printed statements",
            _b_newomega2,
            300,
        ),
        IdentityRecord(
            "NEWOMEGA2_FROM_TWIST",
            "q -> -q twist of the NEWOMEGA right side equals the NEWOMEGA2 right side",
            _b_newomega2_from_twist,
            300,
        ),
        IdentityRecord(
            "NEWF",
            "q^(1/8)-normalized: f(q^3) = (1/3) q^(1/8) eta-quotient "
            "+ (4/3) lerch-sum / E(q^3); denominator of the sum is 1+q^n "
            "and the sum enters with a plus sign",
            _b_newf,
            300,
        ),
        IdentityRecord(
            "ETA3DISS",
            "3-dissection of E(q)^2 E(q^4)^2/(E(q^2)^2 E(q^6)) into e0, -2e1, e2",
            _b_eta3diss,
            300,
        ),
        IdentityRecord(
            "ETA3DISS_COMPONENTS",
            "each dissected component of the eta-quotient matches its closed form",
            _b_eta3diss_components,
            300,
        ),
        IdentityRecord(
            "ZETA_BRACKET",
            "zeta3-weighted recombination of Y-sums equals the bracketed closed form",
            _b_zeta_bracket,
            200,
        ),
        IdentityRecord(
            "OMEGA_MINUS_Q_XCHECK",
            "omega(-q) by parity twist equals omega(-q) built directly from its own sum",
            _b_omega_mq_xcheck,
            300,
        ),
        IdentityRecord(
            "OMEGA_HALF_SPLIT",
            "omega(-q^(1/2)) splits into a crank eta-quotient minus twice a shifted sum",
            _b_omega_half_split,
            200,
        ),
        IdentityRecord(
            "MU_SWAP_SYMMETRY",
            "formal mu(u, v) = mu(v, u) at a grid-valid specialization",
            _b_mu_swap_symmetry,
            200,
        ),
        *(IdentityRecord(r.id, r.description, r.pairs) for r in MU_REPS),
        IdentityRecord(
            "RLN_OMEGA",
            "Lost-Notebook omega identity; omega_3(q^3) read as omega(q^3)",
            _b_rln_omega,
            200,
        ),
        IdentityRecord(
            "RLN_F",
            "Lost-Notebook f identity; varphi^2(-q) read as (sum (-1)^n q^(n^2))^2, "
            "the classical theta phi evaluated at -q",
            _b_rln_f,
            200,
        ),
        IdentityRecord(
            "VARTHETA_THIRD",
            "vartheta(1/3; 2 tau) = -sqrt3 q^(1/4) E(q^6)",
            _b_vartheta_third,
            200,
        ),
        IdentityRecord(
            "ASSEMBLY_CONSTANT",
            "exact cancellation -2i/sqrt3 + (2/3)(1 + 2 zeta3) = 0",
            _b_assembly_constant,
            200,
        ),
    ]
    for i, z in enumerate(_JTP_BATTERY, 1):
        recs.append(
            IdentityRecord(
                "JTP_%02d" % i,
                "Jacobi triple product at z = %s" % _z_text(z),
                _b_jtp(_z_monomial(z)),
                200,
            )
        )
    for i, (z, m) in enumerate(_CRANK_BATTERY, 1):
        recs.append(
            IdentityRecord(
                "CRANK_%d" % i,
                "crank generating function at z = %s, base q^%d" % (_z_text(z), m),
                _b_crank(_z_monomial(z), m),
                200,
            )
        )
    for i, z in enumerate(_THETAID_BATTERY, 1):
        recs.append(
            IdentityRecord(
                "THETAID_%d" % i,
                "two-variable theta identity at z = %s" % _z_text(z),
                _b_thetaid(_z_monomial(z)),
                200,
            )
        )
    for part in ("i", "ii", "iii", "iv", "v", "vi"):
        recs.append(
            IdentityRecord(
                "MUDISS_%s" % part.upper(),
                "Y-sum dissection relation (%s)" % part,
                _b_mudiss(part),
                300,
            )
        )
    return recs


_CATALOG = None


def _catalog_map():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = {r.id: r for r in registry_catalog()}
    return _CATALOG


def _record(rec_id):
    recs = _catalog_map()
    if rec_id not in recs:
        raise KeyError("unknown identity id %r" % rec_id)
    return recs[rec_id]


def sides(rec_id: str, order: int):
    """The (lhs, rhs) pairs of record rec_id, each side exact to q^order.

    Every builder returns sides exact to the cap it is asked for, so this
    builds at cap 24*order + 1 with no margin; a side that fell short would
    make `eq_to` raise `PrecisionError`.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError("order must be an integer >= 1, got %r" % (order,))
    return _record(rec_id).builder(24 * order + 1)


def verify(rec_id: str, order=None) -> VerifyReport:
    if order is None:
        order = _record(rec_id).default_order
    t0 = time.monotonic()
    mismatch = None
    for lhs, rhs in sides(rec_id, order):
        ok, wit = lhs.eq_to(rhs, order)
        if not ok:
            mismatch = wit
            break
    ms = int(1000 * (time.monotonic() - t0))
    return VerifyReport(rec_id, "pass" if mismatch is None else "fail", order, mismatch, ms)


def verify_all(order_override=None):
    out = [verify(r.id, order_override) for r in registry_catalog()]
    return sorted(out, key=lambda rep: rep.id)
