"""Formal expansion of bilateral sums of Appell-Lerch type,

    sum_{n in Z} (-1)^n rho^n q^(A n^2 + B n + C) / (1 - c q^(D n + E)),

into exact QSeries.  This one engine drives the crank sums, the Watson
sums, the mu specializations and the residue-class Y-sums, and, with
c = 0 (no denominator), the theta and pentagonal series of etatheta, so
_n_window is the kernel's one bilateral-sum stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import gcd, isqrt, lcm

from .cyclotomic import Cyc24, ONE as CONE, exp_pi_i, zeta_pow
from .errors import GridError, PoleError, ThetaVanishesError
from .qseries import QSeries

# etatheta builds its theta series here, so the functions below that need
# etatheta import it when called

__all__ = ["LerchSpec", "lerch_expand", "crank_pair", "thetaid_pair", "mu_formal"]


@dataclass(frozen=True)
class LerchSpec:
    """Parameters of the bilateral sum; A,B,C,D,E are exponents in q-units,
    rho_qpow is a grid exponent carried by rho (so rho = rho_const * q^(rho_qpow/24)).
    global_sign = -1 keeps the (-1)^n factor, +1 drops it.  c_const = 0 means
    no denominator: the sum is a plain theta series and D, E are unused."""

    A: Fraction
    B: Fraction = Fraction(0)
    C: Fraction = Fraction(0)
    rho_const: Cyc24 = CONE
    rho_qpow: int = 0
    c_const: Cyc24 = CONE
    D: Fraction = Fraction(0)
    E: Fraction = Fraction(0)
    global_sign: int = -1

    def __post_init__(self):
        for f in "ABCDE":
            if type(getattr(self, f)) is not Fraction:
                object.__setattr__(self, f, Fraction(getattr(self, f)))
        for f in ("rho_const", "c_const"):
            if not isinstance(getattr(self, f), Cyc24):
                object.__setattr__(self, f, Cyc24(getattr(self, f)))
        if self.A <= 0:
            raise ValueError("lerch spec needs A > 0")
        if self.global_sign not in (1, -1):
            raise ValueError("global_sign must be +-1")
        # the grid exponents as integer polynomials in n over one denominator;
        # 24*p/r in lowest terms has the denominator r/gcd(24, r), and adding
        # the integer rho_qpow keeps it
        (an, ad), (bn, bd), (cn, cd), (dn, dd), (en, ed) = (
            (x.numerator, x.denominator) for x in (self.A, self.B, self.C, self.D, self.E)
        )
        den = lcm(ad // gcd(24, ad), bd // gcd(24, bd), cd // gcd(24, cd))
        num = (24 * an * den // ad, (24 * bn + self.rho_qpow * bd) * den // bd, 24 * cn * den // cd)
        object.__setattr__(self, "_num", (*num, den))
        den = lcm(dd // gcd(24, dd), ed // gcd(24, ed))
        object.__setattr__(self, "_den", (24 * dn * den // dd, 24 * en * den // ed, den))

    # the constant multiplying term n, (+-rho_const)^n
    def _base(self) -> Cyc24:
        return -self.rho_const if self.global_sign == -1 else self.rho_const

    def num_grid(self, n: int) -> int:
        """24*(A n^2 + B n + C) + rho_qpow*n."""
        a, b, c, den = self._num
        e, r = divmod((a * n + b) * n + c, den)
        if r:
            raise GridError("numerator exponent off grid at n=%d" % n)
        return e

    def den_grid(self, n: int) -> int:
        """24*(D n + E)."""
        d, e, den = self._den
        p, r = divmod(d * n + e, den)
        if r:
            raise GridError("denominator exponent off grid at n=%d" % n)
        return p


def _n_window(spec: LerchSpec, cap: int):
    """Conservative symmetric bound: all n with any contribution below cap lie
    in [-N, N].  A denominator 1 - c q^p only adds exponents above e0(n) =
    (a n^2 + b n + c)/den (spec._num), so solve a N^2 - |b| N + c >= cap*den
    in integers."""
    a, b, c, den = spec._num
    disc = b * b - 4 * a * (c - cap * den)
    if disc < 0:
        return 2
    return -(-(abs(b) + isqrt(disc) + 1) // (2 * a)) + 2


# zeta^k -> k; every root of unity in Q(zeta_24) is a 24th root of unity
_ZETA_LOG = {zeta_pow(k): k for k in range(24)}


def _root_order(c: Cyc24):
    """The least r <= 24 with c^r = 1, or None if c is no such root of unity."""
    k = _ZETA_LOG.get(c)
    return None if k is None else 24 // gcd(k, 24)


def _geometric_tail(coef: Cyc24, ratio: Cyc24, count):
    """coef*ratio^k for k < count, or only for k below the order r of a root
    of unity ratio, as they repeat with period r; each of those is one
    zeta_pow read, or one product if coef is no root of unity."""
    r = _root_order(ratio)
    if r is None:
        out = [coef]
        for _ in range(1, count):
            out.append(out[-1] * ratio)
        return out
    kr, kc = _ZETA_LOG[ratio], _ZETA_LOG.get(coef)
    if kc is None:
        return [coef * zeta_pow(kr * k) for k in range(min(count, r))]
    return [zeta_pow(kc + kr * k) for k in range(min(count, r))]


def lerch_expand(spec: LerchSpec, cap: int, residue=None) -> QSeries:
    """Exact expansion below grid cap.  residue=(m, j) keeps only n = j mod m.

    With c = 0 each term n is the single monomial base^n q^(e0).  Otherwise
    each term n expands 1/(1 - c q^p) as a geometric tail, one period of it
    when c is a root of unity (every c of the catalog); then from_terms
    reads each distinct coefficient once.  A root of unity base gives each
    base^n by one zeta_pow read.
    """
    base = spec._base()
    kb = _ZETA_LOG.get(base)
    N = _n_window(spec, cap)
    c = spec.c_const
    plain = not c  # c = 0: no denominator
    cinv = None
    terms = []
    for n in range(-N, N + 1):
        if residue is not None and n % residue[0] != residue[1] % residue[0]:
            continue
        e0 = spec.num_grid(n)
        p = 0 if plain else spec.den_grid(n)
        lowest = e0 if p >= 0 else e0 - p
        if lowest >= cap:
            continue
        coef = base**n if kb is None else zeta_pow(kb * n)
        if plain:
            terms.append((e0, coef))
        elif p > 0:
            exps = range(e0, cap, p)
            terms += zip(exps, cycle(_geometric_tail(coef, c, len(exps))))
        elif p == 0:
            if c == CONE:
                raise PoleError("term n=%d has denominator 1 - q^0" % n)
            terms.append((e0, coef * (CONE - c).inverse()))
        else:
            # 1/(1 - c q^p) = -sum_{k>=1} c^(-k) q^(-k p)
            if cinv is None:
                cinv = c.inverse()
            exps = range(e0 - p, cap, -p)
            terms += zip(exps, cycle(_geometric_tail(-coef * cinv, cinv, len(exps))))
    return QSeries.from_terms(terms, cap)


# ---------------------------------------------------------------------------
# crank generating function


def crank_pair(z: Monomial, cap: int, qmult: int = 1):
    """Both sides of E(Q)/((zQ; Q)(z^-1 Q; Q)) =
    (1-z)/E(Q) * sum (-1)^n Q^(n(n+1)/2)/(1 - z Q^n) with Q = q^qmult."""
    from .etatheta import Monomial, euler_E, euler_E_inv, pochhammer_inf

    g = 24 * qmult
    work = cap + 2 * abs(z.pow) + 2 * g
    den = pochhammer_inf((Monomial(z.const, z.pow + g), Monomial(z.const.inverse(), g - z.pow)), g, work)
    if den.is_zero():
        raise PoleError("crank product side vanishes identically at z")
    lhs = (euler_E(qmult, den.cap - min(0, den.low)) * den.inv())
    m = Fraction(qmult)
    spec = LerchSpec(A=m / 2, B=m / 2, c_const=z.const, D=m, E=Fraction(z.pow, 24))
    rhs = lerch_expand(spec, work)
    rhs = rhs * euler_E_inv(qmult, work)
    if z.pow:
        rhs = rhs.mul_binomial(z.const, z.pow)
    else:
        rhs = rhs.scale(CONE - z.const)
    return lhs.truncate(cap), rhs.truncate(cap)


# ---------------------------------------------------------------------------
# the two-variable theta identity


def thetaid_pair(z: Monomial, cap: int):
    """Both sides of
    sum (-1)^n q^(n^2) z^n (1 - z q^(2n))/(1 + z q^(2n))
      = Theta(z,q^2) Theta(-zq,q^2) Theta_3(q) / Theta(-z,q^2).

    The LHS uses (1-w)/(1+w) = -1 + 2/(1+w) and runs through lerch_expand.
    Theta(-z, q^2) is checked first: where it vanishes (z = -q^(2k)) the
    LHS has a pole too.
    """
    from .etatheta import Monomial, theta3, theta_Theta, theta_sum

    work = cap + 4 * abs(z.pow) + 96
    bot = theta_Theta(Monomial(-z.const, z.pow), 2, work)
    if bot.is_zero():
        raise ThetaVanishesError("Theta(-z, q^2) vanishes at this z")
    spec = LerchSpec(
        A=Fraction(1),
        rho_const=z.const,
        rho_qpow=z.pow,
        c_const=-z.const,
        D=Fraction(2),
        E=Fraction(z.pow, 24),
    )
    lhs = lerch_expand(spec, work).scale(2) - theta_sum(z, work)
    rhs = theta_Theta(z, 2, work) * theta_sum(Monomial(-z.const, z.pow), work) * theta3(work) * bot.inv()
    return lhs.truncate(cap), rhs.truncate(cap)


# ---------------------------------------------------------------------------
# formal Appell-Lerch mu at monomial arguments


def mu_formal(u, v, tau_mult: int, cap: int) -> QSeries:
    """mu(u, v; M*tau) as an exact series, for u = a*tau + b, v = a'*tau + b'
    with rational a, b, a', b' (pass u = (a, b), v = (a', b')) and M = tau_mult.

    mu(u,v;tau') = e^(pi i u)/vartheta(v;tau') *
                   sum (-1)^n e^(pi i (n^2+n) tau' + 2 pi i n v)/(1 - e^(2 pi i n tau' + 2 pi i u)).
    """
    a, b = (Fraction(x) for x in u)
    ap, bp = (Fraction(x) for x in v)
    M = int(tau_mult)
    if M <= 0:
        raise ValueError("tau_mult must be a positive integer")
    a_grid = 24 * a
    ap_grid = 24 * ap
    if a_grid.denominator != 1 or ap_grid.denominator != 1:
        raise GridError("mu arguments leave the 1/24 grid")
    a_grid = int(a_grid)
    ap_grid = int(ap_grid)

    margin = 3 * M + abs(a_grid) + abs(ap_grid) + 24 * M + 48
    for _ in range(6):
        work = cap + margin
        spec = LerchSpec(
            A=Fraction(M, 2),
            B=Fraction(M, 2) + ap,
            rho_const=exp_pi_i(2 * bp),
            c_const=exp_pi_i(2 * b),
            D=Fraction(M),
            E=a,
        )
        lsum = lerch_expand(spec, work)
        theta = _vartheta_series(ap, bp, M, work)
        if theta.is_zero():
            raise ThetaVanishesError("vartheta(v; %d*tau) vanishes" % M)
        # e^(pi i u) = e^(pi i b) q^(a/2): grid shift 12*a
        sh = 12 * a
        if sh.denominator != 1:
            raise GridError("e^(pi i u) prefactor off grid")
        out = (lsum * theta.inv()).scale(exp_pi_i(b)).shift(int(sh))
        if out.cap >= cap:
            return out.truncate(cap)
        margin *= 2
    raise GridError("mu_formal failed to reach requested cap")


def _vartheta_series(ap: Fraction, bp: Fraction, M: int, cap: int) -> QSeries:
    """vartheta(a'*tau + b'; M*tau) = -i Q^(1/8) zeta^(-1/2) Theta(zeta, Q),
    Q = q^M, zeta = e^(2 pi i b') q^(a'), Theta by its triple product sum."""
    from .etatheta import Monomial, theta_Theta

    const = Cyc24(-1) * zeta_pow(6) * exp_pi_i(-bp)
    sh = 3 * M - 12 * ap
    if sh.denominator != 1:
        raise GridError("vartheta prefactor off grid")
    out = theta_Theta(Monomial(exp_pi_i(2 * bp), int(24 * ap)), M, cap)
    return out.scale(const).shift(int(sh))
