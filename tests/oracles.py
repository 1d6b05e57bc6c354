"""Independent second methods for quantities that mockq computes one way.

Each function here evaluates a quantity by a route the package does not
take, so a test can compare the two:

- `euler_E_product`: E(q^m) as the literal truncated product, against the
  pentagonal-number series of `etatheta.euler_E`;
- `g012_num`: the component thetas g0, g1, g2 summed directly, against the
  g_{a,b} hooks;
- `g_eval` and `eichler_quad_from_taubar`: an Eichler integral by adaptive
  quadrature of the summed integrand, against the closed-form term sums of
  `numeric.eichler_gab` and `numeric.eichler_integral`;
- `mordell_j_grid`: a Mordell integral by a fixed-step Simpson rule, against
  the adaptive quadrature of `numeric.mordell_j`;
- `mordell_j_quad` and `eichler_from_zero_quad`: a Mordell integral and the
  whole Eichler integral from 0 by scipy's QUADPACK (`integrate.quad`),
  against the Gauss-Kronrod routine of `numeric._quad` and, from 0, its
  split into quadrature and erfcx tail;
- `R_mpmath`: Zwegers' R(u; tau) summed at 60 digits straight from its
  definition, against the double-precision `numeric.R_num`;
- `E_mpmath`: E(z) = erf(sqrt(pi) z) at 40 digits, against `numeric.E_num`;
- `eichler_tail_terms_mpmath`: each term of the Eichler-from-0 tail through
  mpmath's incomplete gamma, against the erfcx form in
  `numeric._eichler_terms_from_zero`;
- `eichler_taubar_terms_mpmath`: each term of an Eichler sum from -conj(tau)
  through mpmath's erfc, against the real-arithmetic form in
  `numeric._eichler_terms_from_taubar`;
- `erfcx_mpmath`: e^(s^2) erfc(s) at 40 digits, against `numeric._erfcx`;
- `qseries_eval_terms`: an exact series evaluated term by term through
  `nonzero_items` and `Cyc24.to_complex`, against `numeric.qseries_eval`,
  which reads the integer arrays directly.

The exact kernel runs its hot producers on each series' lattice; these
full-grid versions of them are the references:

- `from_terms_per_term`: `QSeries.from_terms` splitting every term's
  coefficient into rationals on its own, without grouping equal ones;
- `pochhammer_inf_dense`: the binomial chain of `etatheta.pochhammer_inf`
  on the full 1/24 grid, one `mul_binomial` per factor;
- `pochhammer_inf_chains` and `theta_Theta_chains`: a Pochhammer product
  with several starts as one dense chain per start, multiplied with `*`,
  against the single binomial chain of `pochhammer_inf`, and Theta as that
  product against the triple product sum of `theta_Theta`;
- `pochhammer_fin_dense`: `etatheta.pochhammer_fin` as one `mul_binomial`
  per factor, against its in-place `QSeries.binomial_chain`;
- `rln_f_lhs_per_term` and `rln_omega_lhs_per_term`: the left sides of the
  RLN_F and RLN_OMEGA records with each term's Pochhammer products built and
  inverted anew, against the running-term recurrences of their builders;
- `inv_full_grid`: 1/s by the unit-lead recurrence over every grid slot for
  one rational component with lead +-1, and by Newton iteration for every
  other series, against the lattice recurrence of `QSeries.inv`, which
  also takes a lead times one rational component with integer
  coefficients;
- `div_binomial_full_grid`: the integer recurrence of `QSeries.div_binomial`
  over every grid slot, not only the residue classes that hold a nonzero;
- `compose_power_loop`: q -> q^k one coefficient at a time;
- `dissect_terms`: `QSeries.dissect` through `nonzero_items` and
  `from_terms_per_term`;
- `lerch_exponents_fraction`: the integer exponent polynomials of a
  `LerchSpec` by `Fraction` arithmetic, against the integer bookkeeping of
  `LerchSpec.__post_init__`;
- `Cyc24Ref`: Q(zeta_24) as eight Fractions, products reduced mod Phi_24
  term by term and inverses by the extended Euclidean algorithm over Q,
  against the integer numerators of `Cyc24`.
"""

import cmath
import math
from fractions import Fraction
from math import ceil, lcm

import mpmath
from scipy import integrate

from mockq.cyclotomic import Cyc24, ONE
from mockq.errors import ConvergenceError, GridError, NonInvertibleError
from mockq.etatheta import Monomial, _grid_mult, euler_E
from mockq.numeric import _G012_HOOKS, _coerce, _gab_terms
from mockq.qseries import QSeries


def euler_E_product(m, cap) -> QSeries:
    """Literal truncated product prod (1 - q^(m n))."""
    g = _grid_mult(m)
    out = QSeries.one(cap)
    n = 1
    while n * g < cap:
        out = out.mul_binomial(1, n * g)
        n += 1
    return out


def g012_num(idx, z) -> complex:
    """The three component theta functions, coded directly from their sums:
    g0(z) = sum (-1)^n (n+1/3) e^(3 pi i (n+1/3)^2 z),
    g1(z) = -sum (n+1/6) e^(3 pi i (n+1/6)^2 z),
    g2(z) = sum (n+1/3) e^(3 pi i (n+1/3)^2 z)."""
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("g needs Im(z) > 0")
    out = 0j
    for m in range(1200):
        t = 0j
        for n in (m, -m - 1):
            if idx == 0:
                r = n + 1.0 / 3
                c = (-1) ** (n & 1) * r
            elif idx == 1:
                r = n + 1.0 / 6
                c = -r
            elif idx == 2:
                r = n + 1.0 / 3
                c = r
            else:
                raise ValueError("idx must be 0, 1 or 2")
            t += c * cmath.exp(3j * math.pi * r * r * z)
        out += t
        if abs(t) < 1e-18 and m > 2:
            return out
    raise ConvergenceError("g component series did not converge")


def g_eval(terms, z) -> complex:
    """sum coef * e^(pi i lam z) over the (lam, coef) terms, up to 4000 of them."""
    out = 0j
    small = 0
    for k, (lam, coef) in enumerate(terms):
        if k >= 4000:
            raise ConvergenceError("g series did not reach the term floor")
        t = coef * cmath.exp(1j * math.pi * lam * z)
        out += t
        if abs(t) < 1e-18:
            small += 1
            if small >= 4:
                break
        else:
            small = 0
    return out


def eichler_quad_from_taubar(g_of_z, scene) -> complex:
    """integral from -conj(tau) to i*infinity of g(z)/sqrt(-i(z+tau)) dz by
    adaptive quadrature, parametrized z = -conj(tau) + i t with
    sqrt(-i (z+tau)) = sqrt(2y + t)."""
    sc = _coerce(scene)
    y = sc.tau.imag
    T = max(40.0, 24.0 * math.log(1 / sc.quad_rel_tol) / math.pi)

    def f(t, part):
        val = 1j * g_of_z(-sc.tau.conjugate() + 1j * t) / math.sqrt(2 * y + t)
        return val.real if part == 0 else val.imag

    re, _ = integrate.quad(f, 0, T, args=(0,), epsabs=1e-13, epsrel=sc.quad_rel_tol, limit=400)
    im, _ = integrate.quad(f, 0, T, args=(1,), epsabs=1e-13, epsrel=sc.quad_rel_tol, limit=400)
    return complex(re, im)


def _mordell_ratio(idx, tau, x):
    """sin 2w/sin 3w, cos w/cos 3w or sin w/sin 3w for idx = 1, 2, 3, with
    w = pi tau x, each ratio coded on its own (the package forms sin 2w as
    2 sin w cos w and shares sin w and cos w across the three), with its
    limit at x = 0."""
    if x == 0:
        return (2.0 / 3, 1.0, 1.0 / 3)[idx - 1]
    w = math.pi * tau * x
    if idx == 1:
        return cmath.sin(2 * w) / cmath.sin(3 * w)
    if idx == 2:
        return cmath.cos(w) / cmath.cos(3 * w)
    if idx == 3:
        return cmath.sin(w) / cmath.sin(3 * w)
    raise ValueError("idx must be 1, 2 or 3")


def _mordell_integrand(idx, sc):
    """(f, X): the integrand of j_idx(tau) and the end of the interval [0, X]
    that `numeric.mordell_j` integrates over."""
    tau = sc.tau
    X = math.sqrt(math.log(1 / sc.series_term_floor) / (3 * math.pi * tau.imag)) + 1.0

    def f(x):
        return cmath.exp(3j * math.pi * tau * x * x) * _mordell_ratio(idx, tau, x)

    return f, X


def mordell_j_grid(idx, scene) -> complex:
    """j_idx(tau) by a fixed-step Simpson rule on the interval that
    `numeric.mordell_j` integrates over."""
    f, X = _mordell_integrand(idx, _coerce(scene))
    n = 16001
    h = X / (n - 1)
    vals = [f(k * h) for k in range(n)]
    s = vals[0] + vals[-1]
    s += 4 * sum(vals[k] for k in range(1, n, 2))
    s += 2 * sum(vals[k] for k in range(2, n - 1, 2))
    return s * h / 3


def mordell_j_quad(idx, scene) -> complex:
    """j_idx(tau) by scipy's adaptive quadrature on the interval that
    `numeric.mordell_j` integrates over."""
    sc = _coerce(scene)
    f, X = _mordell_integrand(idx, sc)
    val, _ = integrate.quad(
        f, 0, X, complex_func=True, epsabs=1e-13, epsrel=sc.quad_rel_tol, limit=400
    )
    return val


def g_ab_anywhere(a, b, w) -> complex:
    """g_{a,b}(w) for Im(w) > 0: g_eval of its series where Im(w) >= 1/2 and,
    below, of the series of the modular inversion
    g_{a,b}(w) = i e^(2 pi i a b) (i/w)^(3/2) g_{b,-a}(-1/w)."""
    if w.imag >= 0.5:
        return g_eval(_gab_terms(a, b), w)
    return (
        1j
        * cmath.exp(2j * math.pi * a * b)
        * (1j / w) ** 1.5
        * g_eval(_gab_terms(b, -a), -1 / w)
    )


def eichler_from_zero_quad(idx, scene) -> complex:
    """integral from 0 to i*infinity of g_idx(z)/sqrt(-i(z+tau)) dz, with
    g_idx(z) = k g_{a,b}(3z) from `numeric._G012_HOOKS`, by scipy's adaptive
    quadrature over z = i t, t in [0, 1] and [1, infinity)."""
    sc = _coerce(scene)
    k, a, b = _G012_HOOKS[idx]

    def f(t):
        return 1j * k * g_ab_anywhere(a, b, 3j * t) / cmath.sqrt(t - 1j * sc.tau)

    opts = dict(complex_func=True, epsabs=1e-15, epsrel=sc.quad_rel_tol, limit=400)
    return integrate.quad(f, 0, 1, **opts)[0] + integrate.quad(f, 1, math.inf, **opts)[0]


def R_mpmath(u, tau, dps=60) -> complex:
    """R(u; tau) = sum over n in 1/2+Z of
    (sgn(n) - E((n+a) sqrt(2y))) (-1)^(n-1/2) e^(-pi i n^2 tau - 2 pi i n u),
    y = Im(tau), a = Im(u)/y, E(z) = erf(sqrt(pi) z), at dps digits.

    sgn(n) - E cancels, and its absolute error (10^-dps) is magnified by
    |e^(-pi i n^2 tau - 2 pi i n u)| = e^(pi y ((n+a)^2 - a^2)).  The sum
    therefore keeps only the n with pi y (n+a)^2 <= 80: every term left out
    is below e^-80, and no term kept carries an error above 10^-dps * e^80."""
    with mpmath.workdps(dps):
        u = mpmath.mpc(u)
        tau = mpmath.mpc(tau)
        y = tau.imag
        a = u.imag / y
        s2y = mpmath.sqrt(2 * y)
        out = mpmath.mpc(0)
        for k in range(-int(abs(a)) - 40, int(abs(a)) + 40):
            n = k + mpmath.mpf(1) / 2
            if mpmath.pi * y * (n + a) ** 2 > 80:
                continue
            w = (1 if n > 0 else -1) - mpmath.erf(mpmath.sqrt(mpmath.pi) * (n + a) * s2y)
            sign = -1 if k % 2 else 1  # (-1)^(n - 1/2) with n - 1/2 = k
            out += w * sign * mpmath.exp(-1j * mpmath.pi * n * n * tau - 2j * mpmath.pi * n * u)
        return complex(out)


def E_mpmath(z, dps=40) -> complex:
    """E(z) = erf(sqrt(pi) z) at dps digits."""
    with mpmath.workdps(dps):
        return complex(mpmath.erf(mpmath.sqrt(mpmath.pi) * mpmath.mpc(z)))


def eichler_tail_terms_mpmath(terms, tau, c, dps=40):
    """The terms i coef e^(-pi lam c) e^(w0) Gamma(1/2, w0) / sqrt(pi lam),
    w0 = pi lam (c - i tau), of the Eichler-from-0 tail above z = i*c, each
    through mpmath's upper incomplete gamma at dps digits; terms with
    lam <= 0 or coef == 0 give 0."""
    out = []
    with mpmath.workdps(dps):
        tau = mpmath.mpc(tau)
        for lam, coef in terms:
            if lam <= 0 or coef == 0:
                out.append(0j)
                continue
            lam = mpmath.mpf(lam)
            w0 = mpmath.pi * lam * (c - 1j * tau)
            t = mpmath.exp(w0) * mpmath.gammainc(mpmath.mpf(1) / 2, w0)
            t *= 1j * mpmath.mpmathify(coef) * mpmath.exp(-mpmath.pi * lam * c)
            out.append(complex(t / mpmath.sqrt(mpmath.pi * lam)))
    return out


def eichler_taubar_terms_mpmath(terms, tau, dps=40):
    """The terms i coef e^(-pi i lam x) e^(pi lam y) erfc(sqrt(2 pi lam y)) / sqrt(lam),
    tau = x + i y, of an Eichler sum from -conj(tau), each at dps digits;
    terms with lam <= 0 or coef == 0 give 0."""
    out = []
    with mpmath.workdps(dps):
        x = mpmath.mpf(tau.real)
        y = mpmath.mpf(tau.imag)
        for lam, coef in terms:
            if lam <= 0 or coef == 0:
                out.append(0j)
                continue
            lam = mpmath.mpf(lam)
            t = mpmath.exp(mpmath.pi * lam * y) * mpmath.erfc(mpmath.sqrt(2 * mpmath.pi * lam * y))
            t *= 1j * mpmath.mpmathify(coef) * mpmath.expjpi(-lam * x)
            out.append(complex(t / mpmath.sqrt(lam)))
    return out


def erfcx_mpmath(s, dps=40) -> complex:
    """erfcx(s) = e^(s^2) erfc(s) at dps digits."""
    with mpmath.workdps(dps):
        s = mpmath.mpmathify(s)
        return complex(mpmath.exp(s * s) * mpmath.erfc(s))


def qseries_eval_terms(series, tau) -> complex:
    """sum c_e q^(e/24) at q = exp(2 pi i tau), one Cyc24 coefficient at a
    time from nonzero_items."""
    tau = complex(tau)
    out = 0j
    for e, c in series.nonzero_items():
        out += complex(c.to_complex()) * cmath.exp(2j * math.pi * tau * e / 24)
    return out


# ---------------------------------------------------------------------------
# full-grid references for the exact kernel


def from_terms_per_term(terms, cap) -> QSeries:
    """terms: iterable of (grid_exponent, coefficient), every coefficient
    coerced and split on its own."""
    items = []
    for e, c in terms:
        if e >= cap:
            continue
        c = c if isinstance(c, Cyc24) else Cyc24(c)
        if c:
            items.append((e, c))
    if not items:
        return QSeries.zero(cap)
    lo = min(e for e, _ in items)
    dens = {}
    for _, c in items:
        for k, ck in enumerate(c.c):
            if ck:
                dens[k] = lcm(dens.get(k, 1), ck.denominator)
    by_comp = {k: (d, [0] * (cap - lo)) for k, d in dens.items()}
    for e, c in items:
        for k, ck in enumerate(c.c):
            if ck:
                d, nums = by_comp[k]
                nums[e - lo] += ck.numerator * (d // ck.denominator)
    return QSeries(lo, cap, by_comp)


def pochhammer_inf_dense(a, step, cap) -> QSeries:
    """(a; q^(step/24))_inf as one mul_binomial per factor on the full grid,
    negative exponents normalized by 1 - C q^-p = -C q^-p (1 - C^-1 q^p)."""
    shift_total = 0
    e = a.pow
    while e < 0:
        shift_total += e
        e += step
    work_cap = cap - shift_total
    out = QSeries.one(work_cap)
    e = a.pow
    while e < work_cap:
        if e > 0:
            out = out.mul_binomial(a.const, e)
        elif e == 0:
            out = out.scale(ONE - a.const)
            if out.is_zero():
                return QSeries.zero(cap)
        else:
            out = out.scale(-a.const).mul_binomial(a.const.inverse(), -e)
        e += step
    return out.shift(shift_total)


def pochhammer_fin_dense(a, step, n, cap) -> QSeries:
    """(a; q^(step/24))_n as one mul_binomial per factor, negative exponents
    normalized by 1 - C q^-p = -C q^-p (1 - C^-1 q^p)."""
    exps = [a.pow + k * step for k in range(n)]
    shift_total = sum(e for e in exps if e < 0)
    out = QSeries.one(cap - shift_total)
    for e in exps:
        if e > 0:
            out = out.mul_binomial(a.const, e)
        elif e == 0:
            out = out.scale(ONE - a.const)
        else:
            out = out.scale(-a.const).mul_binomial(a.const.inverse(), -e)
    return out.shift(shift_total)


def rln_f_lhs_per_term(cap) -> QSeries:
    """sum_n (-1)^n q^(n^2) (q; q)_(2n)/(q^6; q^6)_n, each term from its own
    finite products and one inv()."""
    acc = QSeries.zero(cap)
    n = 0
    while 24 * n * n < cap:
        t = pochhammer_fin_dense(Monomial(ONE, 24), 24, 2 * n, cap)
        t = t.shift(24 * n * n).truncate(cap)
        den = pochhammer_fin_dense(Monomial(ONE, 144), 144, n, cap)
        term = (t * den.inv()).truncate(cap)
        acc = acc + (term if n % 2 == 0 else -term)
        n += 1
    return acc


def rln_omega_lhs_per_term(cap) -> QSeries:
    """sum_n q^(6n^2)/((q; q^6)_(n+1) (q^5; q^6)_n), each term from its own
    finite products and one inv()."""
    acc = QSeries.zero(cap)
    n = 0
    while 144 * n * n < cap:
        den = pochhammer_fin_dense(Monomial(ONE, 24), 144, n + 1, cap)
        den = den * pochhammer_fin_dense(Monomial(ONE, 120), 144, n, den.cap)
        acc = acc + (QSeries.monomial(1, 144 * n * n, cap) * den.inv()).truncate(cap)
        n += 1
    return acc


def inv_full_grid(s) -> QSeries:
    """1/s: the unit-lead recurrence over every grid slot when s is one
    rational component with at most 150 terms, Newton iteration otherwise."""
    if s.is_zero() or s.low >= s.cap:
        raise NonInvertibleError("cannot invert a series that is zero to its cap")
    a = s.shift(-s.low)
    n = a.cap
    if set(a.comps) == {0}:
        d, nums = a.comps[0]
        if nums[0] in (1, -1) and len([v for v in nums if v]) <= 150:
            out = [0] * n
            out[0] = nums[0]
            nz = [(i, v) for i, v in enumerate(nums) if v and i > 0]
            for m in range(1, n):
                out[m] = -nums[0] * sum(v * out[m - i] for i, v in nz if i <= m)
            return QSeries(0, n, {0: (1, [d * v for v in out])}).shift(-s.low)
    b = QSeries.monomial(a.coeff(0).inverse(), 0, 1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        bp = b._as_poly(prec)
        b = (bp + bp * (QSeries.one(prec) - a.truncate(prec) * bp)).truncate(prec)
    return b.shift(-s.low)


def lerch_exponents_fraction(spec):
    """(_num, _den) of a LerchSpec by Fraction arithmetic: 24*(A n^2 + B n
    + C) + rho_qpow*n and 24*(D n + E) as integer polynomials in n over the
    least common denominator of their coefficients."""
    A, B, C, D, E = (Fraction(x) for x in (spec.A, spec.B, spec.C, spec.D, spec.E))
    a, b, c = 24 * A, 24 * B + spec.rho_qpow, 24 * C
    den = lcm(a.denominator, b.denominator, c.denominator)
    num = (int(a * den), int(b * den), int(c * den), den)
    d, e = 24 * D, 24 * E
    den = lcm(d.denominator, e.denominator)
    return num, (int(d * den), int(e * den), den)


def div_binomial_full_grid(s, const, p) -> QSeries:
    """s / (1 - const q^(p/24)) for an integer const, p > 0, by the
    recurrence out[i] += const * out[i - p] over every grid slot."""
    n = s.cap - s.low
    comps = {}
    for k, (d, nums) in s.comps.items():
        out = list(nums)
        for i in range(p, n):
            out[i] += const * out[i - p]
        comps[k] = (d, out)
    return QSeries(s.low, s.cap, comps)


def compose_power_loop(s, k) -> QSeries:
    """q -> q^k for positive rational k, placing one coefficient at a time."""
    k = Fraction(k)
    new_low = ceil(s.low * k)
    new_cap = ceil(s.cap * k)
    comps = {}
    for comp, (d, nums) in s.comps.items():
        out = [0] * (new_cap - new_low)
        for i, v in enumerate(nums):
            if v:
                e2 = (s.low + i) * k
                if e2.denominator != 1:
                    raise GridError("exponent leaves the grid")
                out[int(e2) - new_low] = v
        comps[comp] = (d, out)
    return QSeries(new_low, new_cap, comps)


def dissect_terms(s, m, j) -> QSeries:
    """S_j with S_j(q^m) q^j = the part of s on exponents = j mod m, built
    term by term from nonzero_items."""
    new_cap = 24 * ((((s.cap - 1) // 24) - j) // m + 1)
    terms = []
    for e, c in s.nonzero_items():
        if e % 24:
            raise GridError("dissect needs integer exponents")
        if (e // 24) % m == j:
            terms.append((24 * ((e // 24 - j) // m), c))
    return from_terms_per_term(terms, new_cap)


def pochhammer_inf_chains(starts, step, cap) -> QSeries:
    """(a1, ..., ak; q^(step/24))_inf as one dense chain per start, each
    built to the cap of the product so far and multiplied in with `*`."""
    out = pochhammer_inf_dense(starts[0], step, cap)
    for a in starts[1:]:
        out = out * pochhammer_inf_dense(a, step, out.cap)
    return out


def theta_Theta_chains(z, m, cap) -> QSeries:
    """Theta(z, q^m) = E(q^m) (z; q^m)_inf (z^-1 q^m; q^m)_inf, multiplying
    in one dense chain per start."""
    step = _grid_mult(m)
    out = euler_E(m, cap)
    for a in (z, Monomial(z.const.inverse(), step - z.pow)):
        out = out * pochhammer_inf_dense(a, step, out.cap)
    return out


# ---------------------------------------------------------------------------
# Q(zeta_24) on eight Fractions


def _reduce_ref(e):
    """x^e mod x^8 - x^4 + 1 as eight integer coefficients, by substituting
    x^8 = x^4 - 1 until the degree is below 8."""
    p = [0] * (e + 1)
    p[e] = 1
    for d in range(e, 7, -1):
        if p[d]:
            p[d - 4] += p[d]
            p[d - 8] -= p[d]
            p[d] = 0
    return p[:8] + [0] * (8 - len(p[:8]))


_REDUCE_REF = [_reduce_ref(e) for e in range(15)]
_F0 = Fraction(0)


def _ptrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a, b):
    out = [_F0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _psub(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else _F0) - (b[i] if i < len(b) else _F0) for i in range(n)])


def _pdivmod(a, b):
    a, q = list(a), [_F0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] / b[-1]
        q[i] = coef
        for j, y in enumerate(b):
            a[i + j] -= coef * y
    return _ptrim(q), _ptrim(a)


class Cyc24Ref:
    """c0 + c1*z + ... + c7*z^7 with eight Fraction coefficients."""

    def __init__(self, coeffs):
        self.c = tuple(Fraction(x) for x in coeffs)
        assert len(self.c) == 8

    def __add__(self, o):
        return Cyc24Ref(a + b for a, b in zip(self.c, o.c))

    def __sub__(self, o):
        return Cyc24Ref(a - b for a, b in zip(self.c, o.c))

    def __mul__(self, o):
        out = [_F0] * 8
        for i, a in enumerate(self.c):
            for j, b in enumerate(o.c):
                for k, s in enumerate(_REDUCE_REF[i + j]):
                    out[k] += s * a * b
        return Cyc24Ref(out)

    def inverse(self):
        """s with s*self = 1 mod Phi_24: extended Euclid over Q, run until
        the remainder is zero; the last nonzero remainder is a constant."""
        r0, r1 = [Fraction(v) for v in (1, 0, 0, 0, -1, 0, 0, 0, 1)], _ptrim(list(self.c))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        assert len(r0) == 1
        return Cyc24Ref([x / r0[0] for x in s0] + [_F0] * (8 - len(s0)))

    def __eq__(self, o):
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def to_text(self):
        return " + ".join(
            str(x) if k == 0 else "%s*z" % x if k == 1 else "%s*z^%d" % (x, k)
            for k, x in enumerate(self.c)
        )
