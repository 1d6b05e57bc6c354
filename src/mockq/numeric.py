"""Double-precision complex evaluation of the transcendental objects behind
the series identities: eta, the odd Jacobi theta, the Appell-Lerch mu, the
non-holomorphic correction R, the completed mu-tilde, the weight-3/2 theta
series g_{a,b}, Eichler period integrals, Watson's Mordell integrals and the
vector-valued triples F, G, H, plus a named battery of transformation checks.

F is read from the Lerch-sum rows F_MU_REP and H2_MU_REP of registry.MU_REPS,
and g0, g1, g2 from their g_{a,b} hooks, so each quantity has one coding.
Exact series are evaluated only by the consistency checks (qseries_eval).
mordell_j and eichler_integral return triples, each from one quadrature.

Conventions: q = exp(2*pi*i*tau), principal square roots throughout
(Re(-i*tau) = Im(tau) > 0 keeps sqrt(-i*tau) well-defined on the upper
half-plane).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from heapq import heappop, heappush
from itertools import compress, islice, repeat
from operator import itemgetter, mul, sub, truediv

from .errors import ConvergenceError, PoleError
from .registry import MU_REPS, sides

__all__ = [
    "NumericScene",
    "SCENES",
    "CheckResult",
    "qseries_eval",
    "eta_num",
    "theta_num",
    "E_num",
    "beta_num",
    "mu_num",
    "R_num",
    "mu_tilde_num",
    "mu_tilde_modular_check",
    "g_ab_num",
    "eichler_gab",
    "eichler_integral",
    "mordell_j",
    "F_num",
    "G_num",
    "H_num",
    "R_vec_theta",
    "R_vec_mordell",
    "run_check",
    "CHECK_NAMES",
]

_SQRT3 = math.sqrt(3.0)
_TWO_PI_I = 2j * math.pi
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1 / _SQRT_PI
# zeta24^k for the basis components k of Q(zeta24), as Cyc24.to_complex forms them
_ZETA24 = tuple(cmath.exp(2j * cmath.pi * k / 24) for k in range(8))


@dataclass(frozen=True)
class NumericScene:
    tau: complex
    series_term_floor: float = 1e-18
    quad_rel_tol: float = 1e-12
    max_terms: int = 4000

    def __post_init__(self):
        if not (self.tau.imag > 0):
            raise ValueError("scene needs Im(tau) > 0")
        if min(self.series_term_floor, self.quad_rel_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.series_term_floor >= 1:
            raise ValueError("series_term_floor must be below 1")

    def at(self, tau) -> "NumericScene":
        return replace(self, tau=complex(tau))


SCENES = (
    NumericScene(1j),
    NumericScene(0.25 + 1j),
    NumericScene(-1 / 3 + 0.75j),
    NumericScene(0.5 + 2j),
    NumericScene(0.1 + 0.6j),
)


def _coerce(scene) -> NumericScene:
    if isinstance(scene, NumericScene):
        return scene
    return NumericScene(complex(scene))


# ---------------------------------------------------------------------------
# series evaluation bridge


@lru_cache(maxsize=32)  # keyed on identity: a QSeries is never mutated
def _float_terms(series):
    """((e, c), ...): the nonzero terms c q^(e/24) of an exact QSeries in
    floats, exponents ascending.  Each component's integer numerators are
    read in place: the nonzero slots are picked out in C and each becomes one
    float v/d (correctly rounded, like float(Fraction(v, d))) times zeta24^k,
    summed in ascending k, as Cyc24.to_complex and nonzero_items do."""
    coeffs = {}
    for k, (d, nums) in sorted(series.comps.items()):
        z = _ZETA24[k]
        for i in compress(range(len(nums)), nums):
            coeffs.setdefault(i, []).append(nums[i] / d * z)
    return tuple((series.low + i, sum(coeffs[i]) + 0j) for i in sorted(coeffs))


def qseries_eval(series, tau) -> complex:
    """An exact QSeries at q = exp(2*pi*i*tau), to the bit the per-term
    evaluation's value."""
    tau = complex(tau)
    out = 0j
    for e, c in _float_terms(series):
        out += c * cmath.exp(_TWO_PI_I * tau * e / 24)
    return out


# ---------------------------------------------------------------------------
# truncation windows


def _window(sc, rate, slope, start=0.0, per=2, first=1, pre=1.0) -> int:
    """Last index M to sum of a series whose terms past M all lie below the
    scene's series_term_floor.

    The caller bounds every term at an index m > start by
    pre * exp(-(rate*x^2 - slope*x)) for some x >= m.  That bound falls below
    the floor once x passes the larger root of rate*x^2 - slope*x =
    ln(pre/floor), and keeps falling, so M = max(ceil(start), floor(root)).
    Index 0 holds `first` summands and every later index `per`; a window of
    more than sc.max_terms summands raises ConvergenceError before anything
    is summed."""
    log_floor = math.log(pre / sc.series_term_floor)
    root = 2 * log_floor / (math.sqrt(slope * slope + 4 * rate * log_floor) - slope)
    M = max(math.ceil(start), math.floor(root))
    if first + per * M > sc.max_terms:
        raise ConvergenceError(
            "the series needs %d terms to fall below %g; max_terms is %d"
            % (first + per * M, sc.series_term_floor, sc.max_terms)
        )
    return M


# ---------------------------------------------------------------------------
# eta and theta


def eta_num(scene) -> complex:
    sc = _coerce(scene)
    q = cmath.exp(_TWO_PI_I * sc.tau)
    out = cmath.exp(_TWO_PI_I * sc.tau / 24)
    # |q^n| = e^(-2 pi y n): the factors (1 - q^n) with |q^n| >= floor
    M = _window(sc, 0.0, -2 * math.pi * sc.tau.imag, per=1, first=0)
    qn = q
    for _ in range(M):
        out *= 1 - qn
        qn *= q
    return out


def theta_num(z, scene) -> complex:
    """vartheta(z; tau) = sum over n in 1/2+Z of
    exp(pi*i*n^2*tau + 2*pi*i*n*(z+1/2))."""
    sc = _coerce(scene)
    z = complex(z)
    # |term| <= e^(-(pi y x^2 - 2 pi |Im z| x)) with x = |n| = m + 1/2
    M = _window(sc, math.pi * sc.tau.imag, 2 * math.pi * abs(z.imag), first=2)
    out = 0j
    for m in range(M + 1):
        t = 0j
        for n in (m + 0.5, -m - 0.5):
            t += cmath.exp(1j * math.pi * n * n * sc.tau + _TWO_PI_I * n * (z + 0.5))
        out += t
    return out


# ---------------------------------------------------------------------------
# the Faddeeva function; E, beta


def _weideman_coefficients(n):
    """Coefficients, highest degree first, of the degree n-1 polynomial in
    Weideman's rational approximation of the Faddeeva function
    (J. A. C. Weideman, SIAM J. Numer. Anal. 31 (1994) 1497-1518):
    a_k = (1/2m) sum over |j| < m of f_j cos(pi j k/m), k = 1..n, m = 2n, the
    real 2m-point DFT of the even sequence f_j = e^(-t_j^2) (L^2 + t_j^2) at
    t_j = L tan(pi j/2m), with L = sqrt(n/sqrt(2))."""
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2))
    t = [L * math.tan(math.pi * j / (2 * m)) for j in range(m)]
    f = [math.exp(-x * x) * (L * L + x * x) for x in t]
    return L, tuple(
        (f[0] + 2 * sum(f[j] * math.cos(math.pi * j * k / m) for j in range(1, m))) / (2 * m)
        for k in range(n, 0, -1)
    )


# N = 40 keeps the relative error near 1e-15 on the sector |arg s| <= pi/4
# that _erfcx serves; N = 32 reaches 3e-14
_W_L, _W_COEF = _weideman_coefficients(40)


def _erfcx(s):
    """erfcx(s) = e^(s^2) erfc(s) = w(i s), w the Faddeeva function, for
    Re s >= 0, by Weideman's approximation
    w(z) = 2 p(Z)/(L - i z)^2 + 1/(sqrt(pi) (L - i z)), Z = (L + i z)/(L - i z).
    A float s is evaluated in real arithmetic, a complex one in complex."""
    d = _W_L + s
    Z = (_W_L - s) / d
    p = 0.0
    for a in _W_COEF:
        p = p * Z + a
    return (2 * p / d + _INV_SQRT_PI) / d


def E_num(z) -> complex:
    """E(z) = 2 * integral of exp(-pi u^2) from 0 to z  ( = erf(sqrt(pi) z) )."""
    z = complex(z)
    if z.imag == 0:
        return complex(math.erf(_SQRT_PI * z.real))
    if z.real < 0:
        return -E_num(-z)
    # erf(x) = 1 - e^(-x^2) erfcx(x) for Re x >= 0
    x = _SQRT_PI * z
    return 1 - cmath.exp(-x * x) * _erfcx(x)


def beta_num(x) -> float:
    """beta(x) = integral of u^(-1/2) exp(-pi u) from x to infinity, x >= 0."""
    if x < 0:
        raise ValueError("beta_num needs x >= 0")
    return math.erfc(math.sqrt(math.pi * x))


# ---------------------------------------------------------------------------
# mu, R, mu-tilde


def mu_num(u, v, scene) -> complex:
    """mu(u, v; tau) = e^(pi i u)/vartheta(v; tau) *
    sum (-1)^n e^(pi i (n^2+n) tau + 2 pi i n v) / (1 - e^(2 pi i n tau + 2 pi i u))."""
    sc = _coerce(scene)
    u = complex(u)
    v = complex(v)
    tau = sc.tau
    y = tau.imag
    # once |n| y > |Im u| + 1 the denominator exceeds half of 1 or of its
    # exponential, so |term| <= pre * e^(-(pi y x^2 - (pi y + 2 pi |Im v|) x))
    # with x = |n| = m and pre = 2 e^(2 pi |Im u|)
    pre = 2 * math.exp(2 * math.pi * abs(u.imag))
    slope = math.pi * y + 2 * math.pi * abs(v.imag)
    M = _window(sc, math.pi * y, slope, (abs(u.imag) + 1) / y, pre=pre)
    total = 0j
    for m in range(M + 1):
        t = 0j
        for n in ((m, -m) if m else (0,)):
            num = (-1) ** (n & 1) * cmath.exp(
                1j * math.pi * (n * n + n) * tau + _TWO_PI_I * n * v
            )
            den = 1 - cmath.exp(_TWO_PI_I * n * tau + _TWO_PI_I * u)
            if abs(den) < 1e-14:
                raise PoleError("mu denominator vanishes at n=%d" % n)
            t += num / den
        total += t
    th = theta_num(v, sc)
    if abs(th) < 1e-14:
        raise PoleError("vartheta(v; tau) vanishes")
    return cmath.exp(1j * math.pi * u) / th * total


def R_num(u, scene) -> complex:
    """R(u; tau) = sum over n in 1/2+Z of
    (sgn(n) - E((n+a) sqrt(2y))) (-1)^(n-1/2) e^(-pi i n^2 tau - 2 pi i n u),
    with y = Im(tau), a = Im(u)/y."""
    sc = _coerce(scene)
    u = complex(u)
    tau = sc.tau
    y = tau.imag
    a = u.imag / y
    s2y = math.sqrt(2 * y)
    # once n and n+a share a sign (m >= |a|), |sgn(n) - E((n+a) sqrt(2y))| <=
    # e^(-2 pi y (n+a)^2), so |term| <= e^(-pi y (n+a)^2) <= e^(-(pi y x^2 - 2 pi y |a| x))
    # with x = |n| = m + 1/2
    M = _window(sc, math.pi * y, 2 * math.pi * y * abs(a), abs(a), first=2)
    out = 0j
    for m in range(M + 1):
        t = 0j
        for n in (m + 0.5, -m - 0.5):
            # sgn(n) - erf(x) = sgn(n) * erfc(sgn(n) * x): no 1 - erf cancellation,
            # whose error e^(pi y n^2) would then magnify
            sg = 1.0 if n > 0 else -1.0
            w = sg * math.erfc(sg * _SQRT_PI * (n + a) * s2y)
            if w == 0.0:
                continue
            sgn = -1 if round(n - 0.5) % 2 else 1
            t += w * sgn * cmath.exp(-1j * math.pi * n * n * tau - _TWO_PI_I * n * u)
        out += t
    return out


def mu_tilde_num(u, v, scene) -> complex:
    sc = _coerce(scene)
    return mu_num(u, v, sc) + 0.5j * R_num(complex(u) - complex(v), sc)


def mu_tilde_modular_check(gamma, u, v, scene) -> float:
    """Residual of the weight-1/2 modular transformation of mu-tilde under
    gamma = ((a, b), (c, d)) in SL2(Z)."""
    sc = _coerce(scene)
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant 1")
    tau = sc.tau
    j = c * tau + d
    if abs(j) < 1e-14:
        raise PoleError("c*tau + d vanishes")
    gtau = (a * tau + b) / j
    u = complex(u)
    v = complex(v)
    lhs = mu_tilde_num(u / j, v / j, sc.at(gtau))
    vg = eta_num(sc.at(gtau)) / (cmath.sqrt(j) * eta_num(sc))
    rhs = (
        vg**-3
        * cmath.sqrt(j)
        * cmath.exp(-1j * math.pi * c * (u - v) ** 2 / j)
        * mu_tilde_num(u, v, sc)
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# weight-3/2 theta series g


def g_ab_num(a, b, scene) -> complex:
    """g_{a,b}(tau) = sum over n in a+Z of n e^(pi i n^2 tau + 2 pi i n b)."""
    sc = _coerce(scene)
    return _g_ab_sum(float(a), float(b), sc)


def _g_ab_sum(a, b, sc) -> complex:
    # n = a +- m has n^2 >= m^2 - 2|a|m and, for m >= |a|, |n| <= 2m <= e^m,
    # so |term| <= e^(-(pi y m^2 - (2 pi y |a| + 1) m))
    tau = sc.tau
    M = _window(sc, math.pi * tau.imag, 2 * math.pi * tau.imag * abs(a) + 1, abs(a))
    out = 0j
    for m in range(M + 1):
        t = 0j
        for n in ((a + m, a - m) if m else (a,)):
            if n:
                t += n * cmath.exp(1j * math.pi * n * n * tau + _TWO_PI_I * n * b)
        out += t
    return out


_G012_HOOKS = (
    # (k, a, b) with g_idx(z) = k g_{a,b}(3z): g0(z) = e^(-pi i/3) g_{1/3,1/2}(3z),
    # g1 = -g_{1/6,0}(3z), g2 = g_{1/3,0}(3z)
    (cmath.exp(-1j * math.pi / 3), 1.0 / 3, 0.5),
    (-1.0, 1.0 / 6, 0.0),
    (1.0, 1.0 / 3, 0.0),
)


def _g012_terms(idx):
    """Yield (lam, coef) with g_idx(z) = sum coef * e^(pi i lam z)."""
    k, a, b = _G012_HOOKS[idx]
    return ((3 * lam, k * coef) for lam, coef in _gab_terms(a, b))


def _gab_terms(a, b):
    """Yield (lam, coef) with g_{a,b}(z) = sum coef * e^(pi i lam z)."""
    a = float(a)
    b = float(b)
    m = 0
    while True:
        for n in ((a + m, a - m) if m else (a,)):
            if n:
                yield n * n, n * cmath.exp(_TWO_PI_I * n * b)
        m += 1


# ---------------------------------------------------------------------------
# quadrature

# QUADPACK's qk15 rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# 15-point Kronrod rule at 0 and +-_XGK[j], and the 7-point Gauss rule at 0 and
# +-_XGK[1], +-_XGK[3], +-_XGK[5]
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK0 = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG0 = 0.417959183673469387755102040816327
# _qk15's nodes c + h u, their Kronrod weights, and the Gauss nodes and weights
_U15 = (0.0,) + tuple(-x for x in _XGK) + _XGK
_W15 = (_WGK0,) + _WGK + _WGK
_GAUSS = itemgetter(0, 2, 4, 6, 9, 11, 13)
_W7 = (_WG0,) + _WG + _WG
_ULP50 = 50 * math.ulp(1.0)
_QUAD_ABS_TOL = 1e-13
_QUAD_LIMIT = 400  # intervals


def _qk15(f, a, b):
    """([integral over [a, b] of each component of the tuple-valued f by the
    15-point Kronrod rule], [its error estimate]), the estimate as QUADPACK's
    qk15 forms it from the Kronrod-Gauss difference, scaled by the spread
    about the mean and floored at 50 ulps of the integral of the modulus."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    h_abs = abs(h)
    vals, errs = [], []
    for col in zip(*[f(c + h * u) for u in _U15]):
        resk = sum(map(mul, _W15, col))
        resg = sum(map(mul, _W7, _GAUSS(col)))
        resabs = sum(map(mul, _W15, map(abs, col)))
        resasc = sum(map(mul, _W15, map(abs, map(sub, col, repeat(0.5 * resk))))) * h_abs
        err = abs(resk - resg) * h_abs
        if resasc and err:
            err = resasc * min(1.0, (200 * err / resasc) ** 1.5)
        vals.append(resk * h)
        errs.append(max(_ULP50 * resabs * h_abs, err))
    return vals, errs


def _quad(f, hi, scene) -> tuple:
    """(integral from 0 to hi of each component of the tuple-valued f), on one
    globally adaptive mesh, until each component's summed qk15 estimate is at
    most its tolerance max(1e-13, quad_rel_tol * |its integral|).  It bisects
    the interval with the largest estimate relative to its component's
    tolerance (when it was made), so a small component is not starved by
    the 50-ulp floors of a large one.  A NaN estimate never passes; needing
    more than 400 intervals raises ConvergenceError."""
    vals, errs = _qk15(f, 0.0, hi)
    parts = [(0.0, 0.0, hi, vals, errs)]
    totals, total_errs = vals, errs
    rtol = scene.quad_rel_tol
    while True:
        tols = [max(_QUAD_ABS_TOL, rtol * abs(t)) for t in totals]
        if all(e <= tol for e, tol in zip(total_errs, tols)):
            break
        if len(parts) >= _QUAD_LIMIT:
            raise ConvergenceError(
                "quadrature over [0, %g] exceeds its budget of %d intervals "
                "(error estimates %s)"
                % (hi, _QUAD_LIMIT, ", ".join("%.3g" % e for e in total_errs))
            )
        _, a, b, v, e = heappop(parts)
        m = 0.5 * (a + b)
        v1, e1 = _qk15(f, a, m)
        v2, e2 = _qk15(f, m, b)
        heappush(parts, (-max(map(truediv, e1, tols)), a, m, v1, e1))
        heappush(parts, (-max(map(truediv, e2, tols)), m, b, v2, e2))
        totals = [t + x + y - z for t, x, y, z in zip(totals, v1, v2, v)]
        total_errs = [t + x + y - z for t, x, y, z in zip(total_errs, e1, e2, e)]
    return tuple(sum(col) for col in zip(*(p[3] for p in parts)))


# ---------------------------------------------------------------------------
# Eichler period integrals


def _eichler_terms(terms, z0, k) -> complex:
    """sum over terms of the integral from z0 to i*infinity of
    coef * e^(pi i lam z)/sqrt(-i (z+tau)) dz, each term in closed form:

        i * coef * e^(pi i lam z0) * erfcx(sqrt(lam) k) / sqrt(lam)

    with k = sqrt(-pi i (z0+tau)) on the principal root, for Im(z0+tau) > 0.
    erfcx(sqrt(w)) = e^w erfc(sqrt(w)) stays finite for large lam, where the
    two factors over- and underflow.  z0 = -conj(tau) gives the Eichler
    integral from -conj(tau), where k = sqrt(2 pi Im(tau)) is real and the
    caller passes it as a float, so erfcx runs in real arithmetic; z0 = i*c
    gives the tail of the one from 0 above i*c."""
    x, y = z0.real, z0.imag
    out = 0j
    for lam, coef in terms:
        if lam <= 0 or coef == 0:
            continue
        r = math.sqrt(lam)
        out += (
            coef
            * cmath.exp(1j * (math.pi * lam * x))
            * (math.exp(-math.pi * lam * y) * _erfcx(r * k) / r)
        )
    return 1j * out


def _eichler_terms_from_taubar(terms, tau) -> complex:
    """_eichler_terms from z0 = -conj(tau), where z0 + tau = 2 i Im(tau)."""
    return _eichler_terms(terms, -tau.conjugate(), math.sqrt(2 * math.pi * tau.imag))


def _g012_on_axis(sc):
    """t -> (g0(i t), g1(i t), g2(i t)) for t > 0, g_idx(z) = k g_{a,b}(3z) by
    _G012_HOOKS: the g_{a,b} series where 3t >= 1/2 and, below, the modular
    inversion g_{a,b}(i y) = i e^(2 pi i a b) y^(-3/2) g_{b,-a}(i/y).

    On each branch a term is coef e^(-pi lam Y), Y = 3t or 1/(3t), and the
    three series' windows at the branch's smallest Im (solved once here)
    merge by lam into rows of three coefficients.  |coef| = sqrt(lam) and a
    series has at most two terms at one lam, so a row is bounded by
    2 sqrt(lam) e^(-pi lam Y), which falls with lam past lam = 1/(2 pi Y): a
    node stops at the first row past that peak whose bound is below the
    floor."""
    log_floor = math.log(sc.series_term_floor)

    def rows(y_min, scale, invert):
        merged = {}
        for idx, (k, a, b) in enumerate(_G012_HOOKS):
            if invert:
                k, a, b = k * 1j * cmath.exp(_TWO_PI_I * a * b), b, -a
            # the window of _g_ab_sum at Im(tau) = y_min
            M = _window(sc, math.pi * y_min, 2 * math.pi * y_min * abs(a) + 1, abs(a))
            for lam, coef in islice(_gab_terms(a, b), 2 * M + 1):
                merged.setdefault(lam, [0j, 0j, 0j])[idx] += k * coef
        out = []
        for lam in sorted(merged):
            # a row is coefs * e^(e s), s = t or 1/t: past its peak once
            # s > -1/(2e), below the floor once e s < log(floor/(2 sqrt(lam)))
            e = -math.pi * lam * scale
            s_cut = max((log_floor - math.log(2 * math.sqrt(lam))) / e, -0.5 / e)
            out.append((e, s_cut, *merged[lam]))
        return out

    direct = rows(0.5, 3.0, False)
    inverted = rows(2.0, 1 / 3, True)

    def g(t):
        if t >= 1 / 6:
            terms, s, pre = direct, t, 1.0
        else:
            terms, s, pre = inverted, 1 / t, (3 * t) ** -1.5
        g0 = g1 = g2 = 0j
        for e, s_cut, c0, c1, c2 in terms:
            if s > s_cut:
                break
            x = math.exp(e * s)
            g0 += c0 * x
            g1 += c1 * x
            g2 += c2 * x
        return pre * g0, pre * g1, pre * g2

    return g


def _eichler_terms_from_zero(windows, scene, g_axis, c) -> tuple:
    """(integral from 0 to i*infinity of g(z)/sqrt(-i(z+tau)) dz) for each g
    of a tuple, split at z = i*c: one quadrature of g_axis(t) = (g(i t), ...)
    below and the termwise closed form of _eichler_terms over each g's
    window from i*c up."""
    tau = scene.tau

    def f(t):
        r = 1j / cmath.sqrt(t - 1j * tau)
        return [r * x for x in g_axis(t)]

    k = cmath.sqrt(-1j * math.pi * (1j * c + tau))
    return tuple(
        _eichler_terms(terms, 1j * c, k) + q
        for terms, q in zip(windows, _quad(f, c, scene))
    )


def eichler_gab(a, b, scene) -> complex:
    """integral from -conj(tau) to i*infinity of g_{a,b}(z)/sqrt(-i(z+tau)) dz."""
    sc = _coerce(scene)
    # |coef| = sqrt(lam) and erfcx <= 1, so |term| <= e^(-pi y n^2), and n = a +- m
    # has n^2 >= m^2 - 2|a|m
    M = _window(sc, math.pi * sc.tau.imag, 2 * math.pi * sc.tau.imag * abs(a))
    return _eichler_terms_from_taubar(islice(_gab_terms(a, b), 2 * M + 1), sc.tau)


def eichler_integral(scene, lower="taubar") -> tuple:
    """(I0, I1, I2), I_idx the integral of g_idx(z)/sqrt(-i(z+tau)) dz along
    the vertical path from -conj(tau) (lower="taubar") or from 0
    (lower="zero") to i*infinity."""
    sc = _coerce(scene)
    if lower not in ("taubar", "zero"):
        raise ValueError("lower must be 'taubar' or 'zero'")
    c = min(1.0, sc.tau.imag)
    # as in eichler_gab, with lam = 3 n^2: |term| <= e^(-3 pi y n^2) from
    # -conj(tau), and e^(-3 pi c n^2) from 0, whose term sum starts at i*c
    rate = 3 * math.pi * (sc.tau.imag if lower == "taubar" else c)
    windows = []
    for idx, (_, a, _) in enumerate(_G012_HOOKS):
        M = _window(sc, rate, 2 * rate * a)
        windows.append(islice(_g012_terms(idx), 2 * M + 1))
    if lower == "taubar":
        return tuple(_eichler_terms_from_taubar(terms, sc.tau) for terms in windows)
    return _eichler_terms_from_zero(windows, sc, _g012_on_axis(sc), c)


# ---------------------------------------------------------------------------
# Mordell integrals


def mordell_j(scene) -> tuple:
    """(j1, j2, j3), j_idx(tau) the integral from 0 to infinity of
    e^(3 pi i tau x^2) times sin 2w/sin 3w, cos w/cos 3w or sin w/sin 3w,
    w = pi tau x, truncated where the Gaussian envelope e^(-3 pi Im(tau) x^2)
    falls below the term floor."""
    sc = _coerce(scene)
    tau = sc.tau
    y = tau.imag
    X = math.sqrt(math.log(1 / sc.series_term_floor) / (3 * math.pi * y)) + 1.0
    a = 3j * math.pi * tau
    b = math.pi * tau

    def f(x):
        # qk15 never evaluates an endpoint, so x > 0 and sin 3w != 0
        e = cmath.exp(a * x * x)
        w = b * x
        s1 = cmath.sin(w)
        c1 = cmath.cos(w)
        es3 = e / cmath.sin(3 * w)
        return 2 * s1 * c1 * es3, e * c1 / cmath.cos(3 * w), s1 * es3

    return _quad(f, X, sc)


# ---------------------------------------------------------------------------
# the vectors F, G, H

_MU_REPS = {r.id: r for r in MU_REPS}


def _mu_rep_num(rep, scene) -> complex:
    """The registry.MuRep row rep in floats, at the scene's tau."""
    sc = _coerce(scene)
    tau = sc.tau
    quot = 1.0 + 0j
    for m, r in rep.eta.factors:
        quot *= eta_num(sc.at(float(m) * tau)) ** r
    (u0, u1), (v0, v1) = rep.u, rep.v
    mu = mu_num(float(u0) * tau + float(u1), float(v0) * tau + float(v1), sc.at(rep.M * tau))
    const, eta_coef, mu_coef = rep.complex_consts
    return (
        const
        + eta_coef * cmath.exp(_TWO_PI_I * tau * rep.eta_shift / 24) * quot
        + mu_coef * cmath.exp(_TWO_PI_I * tau * rep.mu_shift / 24) * mu
    )


def F_num(scene):
    """(f0, f1, f2) = (q^(-1/24) f(q), 2 q^(1/3) omega(q^(1/2)),
    2 q^(1/3) omega(-q^(1/2))), read from the rows F_MU_REP (f0) and H2_MU_REP
    (f2) of registry.MU_REPS; f1(tau) = e^(-2 pi i/3) f2(tau+1)."""
    sc = _coerce(scene)
    h2 = _MU_REPS["H2_MU_REP"]
    return (
        _mu_rep_num(_MU_REPS["F_MU_REP"], sc),
        cmath.exp(-_TWO_PI_I / 3) * _mu_rep_num(h2, sc.at(sc.tau + 1)),
        _mu_rep_num(h2, sc),
    )


def G_num(scene):
    """G = 2 i sqrt(3) * integral from -conj(tau) to i*infinity of
    (g1, g0, -g2)^T / sqrt(-i (z+tau)) dz."""
    c = 2j * _SQRT3
    i0, i1, i2 = eichler_integral(scene)
    return c * i1, c * i0, -c * i2


def H_num(scene):
    f = F_num(scene)
    g = G_num(scene)
    return tuple(a - b for a, b in zip(f, g))


def R_vec_theta(scene):
    """Watson remainder via theta integrals:
    R(tau) = -2 i sqrt(3) * integral from 0 to i*infinity of
    (g0, g1, g2)^T / sqrt(-i (z+tau)) dz."""
    c = -2j * _SQRT3
    return tuple(c * x for x in eichler_integral(scene, lower="zero"))


def R_vec_mordell(scene):
    """Watson remainder via Mordell integrals,
    R(tau) = 4 sqrt(3) sqrt(-i tau) * (j2, -j1, j3)."""
    sc = _coerce(scene)
    pre = 4 * _SQRT3 * cmath.sqrt(-1j * sc.tau)
    j1, j2, j3 = mordell_j(sc)
    return pre * j2, -pre * j1, pre * j3


# ---------------------------------------------------------------------------
# named checks


def _mat_T(vec):
    """Apply the T-matrix diag(zeta24^-1; swap with zeta3)."""
    z24inv = cmath.exp(-_TWO_PI_I / 24)
    z3 = cmath.exp(_TWO_PI_I / 3)
    return (z24inv * vec[0], z3 * vec[2], z3 * vec[1])


def _mat_S(vec):
    """Apply the S-matrix (swap first two, negate third)."""
    return (vec[1], vec[0], -vec[2])


_U0 = 0.3 + 0.2j
_AB = (0.3, 0.45)
# mu-tilde probes, first choice first (mutwid-b takes u from _U_PROBES[1:]);
# mu has its poles where u or v lies in Z + tau Z
_U_PROBES = (_U0, 0.2 + 0.1j, 0.27 + 0.31j, 0.41 + 0.13j)
_V_PROBES = (0.05 + 0.3j, 0.11 + 0.23j, 0.07 + 0.37j)
_LATTICE_GAP = 1e-6


def _off_lattice(points, tau):
    """The first of points at least 1e-6 from Z + tau Z, whose nearest point
    to p lies on the row n = round(Im p/Im tau)."""
    for p in points:
        r = p - round(p.imag / tau.imag) * tau
        if abs(r - round(r.real)) >= _LATTICE_GAP:
            return p
    raise PoleError("every probe point lies within %g of Z + tau Z" % _LATTICE_GAP)


@dataclass
class CheckResult:
    name: str
    tau: complex
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol

    def to_json_dict(self):
        return {
            "name": self.name,
            "tau": [self.tau.real, self.tau.imag],
            "residual": self.residual,
            "tol": self.tol,
            "status": "pass" if self.passed else "fail",
        }


def _check_etatrans(sc):
    lhs = eta_num(sc.at(-1 / sc.tau))
    rhs = cmath.sqrt(-1j * sc.tau) * eta_num(sc)
    return abs(lhs - rhs)


def _check_rellprops_a(sc):
    return abs(R_num(_U0 + 1, sc) + R_num(_U0, sc))


def _check_rellprops_b(sc):
    tau = sc.tau
    lhs = R_num(_U0, sc) + cmath.exp(-_TWO_PI_I * _U0 - 1j * math.pi * tau) * R_num(
        _U0 + tau, sc
    )
    rhs = 2 * cmath.exp(-1j * math.pi * _U0 - 1j * math.pi * tau / 4)
    return abs(lhs - rhs)


def _check_rellprops_c(sc):
    return abs(R_num(-_U0, sc) - R_num(_U0, sc))


def _check_mutwid_a(sc):
    tau = sc.tau
    u, v = _off_lattice(_U_PROBES, tau), _off_lattice(_V_PROBES, tau)
    base = mu_tilde_num(u, v, sc)
    res = abs(mu_tilde_num(u + 1, v, sc) + base)  # k=0,l=1: factor -1
    fac = -cmath.exp(1j * math.pi * tau + _TWO_PI_I * (u - v))
    return max(res, abs(mu_tilde_num(u + tau, v, sc) - fac * base))


def _check_mutwid_b(sc):
    s = ((0, -1), (1, 0))
    t = ((1, 1), (0, 1))
    u, v = _off_lattice(_U_PROBES[1:], sc.tau), _off_lattice(_V_PROBES, sc.tau)
    return max(mu_tilde_modular_check(s, u, v, sc), mu_tilde_modular_check(t, u, v, sc))


def _check_mutwid_c(sc):
    u, v = _off_lattice(_U_PROBES, sc.tau), _off_lattice(_V_PROBES, sc.tau)
    base = mu_tilde_num(u, v, sc)
    res = abs(mu_tilde_num(-u, -v, sc) - base)
    return max(res, abs(mu_tilde_num(v, u, sc) - base))


def _check_gab(part):
    a, b = _AB

    def run(sc):
        base = g_ab_num(a, b, sc)
        if part == "i":
            return abs(g_ab_num(a + 1, b, sc) - base)
        if part == "ii":
            return abs(g_ab_num(a, b + 1, sc) - cmath.exp(_TWO_PI_I * a) * base)
        if part == "iii":
            return abs(g_ab_num(-a, -b, sc) + base)
        if part == "iv":
            lhs = g_ab_num(a, b, sc.at(sc.tau + 1))
            rhs = cmath.exp(-1j * math.pi * a * (a + 1)) * g_ab_num(a, a + b + 0.5, sc)
            return abs(lhs - rhs)
        if part == "v":
            lhs = g_ab_num(a, b, sc.at(-1 / sc.tau))
            rhs = (
                1j
                * cmath.exp(_TWO_PI_I * a * b)
                * (-1j * sc.tau) ** 1.5
                * g_ab_num(b, -a, sc)
            )
            return abs(lhs - rhs)
        raise ValueError(part)

    return run


def _check_gabints(sc):
    # the relation holds with the sqrt(-i(z+tau)) branch used everywhere else
    a, b = -1.0 / 6, -0.5
    lhs = eichler_gab(a + 0.5, b + 0.5, sc)
    rhs = -cmath.exp(
        -1j * math.pi * a * a * sc.tau + _TWO_PI_I * a * (b + 0.5)
    ) * R_num(a * sc.tau - b, sc)
    return abs(lhs - rhs)


def _check_rext(sc):
    b = 1.0 / 6
    tau = sc.tau
    lhs = R_num(-tau / 2 - b, sc)
    integ = eichler_gab(0.0, b + 0.5, sc)
    rhs = cmath.exp(1j * math.pi * tau / 4 + 1j * math.pi * b) - cmath.exp(
        1j * math.pi * tau / 4 + 1j * math.pi * (b + 0.5)
    ) * integ
    return abs(lhs - rhs)


def _mordell_residual(target, sc):
    return max(abs(x - t) for x, t in zip(R_vec_mordell(sc), target))


def _check_lemma33(sc):
    return _mordell_residual(R_vec_theta(sc), sc)


def _check_watson_lemma(sc):
    pre = 1 / cmath.sqrt(-1j * sc.tau)
    lhs = tuple(pre * x for x in F_num(sc.at(-1 / sc.tau)))
    ms = _mat_S(F_num(sc))
    target = tuple(a - b for a, b in zip(lhs, ms))
    return _mordell_residual(target, sc)


def _check_s_transform(sc):
    pre = 1 / cmath.sqrt(-1j * sc.tau)
    lhs = tuple(pre * x for x in H_num(sc.at(-1 / sc.tau)))
    rhs = _mat_S(H_num(sc))
    return max(abs(a - b) for a, b in zip(lhs, rhs))


def _check_t_transform(sc):
    lhs = H_num(sc.at(sc.tau + 1))
    rhs = _mat_T(H_num(sc))
    return max(abs(a - b) for a, b in zip(lhs, rhs))


_CONSISTENCY_ORDER = 200


@cache
def _exact_sides(rec_id):
    """A record's first pair to q^_CONSISTENCY_ORDER, built once per process."""
    return sides(rec_id, _CONSISTENCY_ORDER)[0]


def _consistency(rec_id, rep_id):
    """rec_id's exact sides against each other and the MuRep row rep_id."""
    rep = _MU_REPS[rep_id]

    def run(sc):
        lhs, rhs = _exact_sides(rec_id)
        a = qseries_eval(lhs, sc.tau)
        b = qseries_eval(rhs, sc.tau)
        return max(abs(a - b), abs(b - _mu_rep_num(rep, sc)))

    return run


_CHECKS = {
    "etatrans": (_check_etatrans, 1e-8),
    "rellprops-a": (_check_rellprops_a, 1e-8),
    "rellprops-b": (_check_rellprops_b, 1e-8),
    "rellprops-c": (_check_rellprops_c, 1e-8),
    "mutwid-a": (_check_mutwid_a, 1e-8),
    "mutwid-b": (_check_mutwid_b, 1e-8),
    "mutwid-c": (_check_mutwid_c, 1e-8),
    "gab-i": (_check_gab("i"), 1e-8),
    "gab-ii": (_check_gab("ii"), 1e-8),
    "gab-iii": (_check_gab("iii"), 1e-8),
    "gab-iv": (_check_gab("iv"), 1e-8),
    "gab-v": (_check_gab("v"), 1e-8),
    "gabints": (_check_gabints, 1e-8),
    "rext": (_check_rext, 1e-8),
    "lemma33": (_check_lemma33, 1e-6),
    "watson-lemma": (_check_watson_lemma, 1e-6),
    "s-transform": (_check_s_transform, 1e-8),
    "t-transform": (_check_t_transform, 1e-9),
    "consistency-newomega": (_consistency("NEWOMEGA", "NEWOMEGA_MU_FORM"), 1e-7),
    "consistency-newomega2": (_consistency("NEWOMEGA2", "NEWOMID"), 1e-7),
    "consistency-newf": (_consistency("NEWF", "NEWF_MU_FORM"), 1e-7),
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name, scene=None, tol=None) -> CheckResult:
    if name not in _CHECKS:
        raise KeyError("unknown numeric check %r" % name)
    fn, default_tol = _CHECKS[name]
    sc = _coerce(scene) if scene is not None else SCENES[0]
    return CheckResult(name, sc.tau, fn(sc), tol if tol is not None else default_tol)
