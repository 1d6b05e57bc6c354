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
  the adaptive quadrature of `numeric.mordell_j`.
"""

import cmath
import math

from scipy import integrate

from mockq.errors import ConvergenceError
from mockq.etatheta import _grid_mult
from mockq.numeric import _coerce, _mordell_ratio
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


def mordell_j_grid(idx, scene) -> complex:
    """j_idx(tau) by a fixed-step Simpson rule on the interval that
    `numeric.mordell_j` integrates over."""
    sc = _coerce(scene)
    tau = sc.tau
    X = math.sqrt(math.log(1 / sc.series_term_floor) / (3 * math.pi * tau.imag)) + 1.0

    def f(x):
        return cmath.exp(3j * math.pi * tau * x * x) * _mordell_ratio(idx, tau, x)

    n = 16001
    h = X / (n - 1)
    vals = [f(k * h) for k in range(n)]
    s = vals[0] + vals[-1]
    s += 4 * sum(vals[k] for k in range(1, n, 2))
    s += 2 * sum(vals[k] for k in range(2, n - 1, 2))
    return s * h / 3
