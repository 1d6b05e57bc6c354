import cmath
import math
import random
from fractions import Fraction
from functools import cache
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from mockq.cyclotomic import Cyc24
from mockq.errors import ConvergenceError, PoleError
from mockq.mocktheta import f_eulerian, omega_eulerian
from mockq.numeric import (
    CHECK_NAMES,
    E_num,
    F_num,
    NumericScene,
    R_num,
    R_vec_mordell,
    SCENES,
    beta_num,
    eichler_gab,
    eichler_integral,
    eta_num,
    g_ab_num,
    mordell_j,
    mu_num,
    mu_tilde_modular_check,
    mu_tilde_num,
    qseries_eval,
    run_check,
    theta_num,
    _G012_HOOKS,
    _eichler_terms_from_taubar,
    _eichler_terms_from_zero,
    _erfcx,
    _U_PROBES,
    _V_PROBES,
    _float_terms,
    _g012_on_axis,
    _g012_terms,
    _gab_terms,
    _off_lattice,
    _qk15,
    _quad,
    _window,
)
from mockq.qseries import QSeries
from oracles import (
    E_mpmath,
    R_mpmath,
    eichler_from_zero_quad,
    eichler_quad_from_taubar,
    eichler_tail_terms_mpmath,
    eichler_taubar_terms_mpmath,
    erfcx_mpmath,
    g012_num,
    g_ab_anywhere,
    g_eval,
    mordell_j_grid,
    mordell_j_quad,
    qseries_eval_terms,
)

SC = NumericScene(0.25 + 1j)


def test_scene_validation():
    with pytest.raises(ValueError):
        NumericScene(0.5 - 1j)
    with pytest.raises(ValueError):
        NumericScene(1j, quad_rel_tol=-1)
    # the truncation windows solve for terms below the floor
    with pytest.raises(ValueError):
        NumericScene(1j, series_term_floor=1.0)


def test_E_and_beta_special_values():
    assert E_num(0) == 0
    assert beta_num(0) == 1
    assert abs(E_num(3) - (1 - beta_num(9))) < 1e-12
    assert abs(E_num(5.0) - 1) < 1e-12
    # odd function, complex consistency with the defining integral
    z = 0.7
    quad_val, _ = integrate.quad(lambda u: 2 * math.exp(-math.pi * u * u), 0, z)
    assert abs(E_num(z) - quad_val) < 1e-12
    zc = 0.3 + 0.4j
    series = sum(
        (-math.pi) ** n * zc ** (2 * n + 1) / (math.factorial(n) * (n + 0.5))
        for n in range(40)
    )
    assert abs(E_num(zc) - series) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    re=st.floats(min_value=-4, max_value=4),
    im=st.floats(min_value=-4, max_value=4),
)
@example(re=0.3, im=0.0)
@example(re=-4.0, im=4.0)
def test_E_matches_a_40_digit_erf(re, im):
    want = E_mpmath(complex(re, im))
    assert abs(E_num(complex(re, im)) - want) <= 1e-13 * max(1.0, abs(want))


@settings(max_examples=300, deadline=None)
@given(
    log_r=st.floats(min_value=-2, max_value=2),
    theta=st.floats(min_value=-math.pi / 4, max_value=math.pi / 4),
)
@example(log_r=-2.0, theta=0.0)
@example(log_r=2.0, theta=math.pi / 4)
@example(log_r=2.0, theta=-math.pi / 4)
def test_erfcx_matches_a_40_digit_erfc(log_r, theta):
    """_erfcx(s) = w(i s), w the Faddeeva function, on the sector |arg s| <= pi/4
    with |s| in [0.01, 100], where the Eichler sums call it: in complex
    arithmetic, and in real arithmetic at the real s = |s|."""
    r = 10.0**log_r
    s = cmath.rect(r, theta)
    want = erfcx_mpmath(s)
    assert abs(_erfcx(s) - want) <= 1e-14 * abs(want), s
    want = erfcx_mpmath(r).real
    got = _erfcx(r)
    assert isinstance(got, float) and abs(got - want) <= 1e-14 * want, r


def test_eta_against_high_precision_product():
    tau = 1j
    with mpmath.workdps(40):
        q = mpmath.exp(2j * mpmath.pi * tau)
        val = mpmath.exp(2j * mpmath.pi * tau / 24)
        for n in range(1, 200):
            val *= 1 - q**n
        want = complex(val)
    assert abs(eta_num(NumericScene(tau)) - want) < 1e-12


def test_theta_matches_jtp_product_form():
    for z, tau in [
        (0.2 + 0.1j, 1j),
        (0.3, 0.25 + 1j),
        (-0.1 + 0.2j, 0.1 + 0.8j),
        (0.45 + 0.05j, -0.3 + 1.2j),
        (0.05 + 0.3j, 0.5 + 2j),
    ]:
        q = cmath.exp(2j * math.pi * tau)
        zeta = cmath.exp(2j * math.pi * z)
        prod = -1j * q ** (1 / 8) * zeta ** (-0.5)
        for n in range(1, 200):
            prod *= (1 - q**n) * (1 - zeta * q ** (n - 1)) * (1 - q**n / zeta)
        assert abs(theta_num(z, NumericScene(tau)) - prod) < 1e-10, (z, tau)


def test_mu_pole_detection():
    with pytest.raises(PoleError):
        mu_num(0.0, 0.2 + 0.1j, SC)


def test_R_elliptic_properties():
    u = 0.3 + 0.2j
    tau = SC.tau
    assert abs(R_num(u + 1, SC) + R_num(u, SC)) < 1e-10
    lhs = R_num(u, SC) + cmath.exp(-2j * math.pi * u - 1j * math.pi * tau) * R_num(u + tau, SC)
    assert abs(lhs - 2 * cmath.exp(-1j * math.pi * u - 1j * math.pi * tau / 4)) < 1e-9
    assert abs(R_num(-u, SC) - R_num(u, SC)) < 1e-12


@pytest.mark.parametrize("u", [0.3 + 0.2j, 0.1 - 0.4j, 0.25 + 0.9j])
@pytest.mark.parametrize("scene", SCENES, ids=lambda sc: repr(sc.tau))
def test_R_matches_a_60_digit_sum(u, scene):
    want = R_mpmath(u, scene.tau)
    assert abs(R_num(u, scene) - want) <= 1e-14 * max(1.0, abs(want))


def test_mu_tilde_symmetries():
    u, v = 0.3 + 0.2j, 0.05 + 0.3j
    base = mu_tilde_num(u, v, SC)
    assert abs(mu_tilde_num(-u, -v, SC) - base) < 1e-9
    assert abs(mu_tilde_num(v, u, SC) - base) < 1e-9


def test_mu_tilde_modular_identity_matrix():
    res = mu_tilde_modular_check(((1, 0), (0, 1)), 0.2 + 0.1j, 0.05 + 0.3j, SC)
    assert res < 1e-12


def test_mu_tilde_modular_requires_unimodular():
    with pytest.raises(ValueError):
        mu_tilde_modular_check(((2, 0), (0, 1)), 0.1j + 0.2, 0.3, SC)


def test_g012_hooks():
    for idx, (c, a, b) in enumerate(
        [(cmath.exp(-1j * math.pi / 3), 1 / 3, 0.5), (-1.0, 1 / 6, 0.0), (1.0, 1 / 3, 0.0)]
    ):
        for z in (0.2 + 0.8j, -0.15 + 1.3j):
            direct = g012_num(idx, z)
            hook = c * g_ab_num(a, b, NumericScene(3 * z))
            assert abs(direct - hook) < 1e-11, (idx, z)


def test_eichler_termwise_vs_quadrature():
    a, b = 1 / 3, 0.0
    tw = eichler_gab(a, b, SC)
    qd = eichler_quad_from_taubar(lambda z: g_eval(_gab_terms(a, b), z), SC)
    assert abs(tw - qd) < 1e-9


U, V = 0.3 + 0.2j, 0.05 + 0.3j

# every series that sums over a window solved from its Gaussian envelope
WINDOWED = {
    "eta_num": eta_num,
    "theta_num": lambda sc: theta_num(V, sc),
    "mu_num": lambda sc: mu_num(U, V, sc),
    "R_num": lambda sc: R_num(U, sc),
    "R_num-wide": lambda sc: R_num(U + sc.tau, sc),
    "g_ab_num": lambda sc: g_ab_num(0.3, 0.45, sc),
    "eichler_gab": lambda sc: eichler_gab(1 / 3, 0, sc),
    "eichler_integral-taubar": eichler_integral,
    "eichler_integral-zero": lambda sc: eichler_integral(sc, lower="zero"),
    "F_num": F_num,
}


@pytest.mark.parametrize("series", WINDOWED)
def test_series_respect_the_scene_term_budget(series):
    # every window at this scene holds more than 4 summands
    with pytest.raises(ConvergenceError):
        WINDOWED[series](NumericScene(0.25 + 1j, max_terms=4))


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=0.2, max_value=2.0),
)
# at Im(tau) = 5 the windows shrink to one or two indices
@example(re=0.1, im=5.0)
# tau = U is a pole of mu(U, V; tau), inside the sampled box
@example(re=0.3, im=0.2)
def test_windows_hold_at_a_lower_floor(re, im):
    sc = NumericScene(complex(re, im))
    deep = NumericScene(sc.tau, series_term_floor=1e-30)
    for name, value_at in WINDOWED.items():
        try:
            value = value_at(sc)
        except PoleError:
            # only mu, and only at its pole, may raise; then at both floors
            assert name == "mu_num" and abs(sc.tau - U) < 1e-14, (name, sc.tau)
            with pytest.raises(PoleError):
                value_at(deep)
            continue
        # F_num and eichler_integral return triples, every other entry one value
        pairs = zip(*(v if isinstance(v, tuple) else (v,) for v in (value, value_at(deep))))
        for v, d in pairs:
            assert abs(v - d) <= 1e-15 * max(1.0, abs(v)), (name, sc.tau)


def test_from_zero_integrand_respects_the_scene_term_budget():
    # at tau = 0.25+i each tail window holds 5 summands, and the integrand's
    # windows for g_{1/3,1/2}, g_{1/6,0} and g_{1/3,0} at Im = 1/2 hold 11
    sc = NumericScene(0.25 + 1j, max_terms=8)
    with pytest.raises(ConvergenceError):
        eichler_integral(sc, lower="zero")
    assert all(eichler_integral(NumericScene(sc.tau, max_terms=11), lower="zero"))


def test_g_eval_raises_when_the_term_budget_runs_out():
    # near the real axis 4000 terms do not reach the floor: no truncated sum
    with pytest.raises(ConvergenceError):
        g_eval(_gab_terms(1 / 3, 0.0), 1e-7j)
    # within the budget the direct sum agrees with the modular inversion:
    # g2(i t) = g_{1/3,0}(3 i t)
    value = g_eval(_gab_terms(1 / 3, 0.0), 3e-3j)
    assert abs(value - _g012_on_axis(SC)(1e-3)[2]) < 1e-12


@settings(max_examples=200, deadline=None)
@given(t=st.floats(min_value=0.01, max_value=1.0, exclude_min=True))
# the branch point 3t = 1/2, and the floats on either side of it
@example(t=1 / 6)
@example(t=math.nextafter(1 / 6, 0))
@example(t=math.nextafter(1 / 6, 1))
@example(t=1.0)
def test_g012_on_axis_matches_the_g_ab_series(t):
    """The merged rows of _g012_on_axis against each g_idx(i t) = k g_{a,b}(3 i t)
    summed on its own by g_ab_anywhere; below 3t = 1/2 both read the modular
    inversion, whose prefactor (3t)^(-3/2) scales the floor."""
    got = _g012_on_axis(SC)(t)
    tol = 1e-15 * max(1.0, (3 * t) ** -1.5)
    for idx, (k, a, b) in enumerate(_G012_HOOKS):
        want = k * g_ab_anywhere(a, b, 3j * t)
        assert abs(got[idx] - want) <= tol, (idx, got[idx], want)


def test_mordell_quad_vs_grid():
    j = mordell_j(NumericScene(1j))
    for idx in (1, 2, 3):
        q2 = mordell_j_grid(idx, NumericScene(1j))
        assert abs(j[idx - 1] - q2) < 1e-9, idx


def test_mordell_j3_real_at_imaginary_tau():
    val = mordell_j(NumericScene(1j))[2]
    assert abs(val.imag) < 1e-10


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 13, 14, 21, 22])
def test_qk15_integrates_polynomials_exactly(degree):
    """The 15-point Kronrod rule is exact to degree 22: a polynomial with
    complex coefficients against its exact integral in Fraction arithmetic,
    relative to the integral of the sum of the terms' moduli."""
    rng = random.Random(degree)
    coefs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)]
    a, b = 0.25, 1.5
    exact = [Fraction(0), Fraction(0)]
    scale = 0.0
    for k, c in enumerate(coefs):
        span = (Fraction(b) ** (k + 1) - Fraction(a) ** (k + 1)) / (k + 1)
        exact[0] += Fraction(c.real) * span
        exact[1] += Fraction(c.imag) * span
        scale += abs(c) * float(span)
    (got,), _ = _qk15(lambda t: (sum(c * t**k for k, c in enumerate(coefs)),), a, b)
    assert abs(got - complex(float(exact[0]), float(exact[1]))) <= 1e-15 * scale


def test_quad_raises_past_its_interval_budget():
    # 1e5 periods on [0, 1]: no interval converges before 400 of them exist
    with pytest.raises(ConvergenceError, match="400 intervals"):
        _quad(lambda t: (cmath.exp(2e5j * math.pi * t),), 1.0, SC)


# 40.5 half-periods of e^(40 pi i t) on [0, HI]: the oscillating integral is
# (e^(40.5 pi i) - 1)/(40 pi i), about 0.011 in modulus
HI = 1.0125


def _poly(t):
    return 3 * t * t - 2 * t + 0.5


# (integrand, exact integral over [0, HI]) of each component
_POLY = (_poly, HI**3 - HI**2 + 0.5 * HI)
_WAVE = (
    lambda t: cmath.exp(40j * math.pi * t),
    (cmath.exp(40j * math.pi * HI) - 1) / (40j * math.pi),
)
# sqrt(t): qk15 converges only algebraically at 0
_ROOT = (math.sqrt, 2 / 3 * HI**1.5)


@pytest.mark.parametrize(
    "components",
    [((1e-6, _POLY), (1.0, _WAVE)), ((1e4, _POLY), (1e-5, _ROOT)), ((1e3, _POLY), (1e-6, _WAVE))],
    ids=["tiny-polynomial", "tiny-root", "tiny-wave"],
)
def test_quad_meets_each_component_tolerance(components):
    """One mesh for a vector whose components differ in scale and difficulty:
    each component lands within max(1e-13, quad_rel_tol * |its integral|) of
    its exact integral.  A mesh refined by the largest raw estimate never
    reaches the small root's tolerance under the large polynomial's 50-ulp
    floors, and raises ConvergenceError."""
    got = _quad(lambda t: tuple(s * fn(t) for s, (fn, _) in components), HI, SC)
    for g, (s, (_, exact)) in zip(got, components):
        w = s * exact
        assert abs(g - w) <= max(1e-13, SC.quad_rel_tol * abs(w)), (g, w)


def test_quad_raises_on_a_nan_component():
    # the first component converges at once; a NaN in the second never passes
    with pytest.raises(ConvergenceError, match="400 intervals"):
        _quad(lambda t: (_poly(t), complex(math.nan) if t > 0.7 else 1j), 1.0, SC)


# Im(tau) down to 0.08; at the last scene the parent's scipy quadrature of the
# from-0 Eichler integral missed a 30-digit mpmath value by 3.6e-15 relative
_rng7 = random.Random(7)
QUAD_TAUS = (
    [s.tau for s in SCENES]
    + [complex(_rng7.uniform(-0.5, 0.5), _rng7.uniform(0.08, 2.0)) for _ in range(10)]
    + [0.29665096795997037 + 0.1925623668762264j]
)


@pytest.mark.parametrize("tau", QUAD_TAUS, ids=repr)
def test_quadratures_match_scipy(tau):
    """The Mordell integrals and the whole Eichler integral from 0 against
    scipy's QUADPACK, which integrates the from-0 integrand up to infinity
    with no erfcx tail."""
    sc = NumericScene(tau)
    for idx, got in enumerate(mordell_j(sc), 1):
        want = mordell_j_quad(idx, sc)
        assert abs(got - want) <= 2e-15 * abs(want), ("j", idx)
    for idx, got in enumerate(eichler_integral(sc, lower="zero")):
        want = eichler_from_zero_quad(idx, sc)
        assert abs(got - want) <= 2e-15 * abs(want), ("from 0", idx)


def test_qseries_eval_geometric():
    s = QSeries.from_terms([(24 * k, 1) for k in range(200)], 24 * 200)
    tau = 0.05 + 0.8j
    q = cmath.exp(2j * math.pi * tau)
    assert abs(qseries_eval(s, tau) - 1 / (1 - q)) < 1e-12


def _basis_term(e, k, num, den):
    cs = [Fraction(0)] * 8
    cs[k] = Fraction(num, den)
    return e, Cyc24(cs)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.integers(-240, 600),
            st.integers(0, 7),
            st.integers(-9, 9),
            st.sampled_from([1, 2, 3, 7, 24]),
        ),
        max_size=40,
    ),
    cap=st.integers(-200, 700),
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=0.2, max_value=2.0),
)
def test_qseries_eval_equals_the_term_walk(terms, cap, re, im):
    """Several components, rational coefficients and negative exponents: the
    array reading gives the per-term evaluation's value, bit for bit."""
    s = QSeries.from_terms([_basis_term(*t) for t in terms], cap)
    tau = complex(re, im)
    assert qseries_eval(s, tau) == qseries_eval_terms(s, tau)


@cache
def _eulerian(name, order):
    """f or omega from its Eulerian definition, to q^order."""
    return (f_eulerian if name == "f" else omega_eulerian)(24 * order + 1)


@pytest.mark.parametrize("scene", SCENES, ids=lambda sc: repr(sc.tau))
def test_qseries_eval_equals_the_term_walk_at_the_F_points(scene):
    tau = scene.tau
    for name in ("f", "omega"):
        series = _eulerian(name, 220)
        for point in (tau, tau / 2, (tau + 1) / 2):
            assert qseries_eval(series, point) == qseries_eval_terms(series, point), (name, point)


@settings(max_examples=40, deadline=None)
@given(
    idx=st.sampled_from([0, 1, 2]),
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=0.2, max_value=2.0),
)
@example(idx=0, re=0.5, im=0.2)
@example(idx=1, re=0.0, im=5.0)
def test_eichler_tail_terms_match_incomplete_gamma(idx, re, im):
    """Every term of the Eichler-from-0 tail in eichler_integral's window,
    summed alone (a zero integrand below i*c), against mpmath's gammainc."""
    sc = NumericScene(complex(re, im))
    c = min(1.0, im)
    rate = 3 * math.pi * c
    M = _window(sc, rate, 2 * rate * _G012_HOOKS[idx][1])
    terms = list(islice(_g012_terms(idx), 2 * M + 1))
    for term, want in zip(terms, eichler_tail_terms_mpmath(terms, sc.tau, c)):
        (got,) = _eichler_terms_from_zero([[term]], sc, lambda t: (0j,), c)
        assert abs(got - want) <= 1e-14 * abs(want), (term, got, want)


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=0.2, max_value=2.0),
)
@example(re=0.0, im=0.2)
@example(re=0.0, im=2.0)
@example(re=0.5, im=0.2)
def test_eichler_taubar_terms_match_a_40_digit_erfc(re, im):
    """Every term of the from -conj(tau) windows of gabints, rext and G, summed
    alone, against mpmath's erfc.  Beyond 1e-14, a term may carry the rounding
    of its exponents pi lam Re(tau) and pi lam Im(tau) in double (about 1.2 ulp
    of each), which the real erfcx path does not touch."""
    tau = complex(re, im)
    sc = NumericScene(tau)
    windows = []
    for a, b in ((1 / 3, 0.0), (0.0, 2 / 3)):
        M = _window(sc, math.pi * im, 2 * math.pi * im * abs(a))
        windows.append(islice(_gab_terms(a, b), 2 * M + 1))
    for idx in range(3):
        rate = 3 * math.pi * im
        M = _window(sc, rate, 2 * rate * _G012_HOOKS[idx][1])
        windows.append(islice(_g012_terms(idx), 2 * M + 1))
    for terms in map(list, windows):
        for term, want in zip(terms, eichler_taubar_terms_mpmath(terms, tau)):
            got = _eichler_terms_from_taubar([term], tau)
            exponents = math.pi * term[0] * (abs(re) + im)
            tol = 1e-14 + 2 * math.ulp(1.0) * exponents
            assert abs(got - want) <= tol * abs(want), (term, got, want)


def test_qseries_eval_reads_each_series_once_into_a_bounded_cache():
    s = QSeries.from_terms([(24 * k, 1) for k in range(50)], 24 * 50)
    _float_terms.cache_clear()
    qseries_eval(s, 1j)
    qseries_eval(s, 0.25 + 1j)
    assert _float_terms.cache_info().hits == 1
    for k in range(100):
        qseries_eval(QSeries.from_terms([(24 * k, 1)], 24 * 200), 1j)
    info = _float_terms.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


# tau = 0.3+0.2i is the first u probe, a pole of mu in u; tau = 0.05+0.3i the
# first v probe, where vartheta(v) = 0; tau = 0.2+0.1i mutwid-b's first u probe
COLLISIONS = [0.3 + 0.2j, 0.05 + 0.3j, 0.2 + 0.1j, 0.3 + 0.2j + 4e-7, -0.7 + 0.2j]


@pytest.mark.parametrize("tau", COLLISIONS, ids=repr)
@pytest.mark.parametrize("name", ["mutwid-a", "mutwid-b", "mutwid-c"])
def test_mutwid_probes_move_off_the_lattice(name, tau):
    r = run_check(name, tau)
    assert r.passed, (name, tau, r.residual)


def test_probes_keep_their_first_choice_off_the_lattice():
    for sc in SCENES:
        assert _off_lattice(_U_PROBES, sc.tau) == _U_PROBES[0]
        assert _off_lattice(_V_PROBES, sc.tau) == _V_PROBES[0]
    # 2e-6 from the lattice point tau: far enough
    assert _off_lattice(_U_PROBES, 0.3 + 0.2j + 2e-6j) == _U_PROBES[0]
    assert _off_lattice(_U_PROBES, 0.3 + 0.2j) == _U_PROBES[1]
    # 0.05+0.3i = 1 + (tau - 1) is a lattice point for tau = 1.05+0.3i
    assert _off_lattice(_V_PROBES, 1.05 + 0.3j) == _V_PROBES[1]
    with pytest.raises(PoleError):
        _off_lattice(_U_PROBES[:1], 0.3 + 0.2j)


def test_run_check_unknown_name():
    with pytest.raises(KeyError):
        run_check("no-such-check", SC)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_each_check_passes_at_default_scene(name):
    r = run_check(name, SC)
    assert r.passed, (name, r.residual)


# Im(tau) = 0.05 and 0.0575 lie far below the fixed scenes
@pytest.mark.parametrize(
    "tau", [s.tau for s in SCENES] + [-0.2 + 0.05j, -0.3489 + 0.0575j], ids=repr
)
def test_F_matches_the_eulerian_definitions(tau):
    """F from its mu-representation rows against f and omega summed from their
    Eulerian definitions to q^800, each entry read straight from its
    definition: f1 from omega(q^(1/2)), f2 from omega(-q^(1/2))."""
    q3 = cmath.exp(2j * math.pi * tau / 3)
    want = (
        cmath.exp(-2j * math.pi * tau / 24) * qseries_eval(_eulerian("f", 800), tau),
        2 * q3 * qseries_eval(_eulerian("omega", 800), tau / 2),
        2 * q3 * qseries_eval(_eulerian("omega", 800), (tau + 1) / 2),
    )
    for i, (got, w) in enumerate(zip(F_num(tau), want)):
        assert abs(got - w) <= 1e-10 * max(1.0, abs(w)), (i, got, w)


_rng = random.Random(5)
SMALL_IM_TAUS = [complex(_rng.uniform(-0.5, 0.5), _rng.uniform(0.03, 0.2)) for _ in range(20)]


@pytest.mark.parametrize("name", ["watson-lemma", "s-transform", "t-transform"])
def test_F_checks_hold_off_the_fixed_scenes(name):
    """The checks that read F pass near the real axis and at 2.79+0.46i, where
    a fixed-order Eulerian F missed by up to 2e-5."""
    fails = [
        (tau, r.residual)
        for tau in SMALL_IM_TAUS + [2.79 + 0.46j]
        if not (r := run_check(name, tau)).passed
    ]
    assert fails == []


def _watson_remainder(sc):
    """(-i tau)^(-1/2) F(-1/tau) - S F(tau), the remainder in Watson's
    transformation; S swaps the first two entries and negates the third."""
    pre = 1 / cmath.sqrt(-1j * sc.tau)
    f_s, f = F_num(sc.at(-1 / sc.tau)), F_num(sc)
    return (pre * f_s[0] - f[1], pre * f_s[1] - f[0], pre * f_s[2] + f[2])


def test_watson_assignment_reported():
    # R(tau) = 4 sqrt(3) sqrt(-i tau) (j2, -j1, j3); the swapped vector
    # (j1, -j2, j3) agrees with it only at tau = i
    for sc in SCENES:
        target = _watson_remainder(sc)
        miss = max(abs(x - t) for x, t in zip(R_vec_mordell(sc), target))
        assert miss < 1e-6, sc.tau
        if sc.tau == 1j:
            continue
        pre = 4 * math.sqrt(3) * cmath.sqrt(-1j * sc.tau)
        j1, j2, j3 = mordell_j(sc)
        swapped = (pre * j1, -pre * j2, pre * j3)
        assert max(abs(x - t) for x, t in zip(swapped, target)) > 1e-3, sc.tau
