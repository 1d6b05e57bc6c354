"""Oracles for the array paths of the exact kernel: the array eq_to against
the coefficient-by-coefficient Cyc24 walk, _support against compress and
gcd, the lattice-compressed _conv against a naive convolution, and the
root-of-unity orbits of lerch_expand against the plain multiply chain."""

import random
from fractions import Fraction
from itertools import compress
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from mockq.cyclotomic import Cyc24, ONE, zeta_pow
from mockq.errors import GridError, PoleError, PrecisionError
from mockq.lerch import LerchSpec, _n_window, _root_order, lerch_expand
from mockq import qseries
from mockq.qseries import QSeries, _conv, _support
from oracles import lerch_exponents_fraction


# ---------------------------------------------------------------------------
# eq_to against the Cyc24 walk


def eq_to_walk(a, b, order):
    """The original eq_to: build and compare a Cyc24 at every grid point."""
    top = int(Fraction(order) * 24)
    if a.cap <= top or b.cap <= top:
        raise PrecisionError("caps too small")
    for e in range(min(a.low, b.low), top + 1):
        x = a.coeff(e)
        y = b.coeff(e)
        if x != y:
            return False, (e, x, y)
    return True, None


def _basis(k, x):
    cs = [Fraction(0)] * 8
    cs[k] = x
    return Cyc24(cs)


def _series(terms, cap):
    return QSeries.from_terms(
        [(e, _basis(k, Fraction(n, d))) for e, k, n, d in terms], cap
    )


_TERMS = st.lists(
    st.tuples(
        st.integers(-30, 130),
        st.integers(0, 7),
        st.integers(-4, 4),
        st.sampled_from([1, 2, 3, 5, 6]),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    ta=_TERMS,
    tb=_TERMS,
    order=st.sampled_from([1, 2, Fraction(5, 2), 4]),
    extra_a=st.integers(1, 60),
    extra_b=st.integers(1, 60),
    shift=st.integers(-5, 5),
    mode=st.sampled_from(["sum", "independent", "renormalised", "shifted"]),
)
def test_eq_to_matches_cyc24_walk(ta, tb, order, extra_a, extra_b, shift, mode):
    top = int(Fraction(order) * 24)
    a = _series(ta, top + extra_a)
    if mode == "sum":
        # terms of tb beyond the window change only the normalisation
        b = a + _series(tb, top + extra_b)
    elif mode == "independent":
        b = _series(tb, top + extra_b)
    elif mode == "renormalised":
        b = a.scale(3).scale(Fraction(1, 3))
        assert b.eq_to(a, order) == (True, None)
    else:
        b = a.shift(shift).truncate(top + extra_b)
        if b.cap <= top:
            return
    got = a.eq_to(b, order)
    want = eq_to_walk(a, b, order)
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        e, x, y = got[1]
        assert isinstance(x, Cyc24) and isinstance(y, Cyc24)
        assert (e, x, y) == want[1]


def test_eq_to_equal_windows_with_different_denominators():
    a = QSeries.from_terms([(0, 1), (24, 2)], 100)
    b = a + QSeries.from_terms([(80, Fraction(1, 7))], 100)
    assert a.comps[0][0] != b.comps[0][0]
    assert a.eq_to(b, 3) == (True, None)
    ok, wit = a.eq_to(b, 4)
    assert not ok and wit == (80, Cyc24(0), Cyc24(Fraction(1, 7)))


# ---------------------------------------------------------------------------
# _conv on strided supports against a naive convolution


def naive_conv(xs, ys, out_len):
    out = [0] * out_len
    nzy = [(j, y) for j, y in enumerate(ys) if y]
    for i, x in enumerate(xs):
        if x:
            for j, y in nzy:
                if i + j < out_len:
                    out[i + j] += x * y
    return out


def _strided(rng, g, offset, count, density):
    xs = [0] * (offset + g * count)
    for t in range(count):
        if rng.random() < density:
            xs[offset + g * t] = rng.randrange(-50, 51) * rng.choice([1, 1, 10**30])
    return xs


@pytest.mark.parametrize("g", [24, 48, 72])
def test_conv_strided_supports_match_naive(g):
    rng = random.Random(g)
    for case in range(40):
        # dense cases (60 lattice points, nearly all nonzero) reach the
        # Kronecker path after compression; sparse ones the schoolbook path
        count = rng.choice([3, 10, 60])
        density = rng.choice([0.3, 1.0])
        xs = _strided(rng, g, rng.randrange(0, 30), count, density)
        ys = _strided(rng, rng.choice([g, 2 * g]), rng.randrange(0, 30), count, density)
        out_len = rng.randrange(1, len(xs) + len(ys))
        if out_len % g == 0:
            out_len += 1
        assert _conv(xs, ys, out_len) == naive_conv(xs, ys, out_len), (g, case)
    # signed Kronecker edge cases: no negative entry, negatives on one side
    # only, and +-v everywhere, whose middle output digit is -bound = -60 v^2.
    # For v = 2*10^30 that bound has 208 bits, so packing without a spare
    # sign bit fails.  Each case also asks for digits past the product's end.
    nonneg = [abs(v) for v in _strided(rng, g, 5, 60, 1.0)]
    signed = _strided(rng, g, 7, 60, 1.0)
    cases = [(nonneg, [abs(v) for v in signed]), (nonneg, signed)]
    for v in (10**30, 2 * 10**30):
        big = [0] * (g * 60)
        big[::g] = [v] * 60
        cases.append((big, [-x for x in big]))
    for case, (xs, ys) in enumerate(cases):
        for out_len in (len(xs) + len(ys) - 1, len(xs) + len(ys) + 5):
            want = naive_conv(xs, ys, out_len)
            assert _conv(xs, ys, out_len) == want, (g, "edge", case, out_len)
        if case >= 2:
            assert min(want) == -60 * xs[0] ** 2


def test_conv_single_terms_and_empty():
    assert _conv([0, 0, 5], [0, 7], 4) == [0, 0, 0, 35]
    assert _conv([0, 0, 5], [0, 7], 3) == [0, 0, 0]
    assert _conv([0, 0], [1], 3) == [0, 0, 0]
    assert _conv([1], [1], 0) == []


# ---------------------------------------------------------------------------
# _support, and _conv on strides outside 24*Z


def support_naive(nums, n):
    """(first nonzero index, gcd of the offsets from it) over nums[:n]."""
    nz = list(compress(range(min(len(nums), n)), nums))
    if not nz:
        return None
    return nz[0], gcd(*(i - nz[0] for i in nz))


@settings(max_examples=300, deadline=None)
@given(
    stride=st.sampled_from([1, 5, 7, 24, 36, 288]),
    offset=st.integers(0, 40),
    picks=st.lists(st.integers(0, 30), max_size=12),
    n=st.integers(0, 9000),
    tail=st.lists(st.integers(0, 300), max_size=5),
)
@example(stride=5, offset=3, picks=[], n=200, tail=[])  # all zero
@example(stride=7, offset=3, picks=[4], n=200, tail=[])  # one nonzero: stride 0
@example(stride=5, offset=12, picks=[0, 3], n=12, tail=[])  # first nonzero at n
@example(stride=36, offset=12, picks=[1, 3], n=5, tail=[])  # first nonzero past n
@example(stride=288, offset=0, picks=[0, 2, 5], n=1000, tail=[1, 7])  # finer past n
@example(stride=1, offset=0, picks=list(range(31)), n=31, tail=[0])  # dense
def test_support_matches_compress_and_gcd(stride, offset, picks, n, tail):
    """Supports on o + stride*Z, cut at n, with nonzeros at and past n on a
    finer lattice that _support must not see."""
    nums = [0] * (offset + 31 * stride)
    for t in picks:
        nums[offset + stride * t] = (-1) ** t * (t + 1)
    if tail:
        nums += [0] * max(0, n + 301 - len(nums))
        for j in tail:
            nums[n + j] = 3
    got = _support(nums, n)
    assert got == support_naive(nums, n)
    if got is not None:
        o, g = got
        assert all(i == o if g == 0 else (i - o) % g == 0 for i in compress(range(n), nums))


@pytest.mark.parametrize("g", [1, 5, 36, 288])
def test_conv_strides_outside_24z_match_naive(g, monkeypatch):
    """Strides finer than q, prime to 24 or coarser than q^3; operands longer
    than out_len, some with nonzeros past it off the lattice.  Both the
    schoolbook and the Kronecker path are taken."""
    kron_calls = []
    kron = qseries._kron_conv
    monkeypatch.setattr(
        qseries, "_kron_conv", lambda *a: kron_calls.append(1) or kron(*a)
    )
    rng = random.Random(1000 + g)
    cases = 40
    for case in range(cases):
        count = rng.choice([3, 10, 60])
        density = rng.choice([0.3, 1.0])
        xs = _strided(rng, g, rng.randrange(0, 30), count, density)
        ys = _strided(rng, rng.choice([g, 2 * g, 3 * g]), rng.randrange(0, 30), count, density)
        out_len = rng.randrange(len(xs) // 2 + 1, len(xs) + len(ys))
        if rng.random() < 0.5:
            xs += [0] * max(0, out_len + 2 - len(xs))
            xs[out_len + 1] = 7
        assert _conv(xs, ys, out_len) == naive_conv(xs, ys, out_len), (g, case)
    assert 0 < len(kron_calls) < cases


def test_fractional_compose_power_names_the_first_off_grid_exponent():
    a = QSeries.from_terms([(4, 1), (7, -3), (9, 2)], 60)
    with pytest.raises(GridError, match=r"exponent 7/24 leaves the grid under q -> q\^1/2"):
        a.compose_power(Fraction(1, 2))


# ---------------------------------------------------------------------------
# lerch_expand orbits against the multiply chain


def lerch_chain(spec, cap):
    """The original lerch_expand: one Cyc24 multiply per term of every tail,
    with its exponents in Fraction arithmetic, not spec.num_grid/den_grid."""
    base = spec._base()
    N = _n_window(spec, cap)
    terms = []
    for n in range(-N, N + 1):
        e0 = 24 * (spec.A * n * n + spec.B * n + spec.C) + spec.rho_qpow * n
        p = 24 * (spec.D * n + spec.E)
        assert e0.denominator == 1 and p.denominator == 1
        e0, p = int(e0), int(p)
        if (e0 if p >= 0 else e0 - p) >= cap:
            continue
        coef = base**n
        c = spec.c_const
        if p > 0:
            ck, e = coef, e0
            while e < cap:
                terms.append((e, ck))
                ck = ck * c
                e += p
        elif p == 0:
            terms.append((e0, coef * (ONE - c).inverse()))
        else:
            cinv = c.inverse()
            ck, e = coef * cinv, e0 - p
            while e < cap:
                terms.append((e, -ck))
                ck = ck * cinv
                e -= p
    return QSeries.from_terms(terms, cap)


_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=300, deadline=None)
@given(
    A=st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8),
    B=_Q, C=_Q, D=_Q, E=_Q,
    rho_qpow=st.integers(-30, 30),
    cap=st.integers(-200, 3000),
)
def test_n_window_holds_every_contributing_term(A, B, C, D, E, rho_qpow, cap):
    """Past N no term reaches below cap: its numerator exponent, and its
    numerator less a negative denominator exponent, are both >= cap."""
    spec = LerchSpec(A=A, B=B, C=C, rho_qpow=rho_qpow, D=D, E=E)
    N = _n_window(spec, cap)
    for n in [m for k in range(N + 1, 3 * N + 20) for m in (k, -k)]:
        e0 = 24 * (A * n * n + B * n + C) + rho_qpow * n
        p = 24 * (D * n + E)
        assert e0 >= cap and e0 - min(p, 0) >= cap


_EXPONENT = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=144),
)


@settings(max_examples=300, deadline=None)
@given(
    A=st.one_of(
        st.integers(1, 50),
        st.fractions(min_value=Fraction(1, 144), max_value=50, max_denominator=144),
    ),
    B=_EXPONENT, C=_EXPONENT, D=_EXPONENT, E=_EXPONENT,
    rho_qpow=st.integers(-100, 100),
)
@example(A=Fraction(72, 48), B=Fraction(-24, 48), C=0, D=0, E=0, rho_qpow=0)
@example(A=Fraction(1, 48), B=Fraction(5, 7), C=Fraction(-1, 16), D=Fraction(1, 36),
         E=Fraction(7, 5), rho_qpow=-13)
def test_lerch_exponents_match_the_fraction_bookkeeping(A, B, C, D, E, rho_qpow):
    """The integer numerators and denominators of LerchSpec.__post_init__
    give the same (_num, _den) as the same bookkeeping in Fractions, for
    denominators that divide 24, share a factor with it or are prime to it,
    and for int and Fraction fields alike."""
    spec = LerchSpec(A=A, B=B, C=C, rho_qpow=rho_qpow, D=D, E=E)
    assert (spec._num, spec._den) == lerch_exponents_fraction(spec)
    assert all(type(getattr(spec, f)) is Fraction for f in "ABCDE")


# (c, its order as a root of unity) with c = zeta_24^k of order 24/gcd(k, 24)
_ROOTS = [(ONE, 1), (Cyc24(-1), 2), (zeta_pow(8), 3), (zeta_pow(6), 4),
          (zeta_pow(3), 8), (zeta_pow(5), 24)]
_NON_ROOTS = [Cyc24(2), ONE + zeta_pow(1), Cyc24(Fraction(1, 2))]


@pytest.mark.parametrize("c,order", _ROOTS)
def test_root_order(c, order):
    assert _root_order(c) == order


@pytest.mark.parametrize("c", _NON_ROOTS)
def test_root_order_none_takes_the_chain(c):
    assert _root_order(c) is None


@pytest.mark.parametrize("c", [c for c, _ in _ROOTS] + _NON_ROOTS)
def test_lerch_orbit_matches_multiply_chain(c):
    cap = 24 * 12
    specs = [
        # p = 24*(n + 1/8) > 0 for n >= 0 and < 0 for n < 0: both tails
        LerchSpec(A=Fraction(1, 2), B=Fraction(1, 2), rho_const=zeta_pow(16),
                  c_const=c, D=1, E=Fraction(1, 8)),
        LerchSpec(A=1, B=1, rho_const=zeta_pow(2), rho_qpow=3, c_const=c,
                  D=2, E=1, global_sign=1),
    ]
    for spec in specs:
        got = lerch_expand(spec, cap)
        want = lerch_chain(spec, cap)
        assert got.eq_to(want, 11) == (True, None)
        assert got.dump() == want.dump()


def test_lerch_pole_at_c_one_stays():
    spec = LerchSpec(A=Fraction(1, 2), B=Fraction(1, 2), c_const=ONE, D=1, E=0)
    with pytest.raises(PoleError):
        lerch_expand(spec, 240)
    # the same p == 0 term with c != 1 is a finite constant
    spec = LerchSpec(A=Fraction(1, 2), B=Fraction(1, 2), c_const=zeta_pow(8), D=1, E=0)
    assert lerch_expand(spec, 240).dump() == lerch_chain(spec, 240).dump()


# ---------------------------------------------------------------------------
# the kernel's constants stay on integers


def test_pentagonal_lerch_expand_and_a_root_product_make_no_fraction(monkeypatch):
    """Cyc24 holds integer numerators over one denominator, so neither the
    pentagonal series of euler_E nor a product of roots of unity builds a
    Fraction on the way."""
    spec = LerchSpec(A=Fraction(3, 2), B=Fraction(-1, 2), c_const=0)
    a, b = zeta_pow(5), zeta_pow(9)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    series = lerch_expand(spec, 14400)
    prod = a * b
    monkeypatch.undo()
    assert made == []
    assert prod == zeta_pow(14)
    assert series.coeff(0) == ONE and series.coeff(24) == -ONE and series.coeff(5 * 24) == ONE
