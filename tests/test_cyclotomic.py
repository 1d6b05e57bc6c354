import cmath
import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockq.cyclotomic import Cyc24, ONE, ZERO, exp_pi_i, zeta_pow
from oracles import Cyc24Ref

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
elements = st.lists(rationals, min_size=8, max_size=8).map(Cyc24)


@given(elements, elements, elements)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(elements)
@settings(max_examples=100, deadline=None)
def test_inverse(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == ONE


@given(elements)
@settings(max_examples=100, deadline=None)
def test_numeric_embedding_is_multiplicative(a):
    b = zeta_pow(5) + Cyc24(2)
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_zeta_is_primitive_24th_root():
    z = zeta_pow(1)
    powers = {zeta_pow(k) for k in range(24)}
    assert len(powers) == 24
    assert z**24 == ONE
    assert z**12 == -ONE
    assert abs(z.to_complex() - cmath.exp(2j * math.pi / 24)) < 1e-12


def test_special_constants():
    i = zeta_pow(6)
    assert i * i == -ONE
    zeta3 = zeta_pow(8)
    assert zeta3 * zeta3 * zeta3 == ONE and zeta3 != ONE
    sqrt3 = 2 * zeta_pow(2) - zeta_pow(6)
    assert sqrt3 * sqrt3 == Cyc24(3)
    # -2i/sqrt(3) in closed form
    val = (Cyc24(2) - 4 * zeta_pow(4)) * Cyc24(Fraction(1, 3))
    assert val * sqrt3 == -2 * i


def test_exp_pi_i():
    assert exp_pi_i(Fraction(1)) == -ONE
    assert exp_pi_i(Fraction(1, 2)) == zeta_pow(6)
    assert exp_pi_i(Fraction(1, 3)) == zeta_pow(4)
    assert exp_pi_i(Fraction(-1, 6)) == zeta_pow(-2)
    with pytest.raises(Exception):
        exp_pi_i(Fraction(1, 5))


@given(elements)
@settings(max_examples=60, deadline=None)
def test_conjugate_fixes_rationals(a):
    prod = a * a.conjugate()
    assert prod.conjugate() == prod
    if a.is_rational():
        assert a.conjugate() == a


@given(elements)
@settings(max_examples=60, deadline=None)
def test_text_round_trip(a):
    assert Cyc24.from_text(a.to_text()) == a


# numerators and denominators large enough that sums and products need
# their gcd taken out, and the 24th roots of unity
_wide = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=360)
_mixed = st.one_of(
    st.lists(_wide, min_size=8, max_size=8).map(Cyc24),
    st.integers(0, 23).map(zeta_pow),
    elements,
)


def _normal(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1 and len(x.num) == 8


@given(_mixed, _mixed)
@settings(max_examples=100, deadline=None)
def test_integer_arithmetic_matches_the_fraction_reference(a, b):
    ra, rb = Cyc24Ref(a.c), Cyc24Ref(b.c)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb)):
        assert _normal(got) and got.c == want.c and got.to_text() == want.to_text()
    if b:
        inv = b.inverse()
        assert _normal(inv) and inv.c == rb.inverse().c
    assert (a == b) == (ra == rb)
    assert a.to_text() == ra.to_text()
    # the same element from scaled numerators, from Fractions and from text
    for twin in (Cyc24([7 * x for x in a.num], 7 * a.den), Cyc24(list(a.c)), Cyc24.from_text(a.to_text())):
        assert twin == a and hash(twin) == hash(a) and (twin.den, twin.num) == (a.den, a.num)


def test_normal_form():
    half = Cyc24(Fraction(1, 2))
    listed = Cyc24([Fraction(1, 2)] + [0] * 7)
    assert (half.den, half.num) == (listed.den, listed.num) == (2, (1, 0, 0, 0, 0, 0, 0, 0))
    assert half == listed and hash(half) == hash(listed)
    assert (ZERO.den, ZERO.num) == (1, (0,) * 8)
    x = Cyc24([4, -6, 0, 0, 0, 0, 0, 2], -8)
    assert (x.den, x.num) == (4, (-2, 3, 0, 0, 0, 0, 0, -1)) and _normal(x)
    assert x.c == (Fraction(-1, 2), Fraction(3, 4), 0, 0, 0, 0, 0, Fraction(-1, 4))
    with pytest.raises(ZeroDivisionError):
        Cyc24([1] * 8, 0)
