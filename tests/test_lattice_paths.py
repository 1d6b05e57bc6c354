"""The lattice-compressed and in-place producers of the exact kernel against
their references in `oracles`: pochhammer_inf, pochhammer_fin, inv,
div_binomial, dissect, compose_power and from_terms must give the same
series, `low` and `cap` included.  A Pochhammer product with several starts
is one binomial chain; it must equal the product of one chain per start
wherever both are known.  theta_Theta, a triple product sum, must equal
that product too."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mockq.cyclotomic import ONE, Cyc24, zeta_pow
from mockq.etatheta import Monomial, _grid_mult, pochhammer_fin, pochhammer_inf, theta_Theta
from mockq.qseries import QSeries
from mockq.registry import _CRANK_BATTERY, _JTP_BATTERY, _THETAID_BATTERY, _z_monomial
from oracles import (
    compose_power_loop,
    dissect_terms,
    div_binomial_full_grid,
    from_terms_per_term,
    inv_full_grid,
    pochhammer_fin_dense,
    pochhammer_inf_chains,
    pochhammer_inf_dense,
    theta_Theta_chains,
)


def same(a, b):
    return (a.low, a.cap, a.dump()) == (b.low, b.cap, b.dump())


def _basis(k, x):
    cs = [Fraction(0)] * 8
    cs[k] = x
    return Cyc24(cs)


_ROOT = st.integers(0, 23).map(zeta_pow)
_SMALL_RATIONAL = st.builds(
    lambda p, q: Cyc24(Fraction(p, q)),
    st.integers(-3, 3).filter(bool),
    st.integers(1, 3),
)


@settings(max_examples=150, deadline=None)
@given(
    const=st.one_of(_ROOT, _SMALL_RATIONAL),
    pow_=st.integers(-72, 72),
    step=st.sampled_from([6, 8, 12, 24, 48, 72]),
    cap=st.integers(1, 800),
)
def test_pochhammer_inf_matches_the_dense_chain(const, pow_, step, cap):
    a = Monomial(const, pow_)
    assert same(pochhammer_inf(a, step, cap), pochhammer_inf_dense(a, step, cap))


# constants with several components, each a small rational: a sum of two
# or three distinct basis elements z^k with non-unit denominators possible
_MULTI_COMPONENT = st.lists(
    st.tuples(st.integers(0, 7), st.integers(-3, 3).filter(bool), st.integers(1, 4)),
    min_size=2,
    max_size=3,
    unique_by=lambda t: t[0],
).map(lambda parts: sum((_basis(k, Fraction(n, d)) for k, n, d in parts), Cyc24(0)))


@settings(max_examples=200, deadline=None)
@given(
    const=st.one_of(_ROOT, _SMALL_RATIONAL, _MULTI_COMPONENT),
    pow_=st.integers(-72, 72),
    step=st.sampled_from([-24, 0, 6, 12, 24, 48, 72]),
    n=st.integers(0, 8),
    cap=st.integers(1, 600),
)
@example(const=Cyc24(1), pow_=-24, step=24, n=3, cap=200)  # the factor 1 - 1 = 0
@example(
    const=_basis(1, Fraction(1, 2)) + _basis(5, Fraction(-2, 3)), pow_=-30, step=12, n=6, cap=300
)
def test_pochhammer_fin_matches_one_mul_binomial_per_factor(const, pow_, step, n, cap):
    # factor exponents pow_ + k*step run through negative, zero and positive
    a = Monomial(const, pow_)
    assert same(pochhammer_fin(a, step, n, cap), pochhammer_fin_dense(a, step, n, cap))


def neg_total(starts, exps):
    """The total of the negative factor exponents of all starts: a product
    of one chain per start built to cap + len(starts)*neg_total is still
    exact below cap."""
    return -sum(e for a in starts for e in exps(a) if e < 0)


_STARTS = st.lists(
    st.tuples(st.one_of(_ROOT, _SMALL_RATIONAL), st.integers(-72, 150)), min_size=1, max_size=3
).map(lambda zs: tuple(Monomial(c, p) for c, p in zs))


@settings(max_examples=100, deadline=None)
@given(starts=_STARTS, step=st.sampled_from([6, 8, 12, 24, 48, 72]), cap=st.integers(1, 600))
@example(starts=(Monomial(ONE, 0), Monomial(zeta_pow(5), -30)), step=24, cap=300)  # 1 - 1 = 0
@example(starts=(Monomial(zeta_pow(1), 36), Monomial(zeta_pow(23), 12)), step=48, cap=500)
@example(starts=(Monomial(zeta_pow(9), 100), Monomial(Cyc24(-2), 0)), step=24, cap=400)
@example(starts=(Monomial(zeta_pow(3), -50), Monomial(zeta_pow(8), -20)), step=12, cap=300)
def test_multi_start_pochhammer_inf_is_the_product_of_one_chain_per_start(starts, step, cap):
    """Negative pows, pows past the step, pow 0, roots of unity and
    rationals; one chain is exact to the whole cap."""
    extra = len(starts) * neg_total(starts, lambda a: range(a.pow, 0, step))
    got = pochhammer_inf(starts, step, cap)
    assert same(got, pochhammer_inf_chains(starts, step, cap + extra).truncate(cap))


@settings(max_examples=100, deadline=None)
@given(
    starts=_STARTS,
    step=st.sampled_from([-24, 0, 12, 24, 48]),
    n=st.integers(0, 6),
    cap=st.integers(1, 400),
)
def test_multi_start_pochhammer_fin_is_the_product_of_one_chain_per_start(starts, step, n, cap):
    work = cap + len(starts) * neg_total(starts, lambda a: [a.pow + k * step for k in range(n)])
    want = pochhammer_fin_dense(starts[0], step, n, work)
    for a in starts[1:]:
        want = want * pochhammer_fin_dense(a, step, n, want.cap)
    assert same(pochhammer_fin(starts, step, n, cap), want.truncate(cap))


_THETA_CAP = 24 * 100 + 120  # the JTP and THETAID records' cap in the catalog digest


def _theta_args():
    """Each battery z as given, and every theta_Theta argument that
    jtp_product and thetaid_pair build from it."""
    out = []
    for k, p in _JTP_BATTERY:
        z = _z_monomial((k, p))
        out += [("jtp", z), ("jtp", Monomial(z.const, 24 + z.pow))]
    for k, p in _THETAID_BATTERY:
        z = _z_monomial((k, p))
        out += [("thetaid", z), ("thetaid", Monomial(-z.const, z.pow + 24)), ("thetaid", Monomial(-z.const, z.pow))]
    return out


@pytest.mark.parametrize("battery,z", _theta_args())
def test_theta_Theta_matches_two_chains_and_a_product(battery, z):
    got = theta_Theta(z, 2, _THETA_CAP)
    if 0 <= z.pow <= 48:
        assert same(got, theta_Theta_chains(z, 2, _THETA_CAP))
    else:
        # a negative low cost the old construction precision, so the
        # reference is built further out; one chain keeps the whole cap
        extra = 2 * (abs(z.pow) + 48)
        assert same(got, theta_Theta_chains(z, 2, _THETA_CAP + extra).truncate(_THETA_CAP))


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 23),
    p=st.integers(-72, 72),
    m=st.sampled_from([1, Fraction(3, 2), 2, 3, 6]),
    cap=st.integers(1, 700),
)
@example(k=0, p=0, m=1, cap=240)
@example(k=0, p=-48, m=1, cap=500)
@example(k=0, p=72, m=3, cap=700)
@example(k=0, p=-72, m=3, cap=333)
@example(k=0, p=36, m=Fraction(3, 2), cap=600)
@example(k=0, p=-144, m=6, cap=700)
@example(k=0, p=144, m=6, cap=1)
@example(k=0, p=-49, m=1, cap=1)
def test_theta_Theta_sum_matches_the_dense_product(k, p, m, cap):
    """The triple product sum of theta_Theta against E(q^m) times one dense
    chain per start.  At z = q^(m j) a factor 1 - q^0 vanishes, and both
    sides must be identically zero below cap."""
    z, step = Monomial(zeta_pow(k), p), _grid_mult(m)
    got = theta_Theta(z, m, cap)
    # each negative exponent of a start costs the dense product that much
    # precision, at most twice, so the reference is built further out
    extra = 2 * sum(-e for a in (p, step - p) for e in range(a, 0, step))
    want = theta_Theta_chains(z, m, cap + extra).truncate(cap)
    assert same(got, want)
    assert got.is_zero() == (k == 0 and p % step == 0)


@pytest.mark.parametrize("zk,m", _CRANK_BATTERY)
def test_crank_denominator_matches_two_chains_and_a_product(zk, m):
    z, g = _z_monomial(zk), 24 * m
    work = 24 * 100 + 120 + 2 * abs(z.pow) + 2 * g  # crank_pair's working cap in the catalog digest
    starts = (Monomial(z.const, z.pow + g), Monomial(z.const.inverse(), g - z.pow))
    assert same(pochhammer_inf(starts, g, work), pochhammer_inf_chains(starts, g, work))


# integer-exponent series in several components: (whole exponent t,
# component, numerator, denominator)
_WHOLE_TERMS = st.lists(
    st.tuples(
        st.integers(-8, 40),
        st.integers(0, 7),
        st.integers(-4, 4),
        st.sampled_from([1, 2, 3]),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(
    terms=_WHOLE_TERMS,
    cap=st.integers(-100, 1000),
    m=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_dissect_matches_the_term_walk(terms, cap, m, data):
    j = data.draw(st.integers(0, m - 1))
    s = QSeries.from_terms([(24 * t, _basis(k, Fraction(n, d))) for t, k, n, d in terms], cap)
    assert same(s.dissect(m, j), dissect_terms(s, m, j))


@settings(max_examples=200, deadline=None)
@given(
    lead=st.sampled_from([1, -1, Fraction(1, 3), -2]),
    e0=st.integers(-40, 40),
    stride=st.sampled_from([1, 12, 24]),
    tail=st.lists(
        st.tuples(st.integers(1, 40), st.integers(-3, 3), st.sampled_from([1, 1, 2])),
        max_size=8,
    ),
    extra=st.one_of(st.none(), st.tuples(st.integers(1, 7), st.integers(1, 30))),
    length=st.integers(1, 600),
)
def test_inv_matches_the_full_grid_recurrence(lead, e0, stride, tail, extra, length):
    """Series on strides 1, 12 and 24; a rational or non-unit lead, or an
    extra component, sends both to Newton iteration instead."""
    terms = [(e0, lead)] + [(e0 + stride * i, Fraction(v, d)) for i, v, d in tail]
    if extra is not None:
        terms.append((e0 + stride * extra[1], zeta_pow(extra[0])))
    s = QSeries.from_terms(terms, e0 + length)
    assert same(s.inv(), inv_full_grid(s))


@settings(max_examples=200, deadline=None)
@given(
    terms=_WHOLE_TERMS,
    stride=st.sampled_from([1, 8, 24]),
    const=st.integers(-3, 3),
    p=st.one_of(st.integers(1, 50), st.sampled_from([24, 48, 72, 120])),
    cap=st.integers(-100, 1000),
)
def test_div_binomial_matches_the_full_grid_recurrence(terms, stride, const, p, cap):
    """Supports on strides 1, 8 and 24, divided on strides that share a
    factor with them or not: only the residue classes mod p that hold a
    nonzero are walked, and the rest stay zero."""
    s = QSeries.from_terms(
        [(stride * t, _basis(k, Fraction(n, d))) for t, k, n, d in terms], cap
    )
    assert same(s.div_binomial(const, p), div_binomial_full_grid(s, const, p))


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.integers(-30, 130),
            st.integers(0, 7),
            st.integers(-4, 4),
            st.sampled_from([1, 2, 3, 5]),
        ),
        max_size=12,
    ),
    cap=st.integers(-40, 160),
    k=st.sampled_from([1, 2, 3, 24, Fraction(1, 2), Fraction(3, 2)]),
)
def test_compose_power_matches_the_coefficient_loop(terms, cap, k):
    # exponents in multiples of k's denominator stay on the grid under q -> q^k
    r = Fraction(k).denominator
    s = QSeries.from_terms([(r * e, _basis(c, Fraction(n, d))) for e, c, n, d in terms], cap)
    assert same(s.compose_power(k), compose_power_loop(s, k))


_COEFF = st.one_of(
    st.integers(-3, 3),
    _ROOT,
    _SMALL_RATIONAL,
    st.builds(lambda k, x: _basis(k, Fraction(x, 7)), st.integers(0, 7), st.integers(-2, 2)),
)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(_COEFF, min_size=1, max_size=5),
    picks=st.lists(st.tuples(st.integers(-20, 140), st.integers(0, 4)), max_size=40),
    cap=st.integers(-10, 120),
)
@example(
    pool=[Cyc24(Fraction(1, 2)), _basis(3, Fraction(2, 7)), 3], picks=[(0, 0), (0, 1), (5, 0), (5, 2)], cap=50
)
def test_from_terms_matches_the_per_term_split(pool, picks, cap):
    """The same coefficient objects repeat across terms, plain ints mix with
    Cyc24 values, denominators differ, and some terms sit at or past cap."""
    terms = [(e, pool[i % len(pool)]) for e, i in picks]
    want = from_terms_per_term(terms, cap)
    assert same(QSeries.from_terms(terms, cap), want)
    # a generator that builds a fresh object per term, each dropped before
    # the next is made: equal values are grouped by value, not by identity
    fresh = ((e, Cyc24(c)) for e, c in terms)
    assert same(QSeries.from_terms(fresh, cap), want)
