import random
from fractions import Fraction

import pytest

from mockq.cyclotomic import Cyc24, zeta_pow
from mockq.errors import GridError, NonInvertibleError, PrecisionError
from mockq.qseries import QSeries


def naive_product(terms_a, terms_b, cap):
    """Schoolbook product of term lists [(exponent, Cyc24)], truncated at cap.

    Independent oracle: no convolution, no packing, just dict accumulation.
    """
    acc = {}
    for ea, ca in terms_a:
        for eb, cb in terms_b:
            e = ea + eb
            if e < cap:
                acc[e] = acc.get(e, Cyc24(0)) + ca * cb
    return acc


def random_terms(rng, n_terms, span):
    consts = [
        Cyc24(1),
        Cyc24(-2),
        Cyc24(Fraction(1, 3)),
        zeta_pow(1),
        zeta_pow(8) * 2,
        zeta_pow(6) - Cyc24(1),
        zeta_pow(13) * Cyc24(Fraction(-3, 2)),
    ]
    out = {}
    for _ in range(n_terms):
        e = rng.randrange(-span // 4, span)
        out[e] = out.get(e, Cyc24(0)) + rng.choice(consts)
    return [(e, c) for e, c in out.items() if c]


def test_mul_matches_naive_oracle_200_cases():
    rng = random.Random(20240817)
    for case in range(200):
        span = rng.choice([10, 40, 120])
        ta = random_terms(rng, rng.randrange(1, 12), span)
        tb = random_terms(rng, rng.randrange(1, 12), span)
        if not ta or not tb:
            continue
        cap_a = max(e for e, _ in ta) + rng.randrange(1, 30)
        cap_b = max(e for e, _ in tb) + rng.randrange(1, 30)
        a = QSeries.from_terms(ta, cap_a)
        b = QSeries.from_terms(tb, cap_b)
        prod = a * b
        want = naive_product(ta, tb, prod.cap)
        for e in range(prod.low, prod.cap):
            assert prod.coeff(e) == want.get(e, Cyc24(0)), (case, e)


def test_mul_dense_kronecker_path():
    rng = random.Random(7)
    ta = [(e, Cyc24(rng.randrange(-9, 10))) for e in range(0, 260)]
    tb = [(e, Cyc24(rng.randrange(-9, 10))) for e in range(0, 260)]
    a = QSeries.from_terms(ta, 260)
    b = QSeries.from_terms(tb, 260)
    prod = a * b
    want = naive_product(ta, tb, prod.cap)
    for e in range(prod.low, prod.cap):
        assert prod.coeff(e) == want.get(e, Cyc24(0))


def test_mul_cap_rule():
    a = QSeries.from_terms([(2, Cyc24(1))], 10)
    b = QSeries.from_terms([(3, Cyc24(1))], 20)
    assert (a * b).cap == min(10 + 3, 20 + 2)


def test_add_and_neg():
    a = QSeries.from_terms([(0, Cyc24(1)), (5, Cyc24(2))], 12)
    b = QSeries.from_terms([(5, Cyc24(-2)), (7, zeta_pow(3))], 15)
    s = a + b
    assert s.cap == 12
    assert s.coeff(5) == Cyc24(0)
    assert s.coeff(7) == zeta_pow(3)
    assert (a - a).is_zero()


def test_inv_round_trip():
    a = QSeries.from_terms([(0, Cyc24(1)), (1, Cyc24(-3)), (7, zeta_pow(2))], 200)
    prod = a * a.inv()
    ok, _ = prod.eq_to(QSeries.one(prod.cap), (prod.cap - 1) // 24)
    assert ok
    shifted = a.shift(5)
    assert shifted.inv().low == -5


def test_inv_nonunit_leading_and_newton_path():
    a = QSeries.from_terms(
        [(0, Cyc24(Fraction(2, 3)) + zeta_pow(5)), (2, Cyc24(1))], 120
    )
    prod = a * a.inv()
    for e in range(1, prod.cap):
        assert prod.coeff(e) == Cyc24(0)
    assert prod.coeff(0) == Cyc24(1)


def test_inv_errors():
    with pytest.raises(NonInvertibleError):
        QSeries.zero(10).inv()


def test_binomial_round_trip():
    a = QSeries.from_terms([(0, Cyc24(1)), (3, Cyc24(5))], 150)
    for c in (zeta_pow(7), Fraction(1, 2)):
        back = a.mul_binomial(c, 4).div_binomial(c, 4)
        ok, _ = back.eq_to(a, (min(back.cap, a.cap) - 1) // 24)
        assert ok, c


def test_div_binomial_rational_fast_path():
    a = QSeries.one(100)
    g = a.div_binomial(1, 2)  # 1/(1-q^(2/24))
    for e in range(0, 100):
        assert g.coeff(e) == (Cyc24(1) if e % 2 == 0 else Cyc24(0))


def test_dissect_round_trip():
    rng = random.Random(3)
    terms = [(24 * k, Cyc24(rng.randrange(-5, 6))) for k in range(40)]
    a = QSeries.from_terms(terms, 24 * 40)
    parts = [a.dissect(3, j) for j in range(3)]
    rebuilt = QSeries.zero(24 * 13)
    for j, p in enumerate(parts):
        rebuilt = rebuilt + p.compose_power(3).shift(24 * j).truncate(24 * 13)
    ok, _ = rebuilt.eq_to(a, 12)
    assert ok


def test_dissect_requires_integer_exponents():
    a = QSeries.from_terms([(1, Cyc24(1))], 48)
    with pytest.raises(GridError):
        a.dissect(2, 0)


def test_compose_power_and_twist():
    a = QSeries.from_terms([(0, Cyc24(1)), (24, Cyc24(2)), (48, Cyc24(3))], 72)
    sq = a.compose_power(2)
    assert sq.coeff(48) == Cyc24(2)
    tw = a.twist_minus_q()
    assert tw.coeff(24) == Cyc24(-2)
    assert tw.coeff(48) == Cyc24(3)
    with pytest.raises(GridError):
        QSeries.from_terms([(1, Cyc24(1))], 24).compose_power(Fraction(1, 2))


def test_eq_to_precision_contract():
    a = QSeries.one(240)
    b = QSeries.one(241)
    with pytest.raises(PrecisionError):
        a.eq_to(b, 10)  # needs cap > 240 strictly
    ok, _ = a.eq_to(b, 9)
    assert ok


def test_eq_to_reports_first_mismatch():
    a = QSeries.from_terms([(0, Cyc24(1)), (30, Cyc24(2))], 100)
    b = QSeries.from_terms([(0, Cyc24(1)), (30, Cyc24(3))], 100)
    ok, wit = a.eq_to(b, 4)
    assert not ok
    assert wit[0] == 30 and wit[1] == Cyc24(2) and wit[2] == Cyc24(3)


def test_coeff_beyond_cap_raises():
    a = QSeries.one(10)
    with pytest.raises(PrecisionError):
        a.coeff(10)


def test_scale_pow_shift():
    a = QSeries.from_terms([(0, Cyc24(1)), (12, Cyc24(1))], 60)
    assert (a.scale(0)).is_zero()
    cube = a**3
    assert cube.coeff(24) == Cyc24(3)
    assert a.shift(-12).low == -12


def test_dump_format():
    a = QSeries.from_terms([(5, zeta_pow(6))], 24)
    line = a.dump()
    assert line.startswith("5/24\t")
    assert len(line.split("\t")[1].split()) == 8
