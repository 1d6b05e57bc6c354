"""The paths of QSeries.inv.

A series that is its lead times one rational component with integer
coefficients, with at most 150 nonzero slots, is inverted by the recurrence
on an integer array over its lattice.  Every other series takes Newton
iteration.  Both must give the reference inverse of `oracles.inv_full_grid`,
`low` and `cap` included, and the catalog's theta denominators must all take
the recurrence.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mockq import qseries
from mockq.cyclotomic import Cyc24, zeta_pow
from mockq.etatheta import Monomial, theta_Theta
from mockq.qseries import QSeries
from mockq.registry import registry_catalog, verify
from oracles import inv_full_grid


def same(a, b):
    return (a.low, a.cap, a.dump()) == (b.low, b.cap, b.dump())


_SQRT3 = 2 * zeta_pow(2) - zeta_pow(6)
_LEADS = [zeta_pow(k) for k in range(24)] + [Cyc24(2), _SQRT3, -_SQRT3]


@pytest.fixture
def paths(monkeypatch):
    """Counts of the integer-array loop and of the Newton steps (each
    Newton step widens the iterate once through _as_poly)."""
    seen = {"scalar": 0, "newton_steps": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qseries, "_unit_inverse", counted("scalar", qseries._unit_inverse))
    monkeypatch.setattr(QSeries, "_as_poly", counted("newton_steps", QSeries._as_poly))
    return seen


@settings(max_examples=120, deadline=None)
@given(
    lead=st.sampled_from(_LEADS),
    zk=st.sampled_from([0, 12, 6, 18, 8, 4, 1, 5, 3]),
    m=st.sampled_from([1, 2, 3]),
    data=st.data(),
    cap=st.integers(1, 360),
    e0=st.integers(-40, 40),
)
@example(lead=_SQRT3, zk=6, m=2, data=None, cap=300, e0=0)
@example(lead=Cyc24(2), zk=1, m=1, data=None, cap=240, e0=-7)
def test_inv_of_a_theta_multiple_matches_the_reference(lead, zk, m, data, cap, e0):
    """lead * Theta(zeta^zk q^p, q^m) with 0 < p < 24m, so Theta's own lead
    is 1: one component for a rational zeta^zk (the recurrence), two for
    +-i and eight for zeta^1 (Newton), and leads +-zeta^k, 2 and +-sqrt3."""
    p = data.draw(st.integers(1, 24 * m - 1)) if data is not None else 12 * m
    s = theta_Theta(Monomial(zeta_pow(zk), p), m, cap).scale(lead).shift(e0)
    assert s.coeff(e0) == lead
    assert same(s.inv(), inv_full_grid(s))


@pytest.mark.parametrize("lead", [zeta_pow(6), -zeta_pow(6), Cyc24(2), _SQRT3, -_SQRT3])
def test_rational_theta_multiples_take_the_recurrence(paths, lead):
    """A rational theta series over each of the catalog's leads takes the
    integer-array loop once and no Newton step."""
    s = theta_Theta(Monomial(Cyc24(1), 12), 2, 24 * 30).scale(lead)
    s.inv()
    assert paths == {"scalar": 1, "newton_steps": 0}


def _terms(count, const):
    return [(0, Cyc24(1))] + [(24 * i, const) for i in range(1, count)]


@pytest.mark.parametrize(
    "terms,newton",
    [
        (_terms(150, zeta_pow(1)), True),  # A has several components
        (_terms(150, zeta_pow(6)), True),
        (_terms(150, Cyc24(1)), False),
        (_terms(151, Cyc24(1)), True),  # more than 150 nonzero slots
        ([(0, zeta_pow(6)), (24, zeta_pow(6)), (24 * 151, zeta_pow(6))], False),
        ([(0, zeta_pow(6))] + [(24 * i, zeta_pow(6)) for i in range(1, 151)], True),
        ([(0, Cyc24(2)), (24, Cyc24(1))], True),  # 1/2 is no integer
        ([(0, 2 * zeta_pow(5)), (24, zeta_pow(1))], True),
        ([(0, 2 * zeta_pow(5)), (24, 4 * zeta_pow(1))], True),  # A = 1 + 2 zeta^20 q
        ([(0, 2 * zeta_pow(5)), (24, 4 * zeta_pow(5))], False),
        ([(0, Cyc24(Fraction(1, 3))), (24, Cyc24(1))], False),
    ],
)
def test_series_outside_the_recurrence_take_newton(paths, terms, newton):
    s = QSeries.from_terms(terms, 24 * 152)
    got = s.inv()
    assert (paths["newton_steps"] > 0) == newton
    assert same(got, inv_full_grid(s))


def test_a_catalog_pass_takes_no_newton_step(paths):
    """Every theta denominator of the catalog (leads +-i, 2 and +-sqrt3 among
    them) is an integer series over its lead, so a pass at half the
    default orders, the benchmark's, inverts everything by recurrence."""
    for rec in registry_catalog():
        assert verify(rec.id, rec.default_order // 2).status == "pass"
    assert paths["newton_steps"] == 0
    assert paths["scalar"] > 0


def test_deep_inverses_take_the_scalar_loop(paths, monkeypatch):
    """verify("NEWOMEGA", 1200) from cold caches inverts E(q^2) and E(q^6),
    each one rational component with lead 1."""
    from mockq import etatheta, registry

    monkeypatch.setattr(etatheta, "_EINV_CACHE", {})
    registry._newomega_rhs.cache_clear()
    calls = []
    monkeypatch.setattr(QSeries, "inv", lambda s, inv=QSeries.inv: calls.append(s) or inv(s))
    assert verify("NEWOMEGA", 1200).status == "pass"
    assert len(calls) == 2
    assert all(set(s.comps) == {0} and s.coeff(s.low) == Cyc24(1) for s in calls)
    assert paths == {"scalar": 2, "newton_steps": 0}
