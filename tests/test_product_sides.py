"""Product sides stay products.

Every Theta is built from its Jacobi triple product sum, so the two records
that check a product against a sum, JTP (the triple product itself) and the
crank generating function, must build their product sides from Pochhammer
chains and never from theta_Theta or theta_sum.  A catalog pass therefore
runs QSeries.binomial_chain once per JTP and CRANK record and nowhere else.
"""

from collections import Counter

import pytest

from mockq import etatheta
from mockq.etatheta import Monomial, euler_E, jtp_product
from mockq.lerch import crank_pair
from mockq.qseries import QSeries
from mockq.registry import _CRANK_BATTERY, _JTP_BATTERY, _z_monomial, registry_catalog, verify
from oracles import inv_full_grid, pochhammer_inf_chains, theta_Theta_chains

_CAP = 24 * 100 + 120  # the JTP and CRANK records' cap in the catalog digest


def same(a, b):
    return (a.low, a.cap, a.dump()) == (b.low, b.cap, b.dump())


class _Poison:
    """Stands in for a theta sum: any use of it raises."""

    def __getattr__(self, name):
        raise AssertionError("a product side used a theta sum (%s)" % name)


@pytest.fixture
def no_theta_sums(monkeypatch):
    """theta_Theta raises; theta_sum hands out a _Poison, which the JTP
    record may return as its sum side but a product side cannot use."""
    poison = _Poison()

    def theta_Theta(*args):
        raise AssertionError("a product side called theta_Theta")

    monkeypatch.setattr(etatheta, "theta_Theta", theta_Theta)
    monkeypatch.setattr(etatheta, "theta_sum", lambda *args: poison)
    return poison


@pytest.mark.parametrize("zk", _JTP_BATTERY)
def test_jtp_product_side_is_a_product(no_theta_sums, zk):
    z = _z_monomial(zk)
    lhs, rhs = jtp_product(z, _CAP)
    assert rhs is no_theta_sums
    want = theta_Theta_chains(Monomial(z.const, 24 + z.pow), 2, _CAP + 2 * (abs(z.pow) + 72))
    assert same(lhs, want.truncate(_CAP))


@pytest.mark.parametrize("zk,m", _CRANK_BATTERY)
def test_crank_product_side_is_a_product(no_theta_sums, zk, m):
    z, g = _z_monomial(zk), 24 * m
    lhs, _ = crank_pair(z, _CAP, m)
    work = _CAP + 2 * abs(z.pow) + 2 * g  # crank_pair's working cap
    den = pochhammer_inf_chains((Monomial(z.const, z.pow + g), Monomial(z.const.inverse(), g - z.pow)), g, work)
    want = euler_E(m, den.cap - min(0, den.low)) * inv_full_grid(den)
    assert same(lhs, want.truncate(_CAP))


def test_a_catalog_pass_chains_only_the_product_sides(monkeypatch):
    """At half the default orders, the benchmark's, each JTP and CRANK
    record runs one binomial chain, and no other record runs any."""
    seen, chain = Counter(), QSeries.binomial_chain.__func__
    current = [None]

    def counted(cls, *args):
        seen[current[0]] += 1
        return chain(cls, *args)

    monkeypatch.setattr(QSeries, "binomial_chain", classmethod(counted))
    for rec in registry_catalog():
        current[0] = rec.id
        assert verify(rec.id, rec.default_order // 2).status == "pass"
    assert sum(seen.values()) == 13
    assert seen == Counter(["JTP_%02d" % i for i in range(1, 11)] + ["CRANK_1", "CRANK_2", "CRANK_3"])
