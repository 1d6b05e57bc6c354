import json

import pytest

from mockq.qseries import QSeries
from mockq.registry import (
    IdentityRecord,
    registry_catalog,
    sides,
    verify,
    verify_all,
)
from oracles import rln_f_lhs_per_term, rln_omega_lhs_per_term


def test_catalog_shape():
    recs = registry_catalog()
    ids = [r.id for r in recs]
    assert len(ids) == len(set(ids))
    assert len(recs) >= 18
    for r in recs:
        assert r.default_order >= 200
        assert r.description
        assert "0*z" not in r.description, r.id  # z prints as zeta24^k * q^(p/24)


def test_all_records_pass_at_low_order():
    for rec in registry_catalog():
        rep = verify(rec.id, 30)
        assert rep.status == "pass", (rec.id, rep.first_mismatch)
        assert rep.order == 30


def test_report_json_schema():
    rep = verify("NEWOMEGA", 25)
    d = rep.to_json_dict()
    assert set(d) == {"id", "status", "order", "first_mismatch", "ms"}
    assert d["status"] == "pass" and d["first_mismatch"] is None
    json.dumps(d)


def test_perturbation_flips_to_fail(monkeypatch):
    import mockq.registry as reg

    rec = next(r for r in reg.registry_catalog() if r.id == "NEWOMEGA")
    orig = rec.builder

    def broken(cap):
        pairs = orig(cap)
        lhs, rhs = pairs[0]
        bump = QSeries.monomial(1, 7 * 24, lhs.cap)
        return [(lhs + bump, rhs)]

    monkeypatch.setitem(reg._catalog_map(), "NEWOMEGA_BROKEN",
                        IdentityRecord("NEWOMEGA_BROKEN", "perturbed", broken, 25))
    rep = reg.verify("NEWOMEGA_BROKEN", 25)
    assert rep.status == "fail"
    e, a, b = rep.first_mismatch
    assert e == 7 * 24 and a - b != 0
    d = rep.to_json_dict()
    assert d["first_mismatch"]["exponent_num_24"] == 168
    del reg._catalog_map()["NEWOMEGA_BROKEN"]


@pytest.mark.parametrize("order", [0, -1, 2.7])
def test_orders_below_one_or_fractional_are_refused(order):
    with pytest.raises(ValueError):
        verify("NEWOMEGA", order)
    with pytest.raises(ValueError):
        verify_all(order)
    with pytest.raises(ValueError):
        sides("NEWOMEGA", order)


@pytest.mark.parametrize("rec", registry_catalog(), ids=lambda r: r.id)
def test_every_builder_returns_the_cap_it_is_asked_for(rec):
    # sides() builds at exactly 24*order + 1, with no margin and no retry
    half = 24 * (rec.default_order // 2)
    for cap in (1, 25, 97, 250, 24 * 5 + 1, half + 1, half + 120):
        for pair in rec.builder(cap):
            assert [s.cap for s in pair] == [cap, cap], (rec.id, cap)


def test_verify_builds_once_at_the_order(monkeypatch):
    import mockq.registry as reg

    rec = reg._catalog_map()["NEWOMEGA"]
    caps = []

    def counted(cap):
        caps.append(cap)
        return rec.builder(cap)

    monkeypatch.setitem(reg._catalog_map(), "NEWOMEGA_COUNTED",
                        IdentityRecord("NEWOMEGA_COUNTED", "counted", counted, 25))
    assert reg.verify("NEWOMEGA_COUNTED", 17).status == "pass"
    assert caps == [24 * 17 + 1]
    caps.clear()
    assert reg.verify("NEWOMEGA_COUNTED").order == 25
    assert caps == [24 * 25 + 1]


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        verify("NOT_A_RECORD")


def test_verify_all_sorted():
    reports = verify_all(order_override=20)
    assert [r.id for r in reports] == sorted(r.id for r in reports)
    assert all(r.status == "pass" for r in reports)


def test_rln_descriptions_record_interpretation():
    recs = {r.id: r for r in registry_catalog()}
    assert "omega(q^3)" in recs["RLN_OMEGA"].description
    assert "classical theta" in recs["RLN_F"].description


@pytest.mark.parametrize(
    "rec_id, oracle", [("RLN_F", rln_f_lhs_per_term), ("RLN_OMEGA", rln_omega_lhs_per_term)]
)
@pytest.mark.parametrize("order", [40, 250])
def test_rln_left_sides_match_the_per_term_construction(rec_id, oracle, order):
    # orders the catalog digest does not pin (it builds RLN_* at order 100)
    cap = 24 * order + 120
    rec = {r.id: r for r in registry_catalog()}[rec_id]
    lhs = rec.builder(cap)[0][0]
    want = oracle(cap)
    assert (lhs.low, lhs.cap, lhs.dump()) == (want.low, want.cap, want.dump())
