"""The mu-representation table, read by both engines.

Every row of registry.MU_REPS is built exactly by `MuRep.series` (formal
geometric series through `mu_formal`) and in floats by
`numeric._mu_rep_num` (the Appell-Lerch sum through `mu_num`).  The two
readings agree on the fixed and on seeded scenes, and a wrong constant in a
row fails both its float check and its exact identity.
"""

import dataclasses
import functools
import random

import pytest

from mockq.numeric import SCENES, NumericScene, _mu_rep_num, qseries_eval
from mockq.registry import MU_REPS

ORDER = 200
CONSISTENCY_TOL = 1e-7

_rng = random.Random(20)
# one seeded scene in each fifth of 0.2 <= Im(tau) <= 2
SEEDED = tuple(
    NumericScene(complex(_rng.uniform(-0.5, 0.5), 0.2 + 0.36 * (k + _rng.random())))
    for k in range(5)
)
ROWS = {r.id: r for r in MU_REPS}


@functools.cache
def exact_rep(rep_id):
    """The row's representation side, exact to q^ORDER."""
    return ROWS[rep_id].series(24 * ORDER + 24).truncate(24 * ORDER + 1)


def test_table_holds_the_five_mu_form_records():
    assert sorted(ROWS) == [
        "F_MU_REP", "H2_MU_REP", "NEWF_MU_FORM", "NEWOMEGA_MU_FORM", "NEWOMID"
    ]


@pytest.mark.parametrize("rep_id", sorted(ROWS))
def test_exact_and_float_readings_agree(rep_id):
    for sc in SCENES + SEEDED:
        exact = qseries_eval(exact_rep(rep_id), sc.tau)
        assert abs(exact - _mu_rep_num(ROWS[rep_id], sc)) < 1e-9, (rep_id, sc.tau)


def _wrong(c):
    return -c if c else 1


@pytest.mark.parametrize("field", ["const", "eta_coef", "mu_coef"])
@pytest.mark.parametrize("rep_id", sorted(ROWS))
def test_a_wrong_constant_fails(rep_id, field):
    rep = ROWS[rep_id]
    bad = dataclasses.replace(rep, **{field: _wrong(getattr(rep, field))})
    sc = NumericScene(1j)
    miss = abs(qseries_eval(exact_rep(rep_id), sc.tau) - _mu_rep_num(bad, sc))
    assert miss > CONSISTENCY_TOL, (rep_id, field, miss)
    pairs = bad.pairs(24 * 30 + 120)
    assert not all(lhs.eq_to(rhs, 30)[0] for lhs, rhs in pairs), (rep_id, field)
