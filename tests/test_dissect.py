import pytest

from mockq.cyclotomic import Cyc24
from mockq.qseries import QSeries
from mockq.dissect import (
    Y_components,
    Y_sums,
    e_quotients,
    eta3diss_sides,
    mudiss_sides,
    newomega_assembly_constant,
    omega_minus_q,
    omega_minus_q_direct,
    zeta_bracket_sides,
)

ORDER = 60
CAP = 24 * ORDER + 48


def assert_pairs(pairs, order=ORDER):
    for lhs, rhs in pairs:
        ok, wit = lhs.eq_to(rhs, order)
        assert ok, wit


def test_eta3diss():
    lhs, rhs = eta3diss_sides(CAP)
    ok, wit = lhs.eq_to(rhs, ORDER)
    assert ok, wit


@pytest.mark.parametrize("part", ["i", "ii", "iii", "iv", "v", "vi"])
def test_mudiss_parts(part):
    assert_pairs(mudiss_sides(part, CAP))


def test_Y_components_rebuild_Y_sums():
    cap = 24 * 20 + 24
    ys = Y_sums(cap)
    yk = Y_components(cap)
    for j in range(3):
        rebuilt = None
        for k in range(3):
            piece = yk[(j, k)].compose_power(3).shift(24 * k).truncate(cap)
            rebuilt = piece if rebuilt is None else rebuilt + piece
        ok, wit = rebuilt.eq_to(ys[j].truncate(rebuilt.cap), 18)
        assert ok, wit


def test_omega_minus_q_two_routes():
    cap = 24 * 80
    ok, wit = omega_minus_q(cap).eq_to(omega_minus_q_direct(cap), 79)
    assert ok, wit


def test_zeta_bracket():
    lhs, rhs = zeta_bracket_sides(CAP)
    ok, wit = lhs.eq_to(rhs, ORDER)
    assert ok, wit


def test_assembly_constant_cancels():
    assert newomega_assembly_constant() == Cyc24(0)


def test_e_quotients_start_correctly():
    e0, e1, e2 = e_quotients(24 * 5 + 1)
    # leading terms: each quotient starts at q^0 with coefficient 1
    assert e0.coeff(0) == Cyc24(1)
    assert e1.coeff(0) == Cyc24(1)
    assert e2.coeff(0) == Cyc24(1)


def test_unknown_part_rejected():
    with pytest.raises(ValueError):
        mudiss_sides("vii", 240)


def _series(piece):
    """The QSeries inside a cached piece: a tuple, a mapping or one series."""
    if isinstance(piece, QSeries):
        return [piece]
    return list(piece.values()) if hasattr(piece, "values") else list(piece)


@pytest.mark.parametrize("build", [e_quotients, Y_components, omega_minus_q])
def test_dissection_pieces_are_built_once_per_cap(build):
    build.cache_clear()
    first = build(240)
    again = build(240)
    assert again is first
    assert all(x is y for x, y in zip(_series(again), _series(first)))
    other = build(264)
    assert other is not first
    assert [s.cap for s in _series(other)] == [264] * len(_series(first))
    assert [s.cap for s in _series(first)] == [240] * len(_series(first))


@pytest.mark.parametrize("build", [e_quotients, Y_components, omega_minus_q])
def test_dissection_piece_cache_is_bounded(build):
    maxsize = build.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 4
    build.cache_clear()
    first = build(240)
    for i in range(1, maxsize + 1):
        build(240 + 24 * i)
    assert build.cache_info().currsize == maxsize
    assert build(240) is not first


def test_Y_components_mapping_is_read_only():
    yk = Y_components(240)
    with pytest.raises(TypeError):
        yk[(0, 0)] = QSeries.zero(240)
    with pytest.raises(TypeError):
        del yk[(1, 0)]
    assert len(yk) == 9
