"""The catalog sides that two records build at one cap are built once per
cap into a bounded lru_cache, and no record mutates what it is handed."""

import pytest

from mockq import registry
from mockq.qseries import QSeries
from mockq.registry import registry_catalog, verify

PIECES = [registry._newomega_rhs, registry._newomega2_rhs, registry._omega_minus_sqrt_q]
IDS = [p.__name__ for p in PIECES]


@pytest.mark.parametrize("build", PIECES, ids=IDS)
def test_shared_pieces_are_built_once_per_cap(build):
    build.cache_clear()
    first = build(240)
    assert build(240) is first
    other = build(264)
    assert other is not first
    assert (first.cap, other.cap) == (240, 264)


@pytest.mark.parametrize("build", PIECES, ids=IDS)
def test_shared_piece_cache_is_bounded(build):
    maxsize = build.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 4
    build.cache_clear()
    first = build(240)
    for i in range(1, maxsize + 1):
        build(240 + 24 * i)
    assert build.cache_info().currsize == maxsize
    assert build(240) is not first


def test_a_catalog_pass_mutates_no_shared_piece(monkeypatch):
    """Every series a shared piece hands out during a catalog pass at half
    the default orders dumps the same after the pass as when it was handed
    out; each of the three sides is handed out twice."""
    handed = {}

    def watched(fn):
        def wrapper(*args):
            s = fn(*args)
            handed.setdefault(id(s), [s, (s.low, s.cap, s.dump()), 0])[2] += 1
            return s

        return wrapper

    for build in PIECES:
        build.cache_clear()
        monkeypatch.setattr(registry, build.__name__, watched(build))
    for rec in sorted(registry_catalog(), key=lambda r: r.id):
        assert verify(rec.id, rec.default_order // 2).status == "pass"
    assert handed and all(isinstance(s, QSeries) for s, _, _ in handed.values())
    assert sum(n >= 2 for _, _, n in handed.values()) >= 3
    for s, before, _ in handed.values():
        assert (s.low, s.cap, s.dump()) == before
