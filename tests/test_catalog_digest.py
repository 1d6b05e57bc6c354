"""Pin every catalog side, bit for bit.

Each record is built at half its default order (the `catalog` benchmark
workload's order) at cap 24*order + 120, past the 24*order + 1 that
`registry.sides` asks for, and every side's (id, low, cap) and `dump()`
text are fed into one sha256.  A kernel change that keeps the mathematics
but moves a single coefficient, `low` or `cap` changes the digest.
"""

import hashlib

from mockq.registry import registry_catalog

CATALOG_SIDES = 94
CATALOG_SHA256 = "c5cb71df90c090efef06016f831b50783bdf62a5eb5e4b0fc46f263da299baac"


def catalog_digest():
    h = hashlib.sha256()
    sides = 0
    for rec in sorted(registry_catalog(), key=lambda r: r.id):
        for pair in rec.builder(24 * (rec.default_order // 2) + 120):
            for side in pair:
                h.update(("%s|%d|%d|" % (rec.id, side.low, side.cap)).encode())
                h.update(side.dump().encode())
                sides += 1
    return sides, h.hexdigest()


def test_catalog_sides_are_pinned():
    assert catalog_digest() == (CATALOG_SIDES, CATALOG_SHA256)
