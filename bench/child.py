"""One cold pass of a mockq benchmark workload, in a fresh interpreter.

Started by bench/run.py, in one of three modes:

    python3 bench/child.py --workload catalog --seed 1 --pass-index 0 --mode pass
    python3 bench/child.py --workload catalog --seed 1 --mode traced
    python3 bench/child.py --mode setup

The pass times `import mockq` plus `registry_catalog()` (set-up), then every
operation of the workload, serially, with the clock read around each one.
Outputs are checked only after the timed region.  The last stdout line is
one JSON object.  Only the standard library is imported before set-up is
timed, so the import cost of mockq and its dependencies is all counted.

Every mode also samples the host's speed while it runs (`Speedometer`) and
reports each time twice: as measured, and scaled to a fixed reference speed
of the host.
"""

import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# each catalog record is verified at this fraction of its default order, so
# that a run holds several cold passes of the whole catalog (one pass at the
# default orders takes 40-55 s)
CATALOG_ORDER_DIVISOR = 2
DEEP_RECORD = "NEWOMEGA"
DEEP_ORDER = 1200
# sha256 of the dump() text of both NEWOMEGA sides at DEEP_ORDER, truncated to
# q^DEEP_ORDER, pinned from the kernel as first benchmarked
DEEP_DIGEST = "3b30511692eeb653191701e1e8babd2bd9d5e0f233f25267db3773ea9ca457e3"
SEEDED_SCENES = 5
CONTROL_RECORD = "NEWOMEGA"
CONTROL_ORDER = 100


# The host runs a fixed piece of Python at speeds up to 2x apart, and the
# speed drifts over seconds to minutes.  A fixed reference loop, timed every
# SPEED_PERIOD_S inside the measured process, tracks that speed; an interval's
# time at reference speed is its measured time times REF_LOOP_S over the
# loop's mean duration near the interval.  The host slows interpreted
# arithmetic, big-integer products and scattered memory reads by different
# amounts, and mockq spends its time in all three, so the loop does each.
SPEED_PERIOD_S = 0.1
SPEED_LOOP_N = 8000
SPEED_MULS = 2
SPEED_READS = 6000
_SPEED_A = 3 ** 19000  # about 30 kbit each
_SPEED_B = 5 ** 13000
_SPEED_HEAP = [float(i) for i in range(100000)]  # about 3 MB of float objects
_SPEED_ORDER = [i * 7919 % 100000 for i in range(SPEED_READS)]
REF_LOOP_S = 0.0026  # the loop's duration at reference speed
SPEED_NEAR = 5  # samples used for an interval that holds fewer than this


def _speed_loop():
    s = 0
    for i in range(SPEED_LOOP_N):
        s += i * i % 7
    for _ in range(SPEED_MULS):
        s += (_SPEED_A * _SPEED_B) & 1
    x = 0.0
    for i in _SPEED_ORDER:
        x += _SPEED_HEAP[i]
    return s + x


class Speedometer:
    """Times _speed_loop from a SIGALRM handler every SPEED_PERIOD_S."""

    def __init__(self):
        self.marks = []  # (start, end) of each timed loop

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _speed_loop()
        self.marks.append((t0, time.perf_counter()))

    def start(self):
        _speed_loop()  # the interpreter specialises the loop on its first runs
        _speed_loop()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, a, b):
        """(seconds the program ran in [a, b], the same at reference speed).
        Time spent in the sampling handler is taken out of the interval."""
        inside = [m for m in self.marks if a <= m[0] < b]
        busy = b - a - sum(e - s for s, e in inside)
        near = inside
        if len(near) < SPEED_NEAR:
            near = sorted(self.marks, key=lambda m: max(a - m[1], m[0] - b, 0.0))[:SPEED_NEAR]
        loop = statistics.fmean(e - s for s, e in near)
        return busy, busy * REF_LOOP_S / loop


def _setup():
    """Import mockq from this checkout and build the catalog, timed."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import mockq

    recs = mockq.registry_catalog()
    t1 = time.perf_counter()
    here = os.path.realpath(mockq.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("mockq was imported from %s, not from %s" % (here, SRC))
    return mockq, recs, (t0, t1)


def _env(mockq):
    from mockq import qseries

    mpz = getattr(qseries, "_mpz", int)
    return {
        "python": sys.version.split()[0],
        "bigint_backend": "int" if mpz is int else getattr(mpz, "__module__", repr(mpz)),
        "mockq_version": getattr(mockq, "__version__", None),
    }


def make_ops(mockq, recs, workload, seed, pass_index=0):
    """(label, thunk, kind) for every operation of the workload, built from
    the seed and the pass index alone; the program only sees the record ids
    and scenes.  Only the catalog order depends on the pass index: the module
    caches make a record's cost depend on the records before it, so each pass
    of a run takes its own order."""
    import random

    rng = random.Random(seed)
    if workload == "catalog":
        orders = {r.id: r.default_order // CATALOG_ORDER_DIVISOR for r in recs}
        ids = sorted(orders)
        random.Random("%d/%d" % (seed, pass_index)).shuffle(ids)
        return [(i, (lambda i=i: mockq.verify(i, order=orders[i])), "verify") for i in ids]
    if workload == "deep":
        return [(DEEP_RECORD, lambda: mockq.verify(DEEP_RECORD, order=DEEP_ORDER), "verify")]
    if workload == "battery":
        from mockq.numeric import CHECK_NAMES

        # one seeded scene in each of SEEDED_SCENES equal bands of Im(tau) over
        # [0.2, 2]: series lengths grow as Im(tau) falls, so a seed that drew
        # only small or only large Im(tau) would shift every timing
        scenes = list(mockq.SCENES)
        band = 1.8 / SEEDED_SCENES
        for k in range(SEEDED_SCENES):
            tau = complex(rng.uniform(-0.5, 0.5), 0.2 + band * (k + rng.random()))
            scenes.append(mockq.NumericScene(tau))
        return [
            ("%s@%r" % (name, sc.tau), (lambda n=name, s=sc: mockq.run_check(n, s)), "check")
            for sc in scenes
            for name in CHECK_NAMES
        ]
    raise SystemExit("unknown workload %r" % workload)


def _judge(kind, result):
    """(ok, failure type, residual/tol) of one finished operation."""
    if kind == "verify":
        return result.status == "pass", None if result.status == "pass" else "Mismatch", None
    ratio = result.residual / result.tol
    return result.passed, None if result.passed else "ToleranceExceeded", ratio


def _capture_builder(rec_id, sink):
    """Make verify's builder for rec_id hand its series pairs to sink."""
    from mockq import registry
    import dataclasses
    import functools

    orig = registry.registry_catalog

    def keep(builder):
        @functools.wraps(builder)
        def build(cap):
            pairs = builder(cap)
            sink[:] = pairs
            return pairs

        return build

    @functools.wraps(orig)
    def catalog():
        return [
            dataclasses.replace(r, builder=keep(r.builder)) if r.id == rec_id else r
            for r in orig()
        ]

    registry.registry_catalog = catalog


def negative_control(recs, seed):
    """Add q^(e/24) to one side of a catalog pair; the public eq_to must
    report exactly that exponent with a difference of 1."""
    import random

    from mockq import Cyc24, QSeries

    rec = next(r for r in recs if r.id == CONTROL_RECORD)
    cap = 24 * CONTROL_ORDER + 120
    lhs, rhs = rec.builder(cap)[0]
    ok, _ = lhs.eq_to(rhs, CONTROL_ORDER)
    if not ok:
        return False
    lo = max(min(lhs.low, rhs.low), 0)
    e = random.Random(seed).randrange(lo, 24 * CONTROL_ORDER + 1)
    bad = lhs + QSeries.monomial(1, e, cap)
    ok, wit = bad.eq_to(rhs, CONTROL_ORDER)
    return (not ok) and wit[0] == e and wit[1] - wit[2] == Cyc24(1)


def deep_digest(pairs):
    import hashlib

    top = 24 * DEEP_ORDER + 1
    text = "\n--\n".join(s.truncate(top).dump() for pair in pairs for s in pair)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    args = ap.parse_args(argv)

    speed = Speedometer()
    speed.start()
    mockq, recs, setup_span = _setup()
    import json
    import resource

    out = {"env": _env(mockq)}
    if args.mode == "setup":
        speed.stop()
        out["setup_s"], out["setup_ref_s"] = speed.scale(*setup_span)
        print(json.dumps(out))
        return 0

    collector = None
    if args.mode == "traced":
        import tracer

        collector = tracer.Collector()
        originals = tracer.install(collector)
        out["unwrapped"] = tracer.unwrapped_bindings(originals)
    captured = []
    if args.workload == "deep":
        _capture_builder(DEEP_RECORD, captured)

    ops = make_ops(mockq, recs, args.workload, args.seed, args.pass_index)
    results = []
    if collector is not None:
        collector.active = True
    t_start = time.perf_counter()
    for label, thunk, kind in ops:
        t0 = time.perf_counter()
        try:
            res, err = thunk(), None
        except Exception as exc:  # counted as a failed operation; the pass goes on
            res, err = None, exc
        results.append((label, (t0, time.perf_counter()), kind, res, err))
    t_end = time.perf_counter()
    if collector is not None:
        collector.active = False
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed.stop()
    out["setup_s"], out["setup_ref_s"] = speed.scale(*setup_span)
    out["wall_s"], out["wall_ref_s"] = speed.scale(t_start, t_end)
    out["speed_samples"] = len(speed.marks)

    # output gates, outside the timed region
    op_rows = []
    for label, span, kind, res, err in results:
        ok, why, ratio = (False, type(err).__name__, None) if err else _judge(kind, res)
        row = {"op": label, "ok": ok, "failure": why, "ratio": ratio}
        row["s"], row["ref_s"] = speed.scale(*span)
        if err:
            row["detail"] = str(err)[:300]
        op_rows.append(row)
    out["ops"] = op_rows
    out["negative_control"] = negative_control(recs, args.seed)
    if args.workload == "deep":
        out["digest"] = deep_digest(captured) if captured else None
        out["digest_ok"] = out["digest"] == DEEP_DIGEST
    if collector is not None:
        out["layers"] = collector.metrics(out["wall_ref_s"])
        out["self_check"] = collector.self_check(args.workload)
        out["spans"] = collector.export_spans(t_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
