"""In-memory tracing of mockq's public functions, installed from outside the package.

`install()` wraps every mapped function or method and replaces every binding
of it in every loaded ``mockq`` module, so a call made through
``from .etatheta import euler_E`` in ``registry`` is traced exactly like a
call made inside ``etatheta``.  Span wrappers record (name, parent, start,
end, tag) in a list held in memory; count wrappers only bump a counter,
because a span per Cyc24 coefficient would dominate the run it measures.
Nothing is recorded while ``Collector.active`` is false, so the output gates
that run after the timed region leave no trace.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

CATALOG = "catalog"
DEEP = "deep"
BATTERY = "battery"
EXACT_RUNS = {CATALOG, DEEP}

# family of each numeric check, for numeric.family.<family>.s
_MORDELL_CHECKS = {"lemma33", "watson-lemma"}
_TRANSFORM_CHECKS = {"s-transform", "t-transform"}


def _check_family(name):
    if name.startswith("consistency-"):
        return "consistency"
    if name in _MORDELL_CHECKS:
        return "mordell"
    if name in _TRANSFORM_CHECKS:
        return "transform"
    return "scalar"


FAMILIES = ("scalar", "mordell", "transform", "consistency")


def _eq_to_extra(counters, args, kwargs):
    a, b = args[0], args[1]
    order = args[2] if len(args) > 2 else kwargs["order"]
    lo = min(a.low, b.low)
    top = int(Fraction(order) * 24)
    counters["qseries.eq_to.grid_points"] += max(0, top + 1 - lo)


def _mul_extra(counters, args, kwargs):
    a, b = args[0], args[1]
    if not (hasattr(b, "comps") and a.comps and b.comps):
        return  # scalar product (delegates to scale) or a zero operand
    counters["qseries.mul.comp_products"] += len(a.comps) * len(b.comps)
    low = a.low + b.low
    cap = min(a.cap + b.low, b.cap + a.low)
    counters["qseries.mul.out_len_sum"] += max(0, cap - low)


def _run_check_tag(args, kwargs):
    return _check_family(args[0] if args else kwargs["name"])


# Each mapped layer: (metric stem, module, attribute path, kind, workloads on
# which it must record at least one call).  "span" layers report calls and
# self time; "count" layers report calls only.
LAYERS = (
    ("cyclotomic.cyc24_new", "cyclotomic", "Cyc24.__init__", "count", EXACT_RUNS),
    ("cyclotomic.cyc24_mul", "cyclotomic", "Cyc24.__mul__", "count", EXACT_RUNS),
    ("cyclotomic.cyc24_eq", "cyclotomic", "Cyc24.__eq__", "count", EXACT_RUNS),
    ("cyclotomic.inverse", "cyclotomic", "Cyc24.inverse", "count", EXACT_RUNS),
    ("qseries.eq_to", "qseries", "QSeries.eq_to", "span", EXACT_RUNS),
    ("qseries.mul", "qseries", "QSeries.__mul__", "span", EXACT_RUNS),
    ("qseries.scale", "qseries", "QSeries.scale", "span", {CATALOG}),
    ("qseries.mul_binomial", "qseries", "QSeries.mul_binomial", "span", {CATALOG}),
    ("qseries.div_binomial", "qseries", "QSeries.div_binomial", "span", {CATALOG}),
    ("qseries.add", "qseries", "QSeries.__add__", "span", {CATALOG}),
    ("qseries.inv", "qseries", "QSeries.inv", "span", EXACT_RUNS),
    ("qseries.dissect", "qseries", "QSeries.dissect", "span", {CATALOG}),
    ("qseries.compose_power", "qseries", "QSeries.compose_power", "span", EXACT_RUNS),
    ("etatheta.euler_E", "etatheta", "euler_E", "span", {CATALOG}),
    ("etatheta.euler_E_inv", "etatheta", "euler_E_inv", "span", {CATALOG}),
    ("etatheta.eta_quotient", "etatheta", "eta_quotient", "span", {CATALOG}),
    ("etatheta.pochhammer_inf", "etatheta", "pochhammer_inf", "span", {CATALOG}),
    ("etatheta.jtp_product", "etatheta", "jtp_product", "span", {CATALOG}),
    ("lerch.lerch_expand", "lerch", "lerch_expand", "span", EXACT_RUNS),
    ("lerch.mu_formal", "lerch", "mu_formal", "span", {CATALOG}),
    ("lerch.crank_pair", "lerch", "crank_pair", "span", {CATALOG}),
    ("lerch.thetaid_pair", "lerch", "thetaid_pair", "span", {CATALOG}),
    ("mocktheta.f_eulerian", "mocktheta", "f_eulerian", "span", {CATALOG}),
    ("mocktheta.omega_eulerian", "mocktheta", "omega_eulerian", "span", {CATALOG}),
    ("mocktheta.f_watson", "mocktheta", "f_watson", "span", {CATALOG}),
    ("mocktheta.omega_watson", "mocktheta", "omega_watson", "span", {CATALOG}),
    ("dissect.mudiss_sides", "dissect", "mudiss_sides", "span", {CATALOG}),
    ("dissect.eta3diss_sides", "dissect", "eta3diss_sides", "span", {CATALOG}),
    ("dissect.zeta_bracket_sides", "dissect", "zeta_bracket_sides", "span", {CATALOG}),
    ("registry.verify", "registry", "verify", "span", EXACT_RUNS),
    ("numeric.run_check", "numeric", "run_check", "span", {BATTERY}),
    ("numeric.R_num", "numeric", "R_num", "span", {BATTERY}),
    ("numeric.mu_num", "numeric", "mu_num", "span", {BATTERY}),
    ("numeric.mu_tilde_num", "numeric", "mu_tilde_num", "span", {BATTERY}),
    ("numeric.theta_num", "numeric", "theta_num", "span", {BATTERY}),
    ("numeric.eta_num", "numeric", "eta_num", "span", {BATTERY}),
    ("numeric.g_ab_num", "numeric", "g_ab_num", "span", {BATTERY}),
    ("numeric.eichler_gab", "numeric", "eichler_gab", "span", {BATTERY}),
    ("numeric.eichler_integral", "numeric", "eichler_integral", "span", {BATTERY}),
    ("numeric.mordell_j", "numeric", "mordell_j", "span", {BATTERY}),
    ("numeric.F_num", "numeric", "F_num", "span", {BATTERY}),
    ("numeric.G_num", "numeric", "G_num", "span", {BATTERY}),
    ("numeric.H_num", "numeric", "H_num", "span", {BATTERY}),
    ("numeric.qseries_eval", "numeric", "qseries_eval", "span", {BATTERY}),
)

# registry.build wraps the record builders handed out by registry_catalog()
BUILD = "registry.build"
_BUILD_WORKLOADS = {CATALOG, DEEP, BATTERY}

_EXTRAS = {"qseries.eq_to": _eq_to_extra, "qseries.mul": _mul_extra}
_TAGS = {"numeric.run_check": _run_check_tag}

# layers predicted to record no call at all on a workload
ZERO_ON = {"qseries.eq_to": {BATTERY}}
for _stem, _mod, *_ in LAYERS:
    if _mod == "numeric":
        ZERO_ON[_stem] = EXACT_RUNS

_EXACT_SIDE = ("registry.build", "mocktheta.")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for stem, _mod, _path, kind, _w in LAYERS:
        out.append((stem + ".calls", "count"))
        if kind == "span":
            out.append((stem + ".self_s", "s"))
        if stem == "qseries.eq_to":
            out.append(("qseries.eq_to.grid_points", "count"))
        if stem == "qseries.mul":
            out += [("qseries.mul.comp_products", "count"), ("qseries.mul.out_len_sum", "count")]
        if stem == "registry.verify":
            out += [
                (BUILD + ".calls", "count"),
                (BUILD + ".self_s", "s"),
                (BUILD + ".retries", "count"),
            ]
    out.append(("numeric.exact_share", "ratio"))
    out += [("numeric.family.%s.s" % f, "s") for f in FAMILIES]
    out.append(("bench.traced_wall_s", "s"))
    return out


class Collector:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, parent index or -1, start, end, tag]
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self._stack = []  # indices of open spans
        self._child_s = []  # wrapped-children time of each open span

    def span_wrapper(self, name, fn, extra=None, tag=None):
        c = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not c.active:
                return fn(*args, **kwargs)
            c.calls[name] += 1
            if extra is not None:
                extra(c.counters, args, kwargs)
            idx = len(c.spans)
            c.spans.append([name, c._stack[-1] if c._stack else -1, 0.0, 0.0,
                            tag(args, kwargs) if tag else None])
            c._stack.append(idx)
            c._child_s.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c._stack.pop()
                dur = t1 - t0
                c.self_s[name] += dur - c._child_s.pop()
                if c._child_s:
                    c._child_s[-1] += dur
                c.spans[idx][2] = t0
                c.spans[idx][3] = t1

        return wrapper

    def count_wrapper(self, name, fn):
        c = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if c.active:
                c.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived metrics -------------------------------------------------

    def _ancestors(self, idx):
        p = self.spans[idx][1]
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p][1]

    def metrics(self, traced_wall_s):
        out = {}
        for stem, _mod, _path, kind, _w in LAYERS:
            out[stem + ".calls"] = self.calls[stem]
            if kind == "span":
                out[stem + ".self_s"] = self.self_s[stem]
        out[BUILD + ".calls"] = self.calls[BUILD]
        out[BUILD + ".self_s"] = self.self_s[BUILD]
        for key in ("qseries.eq_to.grid_points", "qseries.mul.comp_products",
                    "qseries.mul.out_len_sum"):
            out[key] = self.counters[key]
        # builder calls made by verify beyond one per verify are its
        # margin-doubling retries after a PrecisionError
        in_verify = sum(
            1 for s in self.spans
            if s[0] == BUILD and s[1] >= 0 and self.spans[s[1]][0] == "registry.verify"
        )
        out[BUILD + ".retries"] = in_verify - self.calls["registry.verify"]
        family = Counter()
        check_s = exact_s = 0.0
        for i, (name, _parent, t0, t1, tag) in enumerate(self.spans):
            if name == "numeric.run_check":
                family[tag] += t1 - t0
                check_s += t1 - t0
            elif name.startswith(_EXACT_SIDE):
                anc = [a[0] for a in self._ancestors(i)]
                outermost = not any(a.startswith(_EXACT_SIDE) for a in anc)
                if outermost and "numeric.run_check" in anc:
                    exact_s += t1 - t0
        out["numeric.exact_share"] = exact_s / check_s if check_s else 0.0
        for f in FAMILIES:
            out["numeric.family.%s.s" % f] = family[f]
        out["bench.traced_wall_s"] = traced_wall_s
        return out

    def export_spans(self, t0):
        """Spans as [name, parent index, start, end, tag], times from t0."""
        return [[n, p, a - t0, b - t0, tag] for n, p, a, b, tag in self.spans]

    def self_check(self, workload):
        """Problems with the wrapping: a mapped layer that recorded no call on
        a workload that must reach it, or calls where none are predicted."""
        problems = []
        must = [(stem, w) for stem, _m, _p, _k, w in LAYERS] + [(BUILD, _BUILD_WORKLOADS)]
        for stem, workloads in must:
            if workload in workloads and self.calls[stem] < 1:
                problems.append("%s recorded no call on %s" % (stem, workload))
        for stem, workloads in ZERO_ON.items():
            if workload in workloads and self.calls[stem]:
                problems.append(
                    "%s recorded %d calls on %s, predicted 0" % (stem, self.calls[stem], workload)
                )
        return problems


def _bindings():
    """(owner, attribute, value) for every module- and class-level binding in
    the loaded mockq modules."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mockq" or name.startswith("mockq.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            if id(owner) not in seen:
                seen.add(id(owner))
                yield from ((owner, attr, val) for attr, val in list(vars(owner).items()))


def _rebind(originals):
    """Replace every binding of each original function with its wrapper."""
    for owner, attr, val in _bindings():
        hit = originals.get(id(val))
        if hit is not None and val is hit[0]:
            setattr(owner, attr, hit[1])


def unwrapped_bindings(originals):
    """Names of the bindings that still hold an original function."""
    return sorted(
        "%s.%s" % (getattr(owner, "__name__", owner), attr)
        for owner, attr, val in _bindings()
        if id(val) in originals and val is originals[id(val)][0]
    )


def install(collector):
    """Wrap every mapped layer of the imported mockq package.  Returns the
    map id(original) -> (original, wrapper) for `unwrapped_bindings`."""
    import mockq  # noqa: F401  (loads every submodule)

    originals = {}
    for stem, modname, path, kind, _w in LAYERS:
        obj = sys.modules["mockq." + modname]
        *owners, attr = path.split(".")
        for part in owners:
            obj = getattr(obj, part)
        fn = vars(obj)[attr]
        if kind == "span":
            wrapper = collector.span_wrapper(stem, fn, _EXTRAS.get(stem), _TAGS.get(stem))
        else:
            wrapper = collector.count_wrapper(stem, fn)
        originals[id(fn)] = (fn, wrapper)

    catalog_fn = sys.modules["mockq.registry"].registry_catalog

    @functools.wraps(catalog_fn)
    def traced_catalog():
        return [dataclasses.replace(r, builder=collector.span_wrapper(BUILD, r.builder))
                for r in catalog_fn()]

    originals[id(catalog_fn)] = (catalog_fn, traced_catalog)
    _rebind(originals)
    return originals
