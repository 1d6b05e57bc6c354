"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line for its criterion and asserts it.  Exact
checks run through the identity registry at the stated orders; numeric checks
run the transformation battery at the five standard scenes.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from mockq.cyclotomic import Cyc24
from mockq.numeric import SCENES, NumericScene, R_vec_mordell, mordell_j, run_check
from mockq.qseries import QSeries
from mockq.registry import registry_catalog, verify


_CAPMAN = None


@pytest.fixture(autouse=True)
def _live_reporting(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(label, ok, extra=""):
    line = "ACCEPTANCE %s: %s%s" % (label, "PASS" if ok else "FAIL",
                                    " " + extra if extra else "")
    # emit outside pytest's capture so one line per criterion always shows
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, label


def _verified(rec_id, order):
    rep = verify(rec_id, order)
    return rep.status == "pass", rep


def test_acceptance_01_newomega_q300_under_30s():
    t0 = time.monotonic()
    ok, rep = _verified("NEWOMEGA", 300)
    elapsed = time.monotonic() - t0
    _report("01 new omega(-q^3) identity to q^300", ok and elapsed < 30,
            "%.1fs" % elapsed)


def test_acceptance_02_newomega2_direct_and_twist():
    ok1, _ = _verified("NEWOMEGA2", 300)
    ok2, _ = _verified("NEWOMEGA2_FROM_TWIST", 300)
    _report("02 new omega(q^3) identity, direct and as q->-q twist", ok1 and ok2)


def test_acceptance_03_newf_q300():
    ok, _ = _verified("NEWF", 300)
    _report("03 new f(q^3) identity to q^300 (q^(1/8)-normalized)", ok)


def test_acceptance_04_watson_forms_q500():
    ok1, _ = _verified("FIDWAT", 500)
    ok2, _ = _verified("OMEGAWATSON", 500)
    _report("04 Watson bilateral forms equal Eulerian f, omega to q^500",
            ok1 and ok2)


def test_acceptance_05_dissection_lemmas():
    oks = [_verified("ETA3DISS", 300)[0]]
    oks += [_verified("MUDISS_%s" % p, 300)[0]
            for p in ("I", "II", "III", "IV", "V", "VI")]
    oks.append(_verified("VARTHETA_THIRD", 200)[0])
    _report("05 eta-quotient 3-dissection, six Y-sum relations, "
            "vartheta(1/3) closed form", all(oks))


def test_acceptance_06_specialization_batteries():
    oks = [_verified("CRANK_%d" % i, 200)[0] for i in (1, 2, 3)]
    oks += [_verified("THETAID_%d" % i, 200)[0] for i in (1, 2, 3, 4)]
    oks += [_verified("JTP_%02d" % i, 200)[0] for i in range(1, 11)]
    _report("06 crank (3), theta identity (4, incl. degenerate z), JTP (10) "
            "to q^200", all(oks))


def test_acceptance_07_mu_representations():
    ok1, _ = _verified("H2_MU_REP", 200)
    ok2, _ = _verified("F_MU_REP", 200)
    _report("07 mu-representations of 2q^(1/3) omega(-q^(1/2)) and "
            "q^(-1/24) f(q) to q^200", ok1 and ok2)


def test_acceptance_08_lost_notebook_targets():
    recs = {r.id: r for r in registry_catalog()}
    ok1, _ = _verified("RLN_OMEGA", 200)
    ok2, _ = _verified("RLN_F", 200)
    _report("08 Lost-Notebook identities to q^200", ok1 and ok2,
            "readings: omega_3 = omega; phi^2(-q) = classical theta at -q "
            "(the Theta_3 reading fails)")
    assert "classical theta" in recs["RLN_F"].description


_BATTERY_21 = [
    "rellprops-a", "rellprops-b", "rellprops-c",
    "mutwid-a", "mutwid-b", "mutwid-c",
    "gab-i", "gab-ii", "gab-iii", "gab-iv", "gab-v",
    "gabints", "rext",
]


def test_acceptance_09_numeric_battery_five_scenes_under_60s():
    t0 = time.monotonic()
    results = [run_check(name, sc, 1e-8)
               for name in _BATTERY_21 for sc in SCENES]
    elapsed = time.monotonic() - t0
    worst = max(results, key=lambda r: r.residual)
    _report("09 section-2.1 numeric battery (13 checks x 5 scenes, <1e-8)",
            all(r.passed for r in results) and elapsed < 60,
            "worst %.2e (%s), %.1fs" % (worst.residual, worst.name, elapsed))


def test_acceptance_10_T_and_S_transformations():
    t_res = [run_check("t-transform", sc, 1e-9) for sc in SCENES]
    s_res = [run_check("s-transform", sc, 1e-8) for sc in SCENES]
    _report("10 H(tau) T-transformation <1e-9 and S-transformation <1e-8 "
            "at 5 scenes",
            all(r.passed for r in t_res + s_res),
            "worst T %.2e, worst S %.2e" % (
                max(r.residual for r in t_res),
                max(r.residual for r in s_res)))


def test_acceptance_11_watson_mordell():
    # the remainder vector is 4 sqrt(3) sqrt(-i tau) (j2, -j1, j3); the
    # swapped vector (j1, -j2, j3) coincides with it only at tau = i
    results = [run_check("watson-lemma", sc, 1e-6) for sc in SCENES]
    ok = all(r.passed for r in results)
    misses = []
    for sc in SCENES:
        if sc.tau == 1j:
            continue
        pre = 4 * math.sqrt(3) * cmath.sqrt(-1j * sc.tau)
        j1, j2, j3 = mordell_j(sc)
        swapped = (pre * j1, -pre * j2, pre * j3)
        # R_vec_mordell is within 1e-6 of Watson's remainder (checked above)
        misses.append(max(abs(x - r) for x, r in zip(swapped, R_vec_mordell(sc))) - 1e-6)
    ok = ok and len(misses) == 4 and min(misses) > 1e-3
    _report("11 Watson transformation with Mordell integrals <1e-6", ok,
            "worst %.2e with (j2, -j1, j3); (j1, -j2, j3) misses by >= %.2e"
            % (max(r.residual for r in results), min(misses)))


def test_acceptance_12_formal_numeric_cross_check():
    sc = NumericScene(0.05 + 0.8j)
    results = [run_check("consistency-%s" % n, sc, 1e-7)
               for n in ("newomega", "newomega2", "newf")]
    _report("12 exact-series vs transcendental evaluation at "
            "tau = 0.05+0.8i to 1e-7",
            all(r.passed for r in results),
            "worst %.2e" % max(r.residual for r in results))


def _naive_product(ta, tb, cap):
    acc = {}
    for ea, ca in ta:
        for eb, cb in tb:
            if ea + eb < cap:
                acc[ea + eb] = acc.get(ea + eb, Cyc24(0)) + ca * cb
    return acc


def test_acceptance_13_kernel_oracle_200_cases():
    from mockq.cyclotomic import zeta_pow

    rng = random.Random(99)
    consts = [Cyc24(1), Cyc24(-1), Cyc24(Fraction(2, 3)), zeta_pow(1),
              zeta_pow(8), zeta_pow(6) + Cyc24(1)]
    bad = 0
    for _ in range(200):
        ta = [(rng.randrange(-20, 90), rng.choice(consts))
              for _ in range(rng.randrange(1, 10))]
        tb = [(rng.randrange(-20, 90), rng.choice(consts))
              for _ in range(rng.randrange(1, 10))]
        a = QSeries.from_terms(ta, max(e for e, _ in ta) + 20)
        b = QSeries.from_terms(tb, max(e for e, _ in tb) + 20)
        prod = a * b
        want = _naive_product(ta, tb, prod.cap)
        for e in range(prod.low, prod.cap):
            if prod.coeff(e) != want.get(e, Cyc24(0)):
                bad += 1
                break
    _report("13 kernel multiplication vs naive oracle, 200 random cases",
            bad == 0)
