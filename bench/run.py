"""mockq benchmark: one command per workload, cold passes, checked outputs.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads are `catalog`, `deep` and `battery` (see bench/README.md).  With
`--trace 0` the command runs cold passes of the workload one after another,
each in a fresh child interpreter while this process waits, and prints the
end-to-end metrics.  Times are scaled to a fixed reference speed of the
host (see child.py); each operation's time is its median over the passes.  With `--trace 1` it runs one traced pass and prints the
per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only if
every operation passed and every output gate held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("catalog", "deep", "battery")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh interpreters per run
MIN_PASSES = 3  # cold passes per run, even where they outlast --seconds
RUN_LIMIT_S = 170  # a run, children included, ends within this

sys.path.insert(0, HERE)
import tracer  # noqa: E402


class BenchError(Exception):
    pass


def _child(deadline, mode, workload=None, seed=0, pass_index=0):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run exceeded %d s" % RUN_LIMIT_S)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode, "--seed", str(seed),
           "--pass-index", str(pass_index)]
    if workload:
        cmd += ["--workload", workload]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # mockq must come from this checkout's src/
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError("%s pass exceeded the %d s run limit" % (mode, RUN_LIMIT_S)) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s pass exited %d:\n%s" % (mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256():
    """Digest of the mockq sources, which names the code measured even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mockq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _environment(child_env):
    env = dict(child_env)
    env["nproc"] = os.cpu_count()
    env["git_sha"] = _git_sha()
    env["src_sha256"] = _source_sha256()
    return env


def _gates(passes, workload):
    """Names of the output gates that failed in any pass."""
    bad = []
    if not all(p["negative_control"] for p in passes):
        bad.append("negative_control")
    if workload == "deep" and not all(p["digest_ok"] for p in passes):
        bad.append("deep_digest %s" % sorted({p["digest"] for p in passes}))
    return bad


def _tally(ops):
    failures = {}
    for o in ops:
        if not o["ok"]:
            failures[o["failure"]] = failures.get(o["failure"], 0) + 1
    return len(ops), sum(failures.values()), failures


def _p50_p75(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[1], q[2]


def _per_op(passes, key):
    """Each operation's median `key` time over the passes, by label.  Every
    pass runs the same operations from the same cold start; on `catalog`
    each pass runs them in its own order."""
    times = {}
    for p in passes:
        for o in p["ops"]:
            times.setdefault(o["op"], []).append(o[key])
    if any(len(ts) != len(passes) for ts in times.values()):
        raise BenchError("passes ran different operations")
    return [statistics.median(ts) for ts in times.values()]


def run_untraced(workload, seed, seconds, deadline):
    """Cold passes back to back for `seconds`: another pass starts only if
    it should end in time, and there are always at least MIN_PASSES."""
    passes = []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(_child(deadline, "pass", workload, seed, len(passes)))
        last = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and time.monotonic() - t_start + last > seconds:
            break
    setups = [p for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(deadline, "setup"))

    ops = [o for p in passes for o in p["ops"]]
    attempted, failed, failures = _tally(ops)
    op_ref = _per_op(passes, "ref_s")
    p50, p75 = _p50_p75(op_ref)
    ratios = [o["ratio"] for o in ops if o["ratio"] is not None]
    metrics = {
        "setup_s": (statistics.median(p["setup_ref_s"] for p in setups), "s"),
        "wall_s": (sum(op_ref), "s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_p75_ms": (1000 * p75, "ms"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    report = {
        "passes": len(passes),
        "op_samples": len(op_ref),
        "setup_samples": len(setups),
        "measured_wall_s": sum(_per_op(passes, "s")),
        "measured_setup_s": statistics.median(p["setup_s"] for p in setups),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_ref_s": [p["wall_ref_s"] for p in passes],
        "host_speed": [round(p["wall_ref_s"] / p["wall_s"], 4) for p in passes],
        "failures_by_type": failures,
        "fail_ratio": "%d/%d" % (failed, attempted),
        "max_residual_ratio": max(ratios) if ratios else None,
        "gates_failed": _gates(passes, workload),
        "env": _environment(passes[0]["env"]),
    }
    return metrics, attempted, failed, report, passes


def run_traced(workload, seed, deadline):
    p = _child(deadline, "traced", workload, seed)
    attempted, failed, failures = _tally(p["ops"])
    problems = list(p["self_check"])
    problems += ["still unwrapped: %s" % b for b in p["unwrapped"]]
    units = dict(tracer.per_layer_names())
    metrics = {name: (p["layers"][name], unit) for name, unit in units.items()}
    report = {
        "op_samples": len(p["ops"]),
        "measured_wall_s": p["wall_s"],
        "host_speed": round(p["wall_ref_s"] / p["wall_s"], 4),
        "failures_by_type": failures,
        "fail_ratio": "%d/%d" % (failed, attempted),
        "self_check": problems,
        "gates_failed": _gates([p], workload),
        "env": _environment(p["env"]),
    }
    return metrics, attempted, failed, report, [p]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mockq", "__init__.py")):
        print("no mockq sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, attempted, failed, report, passes = run_traced(
                args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, report, passes = run_untraced(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2

    correct = failed == 0 and not report["gates_failed"] and not report.get("self_check")
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, correct=correct)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"report": report, "metrics": metrics, "passes": passes}, fh, indent=1)

    print("report " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
