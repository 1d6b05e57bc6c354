"""The benchmark's traced pass holds its own checks on this kernel.

bench/child.py is started exactly as bench/run.py starts it: a fresh
interpreter, the repository root as working directory and no PYTHONPATH, so
that mockq comes from this checkout's src/.  The child only prints; nothing
is written under bench/.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")


def _traced_pass(workload):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, CHILD, "--mode", "traced", "--workload", workload, "--seed", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["deep", "catalog", "battery"])
def test_traced_pass_holds_the_benchmark_checks(workload):
    out = _traced_pass(workload)
    assert out["self_check"] == []
    assert out["unwrapped"] == []
    assert out["negative_control"] is True
    if workload == "deep":
        assert out["digest_ok"] is True
    failed = [(o["op"], o["failure"], o.get("detail")) for o in out["ops"] if not o["ok"]]
    assert failed == []
    assert out["ops"]
