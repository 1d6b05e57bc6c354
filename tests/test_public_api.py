import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mockq


def test_every_exported_name_resolves():
    modules = [mockq] + [
        importlib.import_module("mockq." + info.name)
        for info in pkgutil.iter_modules(mockq.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    missing = [
        "%s.%s" % (mod.__name__, name)
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_the_numeric_engine_runs_without_mpmath():
    """mpmath, scipy and numpy are test oracles only: importing mockq and
    running every numeric check must load none of them."""
    src = os.path.dirname(os.path.dirname(mockq.__file__))
    code = (
        "import sys, mockq\n"
        "from mockq.numeric import CHECK_NAMES\n"
        "for name in CHECK_NAMES:\n"
        "    assert mockq.run_check(name, mockq.NumericScene(1j)).passed, name\n"
        "print(sorted(m for m in ('mpmath', 'scipy', 'numpy') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["mockq.lerch", "mockq.etatheta"])
def test_kernel_module_imports_first(module):
    """etatheta builds its theta series with lerch_expand and lerch calls back
    into etatheta: either may be the first import of a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(mockq.__file__))
    subprocess.run(
        [sys.executable, "-c", "import %s" % module],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
