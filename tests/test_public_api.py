import importlib
import pkgutil

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
