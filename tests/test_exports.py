import importlib
import pkgutil

import pytest

import wlift

MODULES = sorted(info.name for info in pkgutil.iter_modules(wlift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deletion that leaves its name in __all__ breaks `import *` only
    module = importlib.import_module(f"wlift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"wlift.{name}.__all__ names undefined {missing}"
