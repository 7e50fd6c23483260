import importlib
import pkgutil

import pytest

import strichartz_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(strichartz_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # tools that wrap a module's public names look each one up with getattr,
    # so a stale __all__ entry fails there even though the import succeeds
    mod = importlib.import_module(f"strichartz_lab.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
