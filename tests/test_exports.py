import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_package_import_defers_heavy_scipy_modules():
    # scipy.linalg (the Legendre rules) and scipy.interpolate (the Taylor
    # tables) are imported on first use, so the package import stays cheap
    src = pathlib.Path(strichartz_lab.__file__).parents[1]
    code = ("import sys, strichartz_lab; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.interpolate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"
