import ast
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
    # every transform is numpy's, and scipy.linalg (the Legendre rules),
    # scipy.interpolate (the Taylor tables) and scipy itself (the report's
    # version line) are imported on first use: the package import loads no
    # scipy module
    src = pathlib.Path(strichartz_lab.__file__).parents[1]
    code = ("import sys, strichartz_lab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_scipy_is_imported_only_where_first_used():
    # one FFT library: no module imports scipy.fft, and scipy is imported
    # only inside the three functions that need it
    sites, fft = set(), []
    for path in pathlib.Path(strichartz_lab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        # the innermost function holding each node (ast.walk meets outer first)
        owner = {id(node): scope.name for scope in ast.walk(tree)
                 if isinstance(scope, ast.FunctionDef) for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            scipy = [name for name in names if name.split(".")[0] == "scipy"]
            if scipy:
                sites.add((path.stem, owner.get(id(node))))
                fft += [name for name in scipy if name.split(".")[:2] == ["scipy", "fft"]]
    assert sites == {("propagator", "_legendre"), ("lattice", "_spline_table"),
                     ("experiments", "run")}
    assert fft == []
