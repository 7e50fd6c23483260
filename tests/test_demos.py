"""The quick demos run to completion against the current public API.

Each demo runs from a copy in a temporary directory, so the files a demo
writes next to itself (out/) stay out of the source tree.  Demo 04 takes
several seconds and is left to be run by hand.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_sharp_constant.py", "02_extremizer_iteration.py",
                                  "03_sextic_form_crosscheck.py", "05_functional_equation.py",
                                  "06_decay_bootstrap.py"])
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(REPO / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
