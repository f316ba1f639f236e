"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies; this pins that no
``repro`` module imports networkx, the one it used to have.  The imports
run in a fresh interpreter because the test session itself loads networkx
as the reference oracle of the cycle-search property tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
print("networkx" in sys.modules)
"""


def test_importing_every_module_loads_no_networkx():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
