"""The runtime is stdlib-only: nothing under ``repro`` needs numpy or scipy.

The check runs in a fresh interpreter with both names blocked in
``sys.modules``, so any import of either raises ``ImportError`` even on a
host where they are installed.  Another fresh interpreter checks that
importing the library facade leaves the daemon unloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

BLOCKED_RUNTIME = """
import importlib
import pkgutil
import sys

sys.modules["numpy"] = sys.modules["scipy"] = None

import repro


def reraise(name):
    raise


names = [info.name for info in
         pkgutil.walk_packages(repro.__path__, "repro.", onerror=reraise)]
assert "repro.workloads.networks" in names, names
for name in names:
    importlib.import_module(name)

from repro.apps import small_suite

suite = small_suite()
for app in suite.values():
    app.warm(checkpoints=True)
mcf = suite["mcf"]
golden = mcf.golden(0)
workload = mcf.generate_workload(0)
fidelity = mcf.score(golden.reference_output,
                     mcf.read_output(golden.result, workload), workload)
assert fidelity.detail["optimal"] == 1.0, fidelity
"""


def test_runtime_imports_and_warms_without_numpy_or_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", BLOCKED_RUNTIME],
                               capture_output=True, text=True, env=env,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr


LIBRARY_IMPORT = """
import sys

import repro.api

loaded = {"asyncio", "repro.service.daemon", "repro.service.http"}
print(sorted(loaded & set(sys.modules)))
"""


def test_importing_the_api_loads_no_daemon():
    """``repro.api`` is what every library sweep imports first; the daemon,
    its HTTP layer and asyncio load only when a service is started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", LIBRARY_IMPORT],
                               capture_output=True, text=True, env=env,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
