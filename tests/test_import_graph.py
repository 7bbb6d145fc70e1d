"""Importing the package and its CLI loads no heavy scipy subpackage, and
every name a module exports exists."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import skewt_estim

# scipy.stats alone pulls in these and more; the package needs only
# scipy.special and scipy.linalg.
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.spatial")

MODULES = ["skewt_estim"] + sorted(
    m.name for m in pkgutil.walk_packages(skewt_estim.__path__, "skewt_estim.")
)


def test_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import json, sys\n"
        f"sys.path[:] = {sys.path!r}\n"
        "import skewt_estim, skewt_estim.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout)
    heavy = [m for m in loaded if ".".join(m.split(".")[:2]) in HEAVY]
    assert heavy == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
