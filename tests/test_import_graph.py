"""Importing the package and its CLI loads no heavy scipy subpackage."""

import json
import subprocess
import sys

# scipy.stats alone pulls in these and more; the package needs only
# scipy.special and scipy.linalg.
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.spatial")


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
