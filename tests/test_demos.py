"""Every script in demos/ must run to completion against the current API and
print the same bytes as when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. The demos use only the Hoeffding bound, so
# the digests do not depend on the BLAS thread count (checked with
# OPENBLAS_NUM_THREADS 1 and 2).
DEMO_STDOUT_SHA256 = {
    "01_games_and_equilibria.py": "84003e7bca78ac7f954c13155d05c279505e0610c6a63b0a7e7973e66173e341",
    "02_learning_from_noise.py": "d4454b7da293a1975ba01eb262b23a01b3410ca7abb96e097a0b6670e5dcaaf2",
    "03_progressive_pruning.py": "d09cb1295476d560fe7abd807c4ed4532266e1c6ed99a2147c44f115c7b96a20",
    "04_congestion_and_anarchy.py": "50d19a2d2792cbd1163c8a822c9568eca7f9026fba25dd4314545cd87b543ace",
    "05_bound_gallery.py": "a4bdcad219cf1cec662e9c9bdf69dd83421f95ddac6ac36fc78b247c24a9ccf3",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[script.name]
