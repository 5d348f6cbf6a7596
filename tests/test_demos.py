"""Demos 01 and 02 run to exit 0, so that a library name they use that is
renamed or removed fails here too."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_spd_divergences.py",
                                  "02_sinkhorn_vs_emd.py"])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", demo)], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
