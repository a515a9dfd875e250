"""Each demo script runs to completion against this checkout's package.

Demo 04 is left out: its four posterior chains take about 23 s on 2 cores,
while the five demos below take about 9 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_simulate_truth.py", "02_fit_noisy_window.py", "03_profile_beta.py",
         "05_structural_rank.py", "06_forecast_horizons.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
