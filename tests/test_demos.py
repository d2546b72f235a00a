import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_ingest_and_features", "02_train_and_compare",
         "03_forecast_horizons", "04_theft_detection")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    """Each demo exits 0 and prints its walk-through, on one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
