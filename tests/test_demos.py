"""The quick demos run to completion against this tree.

Demos 04 and 05 run SVGD and annealed Langevin for about 2 s each and are
left out; the acceptance criteria cover what they show.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    [
        "01_scores_ignore_mixing_weights.py",
        "02_fisher_divergence_blindness.py",
        "03_stein_discrepancy_and_ksd.py",
        "06_mass_aware_remedies.py",
    ],
)
def test_demo_exits_0(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
