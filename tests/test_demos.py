"""The quick demos run to completion against this tree, and every demo
uses only names the library exports.

Demos 04 and 05 run SVGD and annealed Langevin for a few seconds each and are
not run; the acceptance criteria cover what they show, and the name check
reads them without running them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scorelab

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


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_uses_only_exported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sl"
    }
    assert used, f"{path.name} uses no sl.<name>"
    assert used <= set(scorelab.__all__), sorted(used - set(scorelab.__all__))
