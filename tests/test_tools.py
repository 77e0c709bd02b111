import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIFF_OUTPUTS = ROOT / "tools" / "diff_outputs.py"


def _load_diff_outputs():
    spec = importlib.util.spec_from_file_location("diff_outputs", DIFF_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDiffOutputs:
    def test_same_source_has_no_differences(self, tmp_path):
        tool = _load_diff_outputs()
        cfgs = tool.write_configs(tool.configs([8], ["score-plot"]), tmp_path / "configs")
        for side in ("base", "change"):
            assert tool.run_side(ROOT / "src", cfgs, [1, 2], tmp_path / side) == []
        assert sum(1 for p in (tmp_path / "base").rglob("*") if p.is_file()) == 16
        assert tool.compare_trees(tmp_path / "base", tmp_path / "change") == []

    def test_rejects_a_tree_without_scorelab(self, tmp_path):
        argv = [sys.executable, str(DIFF_OUTPUTS), str(ROOT / "src"), str(tmp_path / "missing")]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "no scorelab package under" in proc.stderr

    def test_reports_differing_and_missing_files(self, tmp_path):
        base, change = tmp_path / "base", tmp_path / "change"
        for root in (base, change):
            (root / "run").mkdir(parents=True)
            (root / "run" / "same.csv").write_bytes(b"x\n1\n")
        (base / "run" / "value.csv").write_bytes(b"x\n0.1\n")
        (change / "run" / "value.csv").write_bytes(b"x\n0.10000000000000002\n")
        (change / "run" / "extra.svg").write_bytes(b"<svg/>")
        assert _load_diff_outputs().compare_trees(base, change) == [
            "only in change: run/extra.svg",
            "differs: run/value.csv",
        ]
