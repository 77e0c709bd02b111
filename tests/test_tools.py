import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIFF_OUTPUTS = ROOT / "tools" / "diff_outputs.py"
LAYER_BENCH = ROOT / "tools" / "layer_bench.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLayerBench:
    def test_every_row_runs_on_this_tree(self, tmp_path):
        import scorelab as sl

        rows = _load(LAYER_BENCH).rows(sl, tmp_path)
        assert "remedies-run losses 3 lambdas" in rows
        for fn in rows.values():
            fn()

    def test_child_times_the_rows_of_its_tree_on_request(self):
        side = _load(LAYER_BENCH)._Side(ROOT / "src")
        try:
            assert "ksd_vstat N=10000" in side.names
            assert side.ask("score K=2 n=200", 0) >= 1
            wall, cpu = side.ask("score K=2 n=200", 3)
            assert wall > 0 and cpu >= 0
        finally:
            side.close()
        assert side.proc.returncode == 0


class TestDiffOutputs:
    def test_same_source_has_no_differences(self, tmp_path):
        tool = _load(DIFF_OUTPUTS)
        cfgs = tool.write_configs(tool.configs([8], ["score-plot"]), tmp_path / "configs")
        for side in ("base", "change"):
            assert tool.run_side(ROOT / "src", cfgs, [1, 2], tmp_path / side) == []
        assert sum(1 for p in (tmp_path / "base").rglob("*") if p.is_file()) == 16
        assert tool.compare_trees(tmp_path / "base", tmp_path / "change") == []

    def test_demo_stdout_is_compared_and_a_failing_demo_reported(self, tmp_path):
        tool = _load(DIFF_OUTPUTS)
        demo = ROOT / "demos" / "01_scores_ignore_mixing_weights.py"
        for side in ("base", "change"):
            assert tool.run_demos(ROOT / "src", [demo], tmp_path / side) == []
        assert (tmp_path / "base" / "demos" / f"{demo.stem}.txt").read_text()
        assert tool.compare_trees(tmp_path / "base", tmp_path / "change") == []
        broken = tmp_path / "broken.py"
        broken.write_text("print('partial')\nraise SystemExit(3)\n")
        assert tool.run_demos(ROOT / "src", [broken], tmp_path / "broken") == [
            "demos/broken.py: exit 3: "
        ]
        assert (tmp_path / "broken" / "demos" / "broken.txt").read_text() == "partial\n"

    def test_traced_particle_runs_match_the_untraced(self, tmp_path):
        tool = _load(DIFF_OUTPUTS)
        cfgs = tool.write_configs(tool.configs([8], ["svgd-run", "langevin-run"]), tmp_path / "configs")
        seeded = {key: cfg for key, cfg in cfgs.items() if key.startswith("seed8/")}
        assert len(seeded) == 2
        assert tool.run_side(ROOT / "src", seeded, [1], tmp_path / "change") == []
        assert tool.run_traced(ROOT / "src", seeded, tmp_path / "traced", tmp_path / "change") == []
        assert (tmp_path / "traced" / "seed8" / "langevin-run" / "final.csv").is_file()

    def test_renamed_traced_parameter_fails_the_traced_run(self, tmp_path):
        # the tracer counts langevin_step's work from its parameter `x`, by name
        src = tmp_path / "src"
        shutil.copytree(ROOT / "src" / "scorelab", src / "scorelab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        langevin = src / "scorelab" / "langevin.py"
        text = langevin.read_text()
        for old, new in [("def langevin_step(x,", "def langevin_step(pos,"),
                         ("x = np.asarray(x, dtype=float)", "x = np.asarray(pos, dtype=float)")]:
            assert text.count(old) == 1
            text = text.replace(old, new)
        langevin.write_text(text)
        tool = _load(DIFF_OUTPUTS)
        cfgs = tool.write_configs(tool.configs([8], ["langevin-run"]), tmp_path / "configs")
        seeded = {"seed8/langevin-run": cfgs["seed8/langevin-run"]}
        (problem,) = tool.run_traced(src, seeded, tmp_path / "traced", None)
        assert problem.startswith("traced run failed: seed8/langevin-run: exit 1: ")
        assert "KeyError: 'x'" in problem

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
        (base / "run" / "label.csv").write_bytes(b"x,name\n1.0,a\n")
        (change / "run" / "label.csv").write_bytes(b"x,name\n1.0,b\n")
        (base / "run" / "rows.csv").write_bytes(b"x\n1.0\n")
        (change / "run" / "rows.csv").write_bytes(b"x\n1.0\n2.0\n")
        assert _load(DIFF_OUTPUTS).compare_trees(base, change) == [
            "only in change: run/extra.svg",
            "differs: run/label.csv",
            "differs: run/rows.csv",
            "differs: run/value.csv\n  x: 1 of 1 cells moved, largest relative move 1.4e-16",
        ]
