import ast
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scorelab.config import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
DIFF_OUTPUTS = ROOT / "tools" / "diff_outputs.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_scorelab_names(source):
    """The private scorelab names `source` binds, as dotted names: those
    imported by `from scorelab... import _x` and those reached as an
    attribute `_x` of a name bound to scorelab or one of its modules."""
    found, bound = set(), {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import scorelab.cli` binds `scorelab`, `... as cli` the module
                if alias.name.split(".")[0] == "scorelab":
                    bound[alias.asname or "scorelab"] = alias.name if alias.asname else "scorelab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scorelab":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if _private(alias.name):
                    found.add(name)
                bound[alias.asname or alias.name] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            chain, root = [node.attr], node.value
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.add(".".join([bound[root.id], *reversed(chain)]))
    return sorted(found)


class TestPrivateNames:
    def test_no_tool_demo_or_benchmark_file_binds_a_private_scorelab_name(self):
        # only tests/ may bind scorelab internals; the rest of the repository
        # uses the public API, so a private rename edits tests alone
        files = [p for folder in ("tools", "demos", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))]
        assert len(files) > 10
        found = [
            f"{path.relative_to(ROOT)}: {name}"
            for path in files
            for name in private_scorelab_names(path.read_text(encoding="utf-8"))
        ]
        assert found == []

    @pytest.mark.parametrize(
        "source, names",
        [
            ("from scorelab.mixture import _logpdf\n", ["scorelab.mixture._logpdf"]),
            ("from scorelab.svgd import (\n    svgd_run,\n    _gauss_tile,\n)\n", ["scorelab.svgd._gauss_tile"]),
            ("from scorelab import _x as y\n", ["scorelab._x"]),
            ("import scorelab.cli\nscorelab.cli._csv([], [])\n", ["scorelab.cli._csv"]),
            ("import scorelab as sl\nf = sl.svgd._tile_work\n", ["scorelab.svgd._tile_work"]),
            ("import scorelab.cli as cli\ncli._csv\n", ["scorelab.cli._csv"]),
            ("from scorelab import mixture\nmixture._logpdf\n", ["scorelab.mixture._logpdf"]),
            ("import scorelab as sl\nsl.__file__, sl.score, other._x\n", []),
        ],
        ids=["from module", "parenthesised", "from package", "dotted", "alias", "module alias",
             "imported module", "public and dunder"],
    )
    def test_scan_finds_each_form_of_binding(self, source, names):
        assert private_scorelab_names(source) == names


class TestDiffOutputs:
    def test_compares_every_lab_command(self):
        # a command missing here would go unchecked by the byte comparison
        assert _load(DIFF_OUTPUTS).COMMANDS == COMMANDS

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

    def test_traced_runs_match_the_untraced(self, tmp_path):
        tool = _load(DIFF_OUTPUTS)
        cfgs = tool.write_configs(tool.configs([8], tool.COMMANDS), tmp_path / "configs")
        seeded = {key: cfg for key, cfg in cfgs.items() if key.startswith("seed8/")}
        assert len(seeded) == len(tool.COMMANDS)
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

    def test_differing_svg_reports_its_first_differing_line(self, tmp_path):
        base, change = tmp_path / "base", tmp_path / "change"
        for root, label in ((base, "-0"), (change, "0")):
            root.mkdir()
            (root / "plot.svg").write_text(f'<svg>\n<text x="1">{label}</text>\n<line/>\n</svg>\n')
            (root / "ragged.svg").write_text("<svg>\n" + "<line/>\n" * len(label) + "</svg>\n")
        assert _load(DIFF_OUTPUTS).compare_trees(base, change) == [
            "differs: plot.svg\n  1 of 4 lines differ, the first at line 2:\n"
            '  - <text x="1">-0</text>\n  + <text x="1">0</text>',
            "differs: ragged.svg",
        ]
