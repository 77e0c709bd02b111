"""The output layer: column-wise CSV text, and SVGs drawn from the columns in
memory against the same SVGs drawn from the text of the written CSV."""

import csv
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorelab.cli as cli
from scorelab.config import COMMANDS, load_config
from scorelab.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, PlotSpec, render_svg

DIFF_OUTPUTS = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
LINE = re.compile(r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"')


def rowwise_csv(names, rows) -> str:
    """The CSV text of the row-wise writer: every cell through `_cell`."""
    lines = [",".join(names)]
    lines.extend(",".join(cli._cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def read_columns(path) -> dict:
    """A written CSV's columns by header name, as text."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert all(len(row) == len(header) for row in rows)
    columns = dict.fromkeys(header, ())
    columns.update(zip(header, zip(*rows)))
    return columns


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
INTS = st.integers(-(2**63), 2**63 - 1)

# column kind -> (value strategy, how a list of values becomes the column)
COLUMN_KINDS = {
    "float list": (FLOATS, list),
    "float64 array": (FLOATS, lambda vs: np.array(vs, dtype=np.float64)),
    "float64 scalars": (FLOATS, lambda vs: [np.float64(v) for v in vs]),
    "int list": (st.integers(-(2**70), 2**70), list),
    "int64 array": (INTS, lambda vs: np.array(vs, dtype=np.int64)),
    "int64 scalars": (INTS, lambda vs: [np.int64(v) for v in vs]),
    "bool list": (st.booleans(), list),
    "bool_ array": (st.booleans(), lambda vs: np.array(vs, dtype=np.bool_)),
    "bool_ scalars": (st.booleans(), lambda vs: [np.bool_(v) for v in vs]),
    "str list": (st.text(max_size=8), list),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        values, build = COLUMN_KINDS[kind]
        columns.append(build(draw(st.lists(values, min_size=n, max_size=n))))
    return [f"c{i}" for i in range(len(columns))], columns


class TestColumnwiseCsv:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_equals_rowwise_cells(self, table):
        names, columns = table
        assert cli._csv(names, columns) == rowwise_csv(names, list(zip(*columns)))

    def test_zero_rows_is_the_header(self):
        assert cli._csv(["a", "b"], [np.array([]), []]) == "a,b\n"


def _wavy(n: int, seed: int) -> np.ndarray:
    rs = np.random.default_rng(seed)
    return np.cumsum(rs.standard_normal(n)) * 10.0 ** rs.integers(-3, 4)


X = np.linspace(-7.3, 9.1, 257)
Y_SPECIAL = _wavy(257, 1)
Y_SPECIAL[[3, 40, 41, 200]] = [-0.0, 5e-324, -5e-324, 0.0]
POSITIONS = np.concatenate((np.random.default_rng(2).normal(-1.0, 2.0, 300), [-9.0, 9.5]))
PHASES = ["initial"] * 150 + ["final"] * 100 + ["b"] * 52

# (name, spec, columns): every plot kind the lab draws
CASES = [
    (
        "lines",
        PlotSpec("lines", x="x", y=("a", "b"), title="lines"),
        {"x": X, "a": Y_SPECIAL, "b": _wavy(257, 3), "label": ["p"] * 257},
    ),
    (
        "dual axis",
        PlotSpec("lines", x="x", y=("a", "b"), y2=("c",), title="dual"),
        {"x": X, "a": _wavy(257, 4), "b": _wavy(257, 5), "c": np.exp(-(X**2))},
    ),
    (
        "integer x from row tuples",
        PlotSpec("lines", x="index", y=("value",)),
        dict(zip(["index", "model", "value"], zip(*[(i, f"m{i}", 1e-4 * (i + 1) ** 2) for i in range(5)]))),
    ),
    (
        "constant series",
        PlotSpec("lines", x="x", y=("a",)),
        {"x": np.array([2.0, 2.0]), "a": np.array([1.5, 1.5])},
    ),
    (
        "ungrouped histogram",
        PlotSpec("histogram", value="position", lo=-8.0, hi=8.0, title="hist"),
        {"particle_id": np.arange(POSITIONS.size), "position": POSITIONS},
    ),
    (
        "grouped histogram",
        PlotSpec("histogram", value="position", group="phase", lo=-8.0, hi=8.0),
        {"phase": PHASES, "particle_id": np.arange(POSITIONS.size), "position": POSITIONS},
    ),
    (
        # a range narrower than half a bin is drawn as one bin spanning it
        "one-bin histogram",
        PlotSpec("histogram", value="position", lo=0.0, hi=0.05),
        {"position": np.array([0.01, 0.02, 0.04])},
    ),
    (
        "zero-row lines",
        PlotSpec("lines", x="x", y=("a",), y2=("b",)),
        {"x": np.array([]), "a": np.array([]), "b": np.array([])},
    ),
    (
        "zero-row histogram",
        PlotSpec("histogram", value="position", group="phase", lo=0.0, hi=1.0),
        {"phase": [], "position": np.array([])},
    ),
]


class TestInMemoryRender:
    @pytest.mark.parametrize("name, spec, columns", CASES, ids=[c[0] for c in CASES])
    def test_equals_render_of_written_csv(self, tmp_path, name, spec, columns):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(cli._csv(list(columns), list(columns.values())), encoding="utf-8")
        from_memory = render_svg(csv_path, spec, tmp_path / "memory.svg", columns)
        from_file = render_svg(csv_path, spec, tmp_path / "file.svg", read_columns(csv_path))
        assert from_memory.read_bytes() == from_file.read_bytes()
        assert from_memory.read_text().endswith("</svg>\n")

    @pytest.mark.parametrize(
        "command, body",
        [
            ("score-plot", "mu1 = -3\nmu2 = 4.5\npi_grid = 0.1, 0.5, 0.9\ngrid_nodes = 401\n"),
            ("svgd-run", "particles = 40\niterations = 60\nsnapshot_every = 20\n"),
            ("langevin-run", "particles = 300\nsteps_per_level = 20\n"),
            ("ksd-run", "samples_from = weights=1.0; means=0.0; stds=1.0\nn = 300\n\n"
             "[models]\nnear = weights=1.0; means=0.0; stds=1.0\nfar = weights=1.0; means=3.0; stds=1.0\n"),
        ],
    )
    def test_lab_svgs_equal_render_of_their_csv(self, tmp_path, command, body):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            f"[experiment]\ncommand = {command}\nseed = 4\nout_dir = {tmp_path / 'out'}\n\n[params]\n{body}",
            encoding="utf-8",
        )
        cfg = load_config(cfg_path)
        cli.run(cfg)
        plots = [
            (csv_name, spec, svg_name)
            for csv_name, (_, specs) in cli._HANDLERS[command](cfg).items()
            for svg_name, spec in specs.items()
        ]
        assert plots
        for csv_name, spec, svg_name in plots:
            columns = read_columns(cfg.out_dir / csv_name)
            again = render_svg(cfg.out_dir / csv_name, spec, tmp_path / svg_name, columns)
            assert again.read_bytes() == (cfg.out_dir / svg_name).read_bytes(), svg_name


class TestNonFinitePlotValues:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_path_names_the_column(self, tmp_path, bad):
        columns = {"x": ("0", "1", "2"), "y": ("1", bad, "2")}
        with pytest.raises(ValueError, match="t.csv: column 'y' has non-finite values"):
            render_svg(tmp_path / "t.csv", PlotSpec("lines", x="x", y=("y",)), tmp_path / "t.svg", columns)

    def test_in_memory_path_names_the_column(self, tmp_path):
        columns = {"x": np.array([0.0, np.inf]), "y": np.array([1.0, 2.0])}
        with pytest.raises(ValueError, match="t.csv: column 'x' has non-finite values"):
            render_svg(tmp_path / "t.csv", PlotSpec("lines", x="x", y=("y",)), tmp_path / "t.svg", columns)

    def test_histogram_values(self, tmp_path):
        columns = {"phase": ("a", "b"), "v": ("0.1", "nan")}
        spec = PlotSpec("histogram", value="v", group="phase", lo=0.0, hi=1.0)
        with pytest.raises(ValueError, match="h.csv: column 'v' has non-finite values"):
            render_svg(tmp_path / "h.csv", spec, tmp_path / "h.svg", columns)


def default_configs() -> dict[str, str]:
    """Each command's default config text, as `tools/diff_outputs.py` runs it."""
    spec = importlib.util.spec_from_file_location("diff_outputs", DIFF_OUTPUTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return {key.split("/")[1]: text for key, text in tool.configs([], COMMANDS).items()}


class TestTicks:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_config_ticks_are_unsigned_and_on_their_axes(self, tmp_path, command):
        # an axis starting just below 0 labelled its first tick -0, and ticks
        # ran up to half a step past the axis end
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(default_configs()[command], encoding="utf-8")
        cfg = load_config(cfg_path)
        cfg.out_dir = tmp_path / "out"
        svgs = [p for p in cli.run(cfg) if p.suffix == ".svg"]
        assert svgs
        for svg in svgs:
            text = svg.read_text()
            assert ">-0<" not in text, svg.name
            ticks = 0
            for x1, y1, x2, y2 in (map(float, m) for m in LINE.findall(text)):
                if x1 == x2 and abs(y2 - y1) == 4:
                    assert MARGIN_L <= x1 <= WIDTH - MARGIN_R, (svg.name, x1)
                    ticks += 1
                elif y1 == y2 and abs(x2 - x1) == 4:
                    assert MARGIN_T <= y1 <= HEIGHT - MARGIN_B, (svg.name, y1)
                    ticks += 1
            assert ticks >= 4, svg.name
