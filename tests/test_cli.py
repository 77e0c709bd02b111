import csv
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import scorelab as sl
import scorelab.cli as cli
from scorelab.config import ConfigError, _as_config_error, load_config
from scorelab.svgplot import HIST_BIN_WIDTH, PlotSpec, _padded, render_svg


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def polyline_xs(path):
    """The x coordinates of each polyline of an SVG, in drawing order."""
    lines = path.read_text().split('<polyline points="')[1:]
    return [[float(pt.split(",")[0]) for pt in line.split('"')[0].split()] for line in lines]


def assert_no_outputs(root):
    """Neither `root / "out"` nor a hidden staging sibling `.out.*` exists."""
    assert not (root / "out").exists()
    assert not list(root.glob(".out.*"))


class TestConfigParsing:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "a.cfg",
                "[experiment]\ncommand = fisher-sweep\nseed = 3\nout_dir = out\n",
            )
        )
        assert cfg.command == "fisher-sweep"
        assert cfg.seed == 3
        assert cfg.threads == 1

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError, match="command"):
            load_config(write_config(tmp_path / "a.cfg", "[experiment]\ncommand = nope\n"))

    def test_randomized_requires_seed(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path / "a.cfg", "[experiment]\ncommand = ksd-run\n"))

    def test_bad_seed_named(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(
                write_config(tmp_path / "a.cfg", "[experiment]\ncommand = svgd-run\nseed = xy\n")
            )

    @pytest.mark.parametrize(
        "body, message",
        [
            (None, "cannot read config {path}"),
            ("command = fisher-sweep\n", "config syntax error in {path}"),
            ("[params]\nsigma = 1\n", "config must have an [experiment] section"),
            (
                "[experiment]\ncommand = fisher-sweep  # caf\xe9\n",
                "cannot read config {path}: 'utf-8' codec can't decode byte 0xe9",
            ),
        ],
        ids=["missing file", "no section header", "no experiment section", "not utf-8"],
    )
    def test_unloadable_config_exits_2(self, tmp_path, capsys, body, message):
        path = tmp_path / "a.cfg"
        if body is not None:
            # latin-1 writes each character as one byte, so \xe9 is not UTF-8
            path.write_bytes(body.encode("latin-1"))
        assert cli.main(["fisher-sweep", "--config", str(path)]) == 2
        assert f"lab: config error: {message.format(path=path)}" in capsys.readouterr().err

    def test_param_accessors_name_fields(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "a.cfg",
                "[experiment]\ncommand = fisher-sweep\n\n[params]\nsigma = abc\n",
            )
        )
        with pytest.raises(ConfigError, match="sigma"):
            cfg.get_float("sigma")
        with pytest.raises(ConfigError, match="missing required"):
            cfg.get_float("absent")

    def test_pair_and_mixture_parsing(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "a.cfg",
                "[experiment]\ncommand = fisher-sweep\n\n[params]\n"
                "pi_pairs = 0.5:0.9, 0.1:0.2\n"
                "target = weights=0.3,0.7; means=-1,1; stds=1,1\n",
            )
        )
        assert cfg.get_pairs("pi_pairs") == [(0.5, 0.9), (0.1, 0.2)]
        m = cfg.get_mixture("target")
        assert m.n_components == 2
        with pytest.raises(ConfigError, match="target2"):
            cfg.get_mixture("target2")


    def test_value_error_guard_names_the_keys(self):
        with pytest.raises(ConfigError) as info:
            with _as_config_error("[params] mu1, sigma: "):
                raise ValueError("stds must be positive")
        assert str(info.value) == "[params] mu1, sigma: stds must be positive"
        assert info.value.__suppress_context__
        with pytest.raises(ZeroDivisionError):
            with _as_config_error("[params] sigma: "):
                1 / 0


class TestRenderSvg:
    def test_missing_column_named(self, tmp_path):
        columns = {"a": [1], "b": [2]}
        with pytest.raises(ValueError, match="missing column 'c'"):
            render_svg(tmp_path / "t.csv", PlotSpec("lines", x="a", y=("c",)), tmp_path / "t.svg", columns)

    def test_empty_rows_gives_axes_only(self, tmp_path):
        columns = {"x": [], "y": []}
        out = render_svg(tmp_path / "t.csv", PlotSpec("lines", x="x", y=("y",)), tmp_path / "t.svg", columns)
        content = out.read_text()
        assert content.startswith("<svg") and "</svg>" in content
        assert "polyline" not in content

    def test_same_csv_twice_is_byte_identical(self, tmp_path):
        p = tmp_path / "t.csv"
        columns = {"x": [0, 1, 2], "y": [1, 3, 2]}
        a = render_svg(p, PlotSpec("lines", x="x", y=("y",)), tmp_path / "a.svg", columns)
        b = render_svg(p, PlotSpec("lines", x="x", y=("y",)), tmp_path / "b.svg", columns)
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_renders_groups(self, tmp_path):
        columns = {"phase": ["initial", "initial", "final"], "v": [0.1, 0.3, 1.4]}
        out = render_svg(
            tmp_path / "h.csv",
            PlotSpec("histogram", value="v", group="phase", lo=0.0, hi=2.0),
            tmp_path / "h.svg",
            columns,
        )
        content = out.read_text()
        assert content.count("<polygon") == 2

    def test_histogram_bins_are_hist_bin_width_wide(self, tmp_path):
        spec = PlotSpec("histogram", value="v", lo=0.0, hi=1.0)
        content = render_svg(tmp_path / "h.csv", spec, tmp_path / "h.svg", {"v": [0.1, 0.5]}).read_text()
        # base, (left, top) and (right, top) of every bin, base
        points = content.split('<polygon points="')[1].split('"')[0].split()
        assert len(points) == 2 + 2 * round(1.0 / HIST_BIN_WIDTH)

    @pytest.mark.parametrize("v", [0.0, -3.5, 2.0**53 - 1])
    def test_constant_column_padded_by_one(self, v):
        assert _padded(np.array([v, v])) == (v - 1.0, v + 1.0)

    @pytest.mark.parametrize("v", [2.0**53, 1e21, -1e21])
    def test_constant_column_beyond_2_53_padded_relative(self, v):
        # v - 1 or v + 1 rounds back to v here, which left a zero-width scale
        lo, hi = _padded(np.array([v, v]))
        assert lo < v < hi and hi - lo <= 2**-48 * abs(v)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlotSpec("histogram", value="v")  # no range
        with pytest.raises(ValueError, match="histogram range is degenerate"):
            PlotSpec("histogram", value="v", lo=1.0, hi=1.0)
        with pytest.raises(ValueError):
            PlotSpec("lines", x="x")  # no y columns
        with pytest.raises(ValueError):
            PlotSpec("pie", x="x", y=("y",))


SCORE_PLOT = """
[experiment]
command = score-plot
out_dir = {out}

[params]
mu1 = -4
mu2 = 4
sigma = 1
pi_grid = 0.1, 0.5, 0.9
grid_nodes = 801
"""

FISHER = """
[experiment]
command = fisher-sweep
seed = 1
out_dir = {out}

[params]
separations = 4, 6, 8, 10
pi_pairs = 0.5:0.9
"""

SVGD = """
[experiment]
command = svgd-run
seed = 7
out_dir = {out}

[params]
pi1_grid = 0.5, 0.1
cells = -4:1, 0:3, 4:1
particles = 60
iterations = 150
snapshot_every = 50
"""

LANGEVIN = """
[experiment]
command = langevin-run
seed = 3
out_dir = {out}

[params]
target = weights=0.3,0.7; means=-4.0,4.0; stds=1.0,1.0
particles = 400
steps_per_level = 40
"""

KSD = """
[experiment]
command = ksd-run
seed = 5
out_dir = {out}

[params]
samples_from = weights=1.0; means=-5.0; stds=1.0
n = 800

[models]
near = weights=1.0; means=-5.0; stds=1.0
far = weights=1.0; means=5.0; stds=1.0
"""

STEIN = """
[experiment]
command = stein-sweep
out_dir = {out}

[params]
separations = 4, 8
"""

REMEDIES = """
[experiment]
command = remedies-run
seed = 11
out_dir = {out}

[params]
reference = true
n_samples = 600
lambdas = 0.5, 1.0
"""


NARROW_DATA = "data = weights=0.9,0.1; means=-5.0,5.0; stds=1e-150,1e-150\n"
NARROW_MODEL = "model = weights=0.1,0.9; means=-5.0,5.0; stds=1e-150,1e-150\n"


class TestCommands:
    def test_score_plot_outputs_and_coincidence(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", SCORE_PLOT.format(out=tmp_path / "out"))
        assert cli.main(["score-plot", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert {p.name for p in out.iterdir()} == {
            "curves.csv",
            "curves.svg",
            "witness.csv",
            "witness.svg",
        }
        rows = read_rows(out / "curves.csv")
        xs = np.array([float(r["x"]) for r in rows])
        scores = np.array(
            [[float(r[f"score_pi{t}"]) for r in rows] for t in ("0.1", "0.5", "0.9")]
        )
        far = np.abs(xs) > 3.0
        worst = max(
            np.abs(scores[i][far] - scores[j][far]).max() for i in range(3) for j in range(3)
        )
        assert worst < 1e-6
        # witness dump carries the pinned schema
        witness = read_rows(out / "witness.csv")
        assert list(witness[0]) == ["x", "f_weighted", "f_unweighted", "q_pdf", "p_score", "q_score"]

    def test_fisher_sweep_decay(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", FISHER.format(out=tmp_path / "out"))
        assert cli.main(["fisher-sweep", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert list(rows[0]) == [
            "separation",
            "pi",
            "pi_prime",
            "j_pp_prime",
            "j_q_p",
            "method",
            "nodes",
            "pair",
        ]
        jpp = [float(r["j_pp_prime"]) for r in rows]
        assert all(a > b for a, b in zip(jpp, jpp[1:]))
        assert jpp[-1] < 1e-4

    def test_svgd_run_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", SVGD.format(out=tmp_path / "out"))
        assert cli.main(["svgd-run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "summary.csv")
        assert list(rows[0]) == ["seed", "mu0", "sigma0", "pi1", "final_mode_fraction"]
        assert len(rows) == 6
        snaps = read_rows(tmp_path / "out" / "snapshots_pi0.5_mu-4_sd1.csv")
        assert list(snaps[0]) == ["iteration", "particle_id", "position"]

    def test_langevin_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", LANGEVIN.format(out=tmp_path / "out"))
        assert cli.main(["langevin-run", "--config", cfg]) == 0
        levels = read_rows(tmp_path / "out" / "levels.csv")
        assert list(levels[0]) == ["level", "sigma_j", "step", "mode_fraction", "total_step"]
        final = read_rows(tmp_path / "out" / "final.csv")
        assert list(final[0]) == ["particle_id", "position"]
        assert len(final) == 400

    def test_langevin_trace_runs_forward_through_the_levels(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", LANGEVIN.format(out=tmp_path / "out"))
        assert cli.main(["langevin-run", "--config", cfg]) == 0
        levels = read_rows(tmp_path / "out" / "levels.csv")
        # steps 0, 10, 20, 30 and the last, 39, of each of the 8 levels
        assert [int(r["total_step"]) for r in levels] == [
            level * 40 + step for level in range(8) for step in (0, 10, 20, 30, 39)
        ]
        [xs] = polyline_xs(tmp_path / "out" / "trace.svg")
        assert len(xs) == 40
        assert all(a <= b for a, b in zip(xs, xs[1:]))

    def test_fisher_sweep_draws_one_line_per_pair(self, tmp_path):
        body = FISHER.replace("pi_pairs = 0.5:0.9", "pi_pairs = 0.5:0.9, 0.2:0.7, 0.1:0.3")
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["fisher-sweep", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert [r["pair"] for r in rows] == ["0", "1", "2"] * 4
        lines = polyline_xs(tmp_path / "out" / "sweep.svg")
        # two divergences for each of three pairs, one point per separation
        assert len(lines) == 6
        for xs in lines:
            assert len(xs) == 4
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_score_plot_lines_past_the_palette_keep_distinct_strokes(self, tmp_path):
        weights = ", ".join(f"0.0{i}" for i in range(1, 10)) + ", 0.5"
        body = SCORE_PLOT.replace("pi_grid = 0.1, 0.5, 0.9", f"pi_grid = {weights}")
        body = body.replace("grid_nodes = 801", "grid_nodes = 21")
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["score-plot", "--config", cfg]) == 0
        svg = (tmp_path / "out" / "curves.svg").read_text()
        dash = r'(?: stroke-dasharray="([^"]+)")?'
        lines = re.findall(r'<polyline [^>]*stroke="([^"]+)" stroke-width="1.5"' + dash + "/>", svg)
        swatches = re.findall(r'<line [^>]*stroke="([^"]+)" stroke-width="2.4"' + dash + "/>", svg)
        # ten densities and ten scores; the first seven are solid
        assert len(set(lines)) == len(lines) == 20
        assert swatches == lines
        assert [d for _, d in lines[:7]] == [""] * 7

    def test_ksd_run_contrast(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", KSD.format(out=tmp_path / "out"))
        assert cli.main(["ksd-run", "--config", cfg]) == 0
        rows = {r["model"]: float(r["value"]) for r in read_rows(tmp_path / "out" / "ksd.csv")}
        assert rows["far"] > 10 * rows["near"]

    def test_ksd_run_writes_its_sample_count(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", KSD.format(out=tmp_path / "out"))
        assert cli.main(["ksd-run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "ksd.csv")
        assert [(r["model"], r["n"]) for r in rows] == [("near", "800"), ("far", "800")]

    def test_ksd_run_writes_model_labels_as_given(self, tmp_path):
        body = KSD.replace("near = ", "NearModel = ")
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["ksd-run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "ksd.csv")
        assert [r["model"] for r in rows] == ["NearModel", "far"]

    def test_stein_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", STEIN.format(out=tmp_path / "out"))
        assert cli.main(["stein-sweep", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "stein_sweep.csv")
        assert [float(r["separation"]) for r in rows] == [4.0, 8.0]
        assert float(rows[0]["sd_weighted"]) > float(rows[1]["sd_weighted"])

    def test_remedies_run_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", REMEDIES.format(out=tmp_path / "out"))
        assert cli.main(["remedies-run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "report.csv")
        assert list(rows[0]) == [
            "scenario",
            "fisher_divergence",
            "cml_loss",
            "moment_diff_1",
            "moment_diff_2",
            "lambda_ml",
        ]
        assert len(rows) == 2
        assert float(rows[0]["fisher_divergence"]) < 1e-4
        assert float(rows[1]["cml_loss"]) > 1.0
        assert abs(float(rows[0]["moment_diff_1"])) > 3.9

    @pytest.mark.parametrize("reference", ["true", "kde"])
    def test_remedies_run_writes_lambda_times_exact_loss(self, tmp_path, reference):
        # the config still carries a `pairs` key, which nothing reads
        body = REMEDIES.replace("reference = true", f"reference = {reference}")
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["remedies-run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "report.csv")
        # the default records of remedies-run
        data = sl.GaussianMixture1D([0.9, 0.1], [-5.0, 5.0], [1.0, 1.0])
        model = sl.GaussianMixture1D([0.1, 0.9], [-5.0, 5.0], [1.0, 1.0])
        xs = sl.sample(data, 600, sl.make_stream(11, 0))
        ml = sl.kde_fit(xs) if reference == "kde" else data
        unit = sl.cml_loss(model, ml, xs)
        assert [float(r["lambda_ml"]) for r in rows] == [0.5, 1.0]
        assert [float(r["cml_loss"]) for r in rows] == [lam * unit for lam in (0.5, 1.0)]

    def test_remedies_run_accepts_a_zero_lambda(self, tmp_path):
        body = REMEDIES.replace("lambdas = 0.5, 1.0", "lambdas = 0, 1.0")
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["remedies-run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "report.csv")
        assert rows[0]["cml_loss"] == "0.0"
        assert float(rows[1]["cml_loss"]) > 1.0


def loaded_by_import(package):
    """The modules of `package` that a fresh `import scorelab.cli` loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys, scorelab.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout.strip()


class TestCliContract:
    def test_import_loads_no_scipy(self):
        assert loaded_by_import("scipy") == "[]"

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging and queue; only --threads > 1
        # uses the pool, and `_map_cells` imports it then
        assert loaded_by_import("concurrent") == "[]"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.cfg", SVGD.format(out=tmp_path / "out_a"))
        cfg_b = write_config(tmp_path / "b.cfg", SVGD.format(out=tmp_path / "out_b"))
        assert cli.main(["svgd-run", "--config", cfg_a]) == 0
        assert cli.main(["svgd-run", "--config", cfg_b]) == 0
        assert tree_bytes(tmp_path / "out_a") == tree_bytes(tmp_path / "out_b")

    def test_unread_keys_and_sections_warned_and_change_nothing_else(self, tmp_path, capsys):
        svgd = SVGD.replace("seed = 7\n", "seed = 7\nthread = 2\nthreads = 2\n")
        for command, clean, body, warned in (
            (
                "svgd-run",
                SVGD,
                svgd + "step-size = 0.5\nbeta = 1\nthreshold = 100\n\n[models]\nnear = weights=1.0; means=-5.0; stds=1.0\n",
                [
                    "[experiment] thread", "[experiment] threads", "[models]", "[params] beta",
                    "[params] step-size", "[params] threshold",
                ],
            ),
            # the mode split is the midpoint of the outer means and the trace
            # takes every 10th step, whatever these keys say
            (
                "langevin-run",
                LANGEVIN,
                LANGEVIN + "threshold = -100\ntrace_every = 1\n",
                ["[params] threshold", "[params] trace_every"],
            ),
            ("stein-sweep", STEIN, STEIN + "\n[param]\nseparations = 6\n", ["[param]"]),
            # keys are read as written, so a key in another case is unread
            ("ksd-run", KSD, KSD.replace("n = 800\n", "n = 800\nBandwidth = 2\n"), ["[params] Bandwidth"]),
        ):
            results, errs = [], []
            for name, text in ((f"{command}_a", clean), (f"{command}_b", body)):
                cfg = write_config(tmp_path / f"{name}.cfg", text.format(out=tmp_path / name))
                code = cli.main([command, "--config", cfg])
                captured = capsys.readouterr()
                stdout = captured.out.replace(str(tmp_path / name), "OUT")
                results.append((code, stdout, tree_bytes(tmp_path / name)))
                errs.append(captured.err)
            assert results[0] == results[1]
            assert errs == ["", "".join(f"lab: warning: {w} is not read by {command}\n" for w in warned)]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_config_whose_keys_are_all_read_writes_no_stderr(self, tmp_path, capsys, command):
        body = {
            "score-plot": SCORE_PLOT,
            "fisher-sweep": FISHER,
            "stein-sweep": STEIN,
            "ksd-run": KSD,
            "svgd-run": SVGD,
            "langevin-run": LANGEVIN,
            "remedies-run": REMEDIES,
        }[command]
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 0
        assert capsys.readouterr().err == ""

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        for command, template, threads in (
            # two pairs, so the cells of one separation split across threads
            ("fisher-sweep", FISHER.replace("pi_pairs = 0.5:0.9", "pi_pairs = 0.5:0.9, 0.2:0.7"), "4"),
            ("ksd-run", KSD, "2"),
            ("svgd-run", SVGD, "2"),
        ):
            cfg = write_config(tmp_path / f"{command}.cfg", template.format(out=tmp_path / "ignored"))
            one, many = tmp_path / f"{command}_t1", tmp_path / f"{command}_t{threads}"
            assert cli.main([command, "--config", cfg, "--out", str(one), "--threads", "1"]) == 0
            assert cli.main([command, "--config", cfg, "--out", str(many), "--threads", threads]) == 0
            assert tree_bytes(one) == tree_bytes(many), command

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", "[experiment]\ncommand = ksd-run\n")
        assert cli.main(["ksd-run", "--config", bad]) == 2
        assert "seed" in capsys.readouterr().err

    def test_malformed_model_named_and_leaves_no_outputs(self, tmp_path, capsys):
        body = KSD.format(out=tmp_path / "out") + "spurious = weights=0.5,0.6; means=-5.0,5.0; stds=1.0,1.0\n"
        cfg = write_config(tmp_path / "m.cfg", body)
        assert cli.main(["ksd-run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "[models] spurious:" in err
        assert "got 1.1" in err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "command, body, key",
        [
            ("ksd-run", KSD + "a,b = weights=1.0; means=0.0; stds=1.0\n", "[models] a,b"),
            ("ksd-run", KSD + 'q"uote = weights=1.0; means=0.0; stds=1.0\n', '[models] q"uote'),
            ("remedies-run", REMEDIES + "scenario = swap, then more\n", "[params] scenario"),
            ("remedies-run", REMEDIES + "scenario = swap\n  then more\n", "[params] scenario"),
        ],
        ids=["model comma", "model quote", "scenario comma", "scenario newline"],
    )
    def test_label_that_breaks_a_csv_cell_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, command, body, key
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the labels were checked")

        monkeypatch.setattr(cli.mx, "sample", no_sampling)
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 2
        assert f"{key}: a label must not contain" in capsys.readouterr().err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("lambdas = 0.5, 1.0", "lambdas = -1.0", "[params] lambdas:"),
            ("lambdas = 0.5, 1.0", "lambdas = 0.5, nan", "[params] lambdas:"),
            ("lambdas = 0.5, 1.0", "lambdas = inf, 1.0", "[params] lambdas:"),
            ("lambdas = 0.5, 1.0", "lambdas =", "[params] lambdas:"),
            ("n_samples = 600", "n_samples = 1", "[params] n_samples:"),
            ("reference = true", "reference = model", "[params] reference must be kde or true, got 'model'"),
        ],
        ids=["negative lambda", "nan lambda", "inf lambda", "no lambdas", "one sample", "unknown reference"],
    )
    def test_bad_remedies_param_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, old, new, key
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the params were checked")

        monkeypatch.setattr(cli.mx, "sample", no_sampling)
        body = REMEDIES.replace(old, new)
        assert body != REMEDIES
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["remedies-run", "--config", cfg]) == 2
        assert key in capsys.readouterr().err
        assert_no_outputs(tmp_path)

    def test_lambda_whose_loss_overflows_named_and_leaves_no_outputs(self, tmp_path, capsys):
        # the loss is known only after sampling, so this check comes after it
        body = REMEDIES.replace("lambdas = 0.5, 1.0", "lambdas = 0.5, 1e308")
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["remedies-run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lab: config error: [params] lambdas: 1e+308 times the loss ")
        assert err.endswith(" is not finite\n")
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "command, body",
        [
            ("ksd-run", KSD.replace("n = 800\n", "n = 800\nbandwidth = nan\n")),
            ("svgd-run", SVGD + "bandwidth = inf\n"),
            ("svgd-run", SVGD + "bandwidth = 0\n"),
        ],
        ids=["ksd nan", "svgd inf", "svgd zero"],
    )
    def test_bad_bandwidth_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, command, body):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the bandwidth was checked")

        monkeypatch.setattr(cli.mx, "sample", no_sampling)
        monkeypatch.setattr(cli, "make_stream", no_sampling)
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 2
        assert "[params] bandwidth: bandwidth must be positive and finite" in capsys.readouterr().err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "command, body, key",
        [
            ("svgd-run", SVGD + "bandwidth = 1e200\n", "bandwidth: bandwidth"),
            ("svgd-run", SVGD + "bandwidth = 1e-300\n", "bandwidth: bandwidth"),
            ("ksd-run", KSD.replace("n = 800\n", "n = 800\nbandwidth = 1e-160\n"), "bandwidth: bandwidth"),
            ("ksd-run", KSD.replace("n = 800\n", "n = 800\nbandwidth = 1e-200\n"), "bandwidth: bandwidth"),
            ("ksd-run", KSD.replace("n = 800\n", "n = 800\nbandwidth = 1e-150\n"), "bandwidth: bandwidth 1e-150 is too small"),
            ("ksd-run", KSD.replace("n = 800\n", "n = 800\nbandwidth = 1e-100\n"), "bandwidth: bandwidth 1e-100 is too small"),
            (
                "ksd-run", KSD.replace("n = 800\n", "n = 800\nbandwidth = 1e-15\n"),
                "bandwidth: bandwidth 1e-15 is too small for samples reaching 17",
            ),
            ("fisher-sweep", FISHER + "sigma = 1e-170\n", "pi_pairs, sigma: stds"),
            ("stein-sweep", STEIN + "sigma = 1e-170\n", "pi1, sigma: stds"),
            ("svgd-run", SVGD + "sigma = 1e-170\n", "pi1_grid, mu1, mu2, sigma: stds"),
            (
                "ksd-run", KSD.replace("means=-5.0; stds=1.0\nn", "means=-5.0; stds=1e-170\nn"),
                "samples_from: stds",
            ),
            ("langevin-run", LANGEVIN + "sigma_max = 1e160\n", "sigma_max: must be positive and finite, with a"),
            ("langevin-run", LANGEVIN + "base_step = 1e308\n", "base_step: every level step"),
        ],
        ids=[
            "svgd bandwidth 1e200", "svgd bandwidth 1e-300", "ksd bandwidth 1e-160",
            "ksd bandwidth 1e-200", "ksd bandwidth 1e-150 at n 800", "ksd bandwidth 1e-100 at n 800",
            "ksd bandwidth 1e-15 below the samples' rounding",
            "fisher sigma 1e-170", "stein sigma 1e-170",
            "svgd sigma 1e-170", "ksd samples_from std 1e-170", "langevin sigma_max 1e160",
            "langevin base_step 1e308",
        ],
    )
    def test_width_or_step_out_of_double_range_rejected_before_running(
        self, tmp_path, capsys, monkeypatch, command, body, key
    ):
        # each of these once crashed with exit 1 mid-run, on an overflow, a
        # division by zero or a non-finite value
        def no_running(*args, **kwargs):
            raise AssertionError("sampled or integrated before the params were checked")

        monkeypatch.setattr(cli.mx, "sample", no_running)
        monkeypatch.setattr(cli, "make_stream", no_running)
        monkeypatch.setattr(cli.mx, "quadrature_window", no_running)
        monkeypatch.setattr(cli.sm, "quadrature_window", no_running)
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 2
        assert f"lab: config error: [params] {key}" in capsys.readouterr().err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "command, body, keys",
        [
            ("fisher-sweep", FISHER + "sigma = 1e-150\n", "separations, sigma"),
            ("fisher-sweep", FISHER.replace("4, 6, 8, 10", "4") + "sigma = 1e-17\n", "separations, sigma"),
            ("stein-sweep", STEIN + "sigma = 1e-150\n", "separations, sigma"),
            ("score-plot", SCORE_PLOT.replace("sigma = 1\n", "sigma = 1e-150\n"), "mu1, mu2, sigma"),
            ("svgd-run", SVGD + "sigma = 1e-150\n", "mu1, mu2, sigma"),
            ("langevin-run", LANGEVIN.replace("stds=1.0,1.0", "stds=1e-150,1e-150"), "target"),
            ("remedies-run", REMEDIES + NARROW_DATA + NARROW_MODEL, "data, model"),
            ("remedies-run", REMEDIES + NARROW_MODEL, "model"),
        ],
        ids=[
            "fisher 1e-150", "fisher 1e-17 at means 2", "stein 1e-150", "score-plot 1e-150", "svgd 1e-150",
            "langevin 1e-150", "remedies 1e-150", "remedies model 1e-150",
        ],
    )
    def test_components_too_narrow_for_the_window_rejected_before_running(
        self, tmp_path, capsys, monkeypatch, command, body, keys
    ):
        # the window's pad of 12 widths rounds away against the means, so the
        # window would end on a mean and miss half the mass
        def no_running(*args, **kwargs):
            raise AssertionError("sampled or integrated before the window was checked")

        monkeypatch.setattr(cli, "make_stream", no_running)
        monkeypatch.setattr(cli.sm, "quad_integrate", no_running)
        monkeypatch.setattr(cli.st, "quad_integrate", no_running)
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"lab: config error: [params] {keys}: the quadrature window's pad of 12 component widths" in err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "command, body",
        [
            ("fisher-sweep", FISHER.replace("4, 6, 8, 10", "4") + "sigma = 1e-3\n"),
            ("stein-sweep", STEIN + "sigma = 1e-3\n"),
            ("score-plot", SCORE_PLOT.replace("sigma = 1\n", "sigma = 1e-3\n")),
        ],
        ids=["fisher", "stein", "score-plot"],
    )
    def test_narrow_components_within_the_window_run(self, tmp_path, command, body):
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 0

    def test_ksd_value_beyond_2_53_plots(self, tmp_path):
        # the self-pair term 1/(n h^2) puts the one KSD value near 1.25e21,
        # where a pad of 1 around the constant column rounds away; this once
        # exited 1 on a division by zero in the SVG
        record = "weights=0.5,0.5; means=-4.0,4.0; stds=1.0,1.0"
        body = (
            f"[experiment]\ncommand = ksd-run\nseed = 5\nout_dir = {tmp_path / 'out'}\n\n"
            f"[params]\nsamples_from = {record}\nn = 800\nbandwidth = 1e-12\n\n"
            f"[models]\ntrue = {record}\n"
        )
        cfg = write_config(tmp_path / "c.cfg", body)
        assert cli.main(["ksd-run", "--config", cfg]) == 0
        assert float(read_rows(tmp_path / "out" / "ksd.csv")[0]["value"]) > 2.0**53
        assert (tmp_path / "out" / "ksd.svg").read_text().endswith("</svg>\n")

    def test_nan_svgd_step_rejected_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the step size was checked")

        monkeypatch.setattr(cli, "make_stream", no_sampling)
        body = SVGD + "step_size = nan\n"
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["svgd-run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: [params] step_size: must be positive and finite" in err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize("key", ["sigma_max", "sigma_min", "base_step"])
    def test_nan_langevin_schedule_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the schedule was checked")

        monkeypatch.setattr(cli, "make_stream", no_sampling)
        body = LANGEVIN + f"{key} = nan\n"
        cfg = write_config(tmp_path / "c.cfg", body.format(out=tmp_path / "out"))
        assert cli.main(["langevin-run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: [params] {key}: must be positive and finite" in err
        assert_no_outputs(tmp_path)

    @pytest.mark.parametrize(
        "command, body, old, new, key",
        [
            ("ksd-run", KSD, "n = 800", "n = 0", "[params] n: must be at least 1, got 0"),
            ("svgd-run", SVGD, "particles = 60", "particles = 0", "[params] particles: must be at least 1"),
            (
                "langevin-run", LANGEVIN, "particles = 400", "particles = 0",
                "[params] particles: must be at least 1",
            ),
            (
                "score-plot", SCORE_PLOT, "grid_nodes = 801", "grid_nodes = 1",
                "[params] grid_nodes: must be at least 2, got 1",
            ),
            # the levels fall from sigma_max to sigma_min, whatever their count
            (
                "langevin-run", LANGEVIN, "particles = 400", "particles = 400\nsigma_max = 0.5\nsigma_min = 8.0",
                "[params] sigma_max, sigma_min: sigma_min must be below sigma_max",
            ),
            (
                "langevin-run", LANGEVIN, "particles = 400", "particles = 400\nlevels = 1\nsigma_min = 100",
                "[params] sigma_max, sigma_min: sigma_min must be below sigma_max",
            ),
            (
                "langevin-run", LANGEVIN, "particles = 400", "particles = 400\nsigma_max = 2\nsigma_min = 2",
                "[params] sigma_max, sigma_min: sigma_min must be below sigma_max, or equal to it for one "
                "level, got 2.0 and 2.0 over 8 levels",
            ),
            # two values that print alike would write one file or column twice
            (
                "svgd-run", SVGD, "pi1_grid = 0.5, 0.1", "pi1_grid = 0.1, 0.1000001",
                "[params] pi1_grid: 0.1 and 0.1000001 give the same name tag pi0.1",
            ),
            (
                "svgd-run", SVGD, "cells = -4:1, 0:3, 4:1", "cells = -4:1, 0:3, -4:1",
                "[params] cells: -4.0:1.0 and -4.0:1.0 give the same name tag mu-4_sd1",
            ),
            # a non-finite start would fail inside its cell, naming no key
            (
                "svgd-run", SVGD, "cells = -4:1, 0:3, 4:1", "cells = -4:1, -4:nan",
                "[params] cells: start mean and width must be finite, got -4.0:nan",
            ),
            (
                "svgd-run", SVGD, "cells = -4:1, 0:3, 4:1", "cells = 0:inf",
                "[params] cells: start mean and width must be finite, got 0.0:inf",
            ),
            # the start draws of a finite cell can overflow
            (
                "svgd-run", SVGD, "cells = -4:1, 0:3, 4:1", "cells = -4:1, 1e308:1e308",
                "[params] cells: start mean + 9 widths must be finite, got 1e+308:1e+308",
            ),
            (
                "score-plot", SCORE_PLOT, "pi_grid = 0.1, 0.5, 0.9", "pi_grid = 0.3, 0.3",
                "[params] pi_grid: 0.3 and 0.3 give the same name tag pi0.3",
            ),
            (
                "score-plot", SCORE_PLOT, "pi_grid = 0.1, 0.5, 0.9", "pi_grid =",
                "[params] pi_grid: must list at least one weight",
            ),
            (
                "svgd-run", SVGD, "pi1_grid = 0.5, 0.1", "pi1_grid =",
                "[params] pi1_grid: must list at least one weight",
            ),
            # each sweep row is one separation, so the list must increase
            (
                "fisher-sweep", FISHER, "separations = 4, 6, 8, 10", "separations = 8, 4",
                "[params] separations: must be finite, positive and strictly increasing, got 8.0, 4.0",
            ),
            (
                "fisher-sweep", FISHER, "separations = 4, 6, 8, 10", "separations = 4, 4",
                "[params] separations: must be finite, positive and strictly increasing, got 4.0, 4.0",
            ),
            (
                "fisher-sweep", FISHER, "separations = 4, 6, 8, 10", "separations = -4",
                "[params] separations: must be finite, positive and strictly increasing, got -4.0",
            ),
            (
                "stein-sweep", STEIN, "separations = 4, 8", "separations = -4",
                "[params] separations: must be finite, positive and strictly increasing, got -4.0",
            ),
            (
                "stein-sweep", STEIN, "separations = 4, 8", "separations = 4, inf",
                "[params] separations: must be finite, positive and strictly increasing, got 4.0, inf",
            ),
            (
                "fisher-sweep", FISHER, "separations = 4, 6, 8, 10", "separations =",
                "[params] separations: must be finite, positive and strictly increasing, got nothing",
            ),
            (
                "stein-sweep", STEIN, "separations = 4, 8", "separations =",
                "[params] separations: must be finite, positive and strictly increasing, got nothing",
            ),
            # every mixture is built, and so checked, before the first cell
            (
                "svgd-run", SVGD, "pi1_grid = 0.5, 0.1", "pi1_grid = 0.5, 1.5",
                "[params] pi1_grid, mu1, mu2, sigma: pi1 must lie in (0, 1), got 1.5",
            ),
            (
                "svgd-run", SVGD, "particles = 60", "particles = 60\nsigma = 0",
                "[params] pi1_grid, mu1, mu2, sigma: stds must be positive and finite",
            ),
            (
                "score-plot", SCORE_PLOT, "pi_grid = 0.1, 0.5, 0.9", "pi_grid = 0.5, 1.5",
                "[params] pi_grid, mu1, mu2, sigma: pi1 must lie in (0, 1), got 1.5",
            ),
            (
                "score-plot", SCORE_PLOT, "grid_nodes = 801", "grid_nodes = 801\nwitness_pi1 = 0",
                "[params] witness_pi1, mu1, mu2, sigma: pi1 must lie in (0, 1), got 0.0",
            ),
            (
                "stein-sweep", STEIN, "separations = 4, 8", "separations = 4, 8\npi1 = 1.5",
                "[params] pi1, sigma: pi1 must lie in (0, 1), got 1.5",
            ),
            (
                "stein-sweep", STEIN, "separations = 4, 8", "separations = 4, 8\nsigma = 0",
                "[params] pi1, sigma: stds must be positive and finite",
            ),
            (
                "fisher-sweep", FISHER, "pi_pairs = 0.5:0.9", "pi_pairs = 0.5:1.5",
                "[params] pi_pairs, sigma: pi1 must lie in (0, 1), got 1.5",
            ),
            (
                "fisher-sweep", FISHER, "pi_pairs = 0.5:0.9", "pi_pairs = 0.5:0.9\nsigma = 0",
                "[params] pi_pairs, sigma: stds must be positive and finite",
            ),
            (
                "fisher-sweep", FISHER, "pi_pairs = 0.5:0.9", "pi_pairs = 0.5:0.9\nsigma = nan",
                "[params] pi_pairs, sigma: stds must be positive and finite",
            ),
            # levels that np.geomspace rounds equal, and widths whose squares
            # overflow, alone or once smoothing adds them, name sigma_max
            (
                "langevin-run", LANGEVIN, "particles = 400",
                "particles = 400\nsigma_max = 1.0\nsigma_min = 0.9999999999999998",
                "[params] sigma_max, sigma_min: sigma_min must be below sigma_max",
            ),
            (
                "langevin-run", LANGEVIN, "particles = 400",
                "particles = 400\nlevels = 1\nsigma_max = 1.7e308\nsigma_min = 1.7e308",
                "[params] sigma_max: must be positive and finite, with a finite square, got 1.7e+308",
            ),
            (
                "langevin-run", LANGEVIN, "particles = 400", "particles = 400\nsigma_max = 1.7e308",
                "[params] sigma_max: must be positive and finite, with a finite square, got 1.7e+308",
            ),
            (
                "langevin-run", LANGEVIN, "stds=1.0,1.0\n",
                "stds=1e154,1e154\nlevels = 1\nsigma_max = 1e154\nsigma_min = 1e154\n",
                "[params] target, sigma_max: stds must be positive and finite",
            ),
            (
                "langevin-run", LANGEVIN, "particles = 400", "particles = 400\nlevels = 0",
                "[params] levels: must be >= 1",
            ),
            (
                "langevin-run", LANGEVIN, "steps_per_level = 40", "steps_per_level = 0",
                "[params] steps_per_level: must be >= 1",
            ),
            (
                "svgd-run", SVGD, "iterations = 150", "iterations = 0",
                "[params] iterations: must be >= 1, got 0",
            ),
            (
                "svgd-run", SVGD, "snapshot_every = 50", "snapshot_every = 0",
                "[params] snapshot_every: must be >= 1",
            ),
            # the config accessors and the mixture records
            (
                "score-plot", SCORE_PLOT, "grid_nodes = 801", "grid_nodes = 80.5",
                "[params] grid_nodes must be an integer, got '80.5'",
            ),
            (
                "score-plot", SCORE_PLOT, "pi_grid = 0.1, 0.5, 0.9", "pi_grid = 0.1, half",
                "[params] pi_grid must be comma-separated numbers, got '0.1, half'",
            ),
            (
                "fisher-sweep", FISHER, "pi_pairs = 0.5:0.9", "pi_pairs = 0.5",
                "[params] pi_pairs entries must look like a:b, got '0.5'",
            ),
            (
                "fisher-sweep", FISHER, "pi_pairs = 0.5:0.9", "pi_pairs = 0.5:high",
                "[params] pi_pairs has non-numeric pair '0.5:high'",
            ),
            (
                "fisher-sweep", FISHER, "pi_pairs = 0.5:0.9", "pi_pairs = ,",
                "[params] pi_pairs must list at least one pair",
            ),
            (
                "langevin-run", LANGEVIN, "weights=0.3,0.7", "weights=1.5,-0.5",
                "[params] target: mixing weights must be positive",
            ),
            (
                "langevin-run", LANGEVIN, "means=-4.0,4.0", "means=nan,4.0",
                "[params] target: means must be finite",
            ),
            (
                "langevin-run", LANGEVIN, "means=-4.0,4.0", "means",
                "[params] target: malformed mixture record field: 'means'",
            ),
            (
                "ksd-run", KSD, "[models]\nnear = weights=1.0; means=-5.0; stds=1.0\n"
                "far = weights=1.0; means=5.0; stds=1.0\n", "",
                "ksd-run needs a [models] section",
            ),
        ],
        ids=[
            "ksd n", "svgd particles", "langevin particles", "score-plot grid_nodes",
            "langevin sigma_min above sigma_max", "langevin one level sigma_min above sigma_max",
            "langevin equal sigmas", "svgd pi1_grid tags", "svgd cells tags",
            "svgd nan cell", "svgd inf cell", "svgd overflowing cell",
            "score-plot pi_grid tags", "score-plot empty pi_grid", "svgd empty pi1_grid",
            "fisher decreasing separations", "fisher repeated separation", "fisher negative separation",
            "stein negative separation", "stein infinite separation",
            "fisher empty separations", "stein empty separations", "svgd pi1_grid weight",
            "svgd zero sigma", "score-plot pi_grid weight", "score-plot witness_pi1 weight",
            "stein pi1 weight", "stein zero sigma", "fisher pi_pairs weight", "fisher zero sigma",
            "fisher nan sigma", "langevin levels that round equal", "langevin one level sigma_max square",
            "langevin sigma_max square", "langevin target and sigma_max squares", "langevin zero levels",
            "langevin zero steps_per_level", "svgd zero iterations", "svgd zero snapshot_every",
            "score-plot fractional grid_nodes", "score-plot text in pi_grid", "fisher pair without colon",
            "fisher text in pair", "fisher no pairs", "langevin negative weight", "langevin nan mean",
            "langevin field without =", "ksd no models",
        ],
    )
    def test_bad_count_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, recwarn, command, body, old, new, key
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled or integrated before the params were checked")

        monkeypatch.setattr(cli.mx, "sample", no_sampling)
        monkeypatch.setattr(cli, "make_stream", no_sampling)
        monkeypatch.setattr(cli.mx, "quadrature_window", no_sampling)
        monkeypatch.setattr(cli.sm, "quadrature_window", no_sampling)
        changed = body.replace(old, new)
        assert changed != body
        cfg = write_config(tmp_path / "c.cfg", changed.format(out=tmp_path / "out"))
        assert cli.main([command, "--config", cfg]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not [w.message for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert_no_outputs(tmp_path)

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", FISHER.format(out=tmp_path / "out"))
        assert cli.main(["stein-sweep", "--config", cfg]) == 2
        assert "declares command" in capsys.readouterr().err

    def test_module_failure_before_writing_leaves_no_outputs(self, tmp_path, capsys):
        body = LANGEVIN.format(out=tmp_path / "out") + "levels = 1\nbase_step = 1e308\n"
        cfg = write_config(tmp_path / "c.cfg", body)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["langevin-run", "--config", cfg]) == 1
        assert_no_outputs(tmp_path)

    def test_missing_out_dir_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "a.cfg", "[experiment]\ncommand = fisher-sweep\nseed = 0\n"
        )
        assert cli.main(["fisher-sweep", "--config", cfg]) == 2

    def test_thread_count_below_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", FISHER.format(out=tmp_path / "out"))
        assert cli.main(["fisher-sweep", "--config", cfg, "--threads", "0"]) == 2
        assert "config error: --threads: must be at least 1, got 0" in capsys.readouterr().err
        assert_no_outputs(tmp_path)

    def test_experiment_threads_key_is_not_read(self, tmp_path, capsys):
        # only --threads sets the thread count; even an invalid key is ignored
        results, errs = [], []
        for name, body in (("out_a", FISHER), ("out_b", FISHER.replace("seed = 1\n", "seed = 1\nthreads = -3\n"))):
            cfg = write_config(tmp_path / f"{name}.cfg", body.format(out=tmp_path / name))
            code = cli.main(["fisher-sweep", "--config", cfg])
            captured = capsys.readouterr()
            results.append((code, captured.out.replace(str(tmp_path / name), "OUT"), tree_bytes(tmp_path / name)))
            errs.append(captured.err)
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert errs == ["", "lab: warning: [experiment] threads is not read by fisher-sweep\n"]


class TestOutputDirectory:
    def test_hard_exit_while_writing_leaves_no_out_dir(self, tmp_path):
        # the child dies in its first render_svg, when every CSV is written
        cfg = write_config(tmp_path / "c.cfg", SCORE_PLOT.format(out=tmp_path / "out"))
        code = (
            "import os, sys, scorelab.cli as cli\n"
            "cli.render_svg = lambda *args: os._exit(7)\n"
            "sys.exit(cli.main(['score-plot', '--config', sys.argv[1]]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, cfg], env=env, timeout=60)
        assert proc.returncode == 7
        assert not (tmp_path / "out").exists()
        # what the killed run wrote stays in its hidden sibling, which a
        # later run ignores
        [hidden] = tmp_path.glob(".out.*")
        assert sorted(p.name for p in hidden.rglob("*.csv")) == ["curves.csv", "witness.csv"]
        assert cli.main(["score-plot", "--config", cfg]) == 0
        assert len(list((tmp_path / "out").iterdir())) == 4

    def test_python_failure_while_writing_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("render failed")

        monkeypatch.setattr(cli, "render_svg", fail)
        cfg = write_config(tmp_path / "c.cfg", SCORE_PLOT.format(out=tmp_path / "out"))
        assert cli.main(["score-plot", "--config", cfg]) == 1
        assert_no_outputs(tmp_path)

    def test_success_leaves_only_the_out_dir(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", FISHER.format(out=tmp_path / "out"))
        assert cli.main(["fisher-sweep", "--config", cfg]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "out"]

    @pytest.mark.parametrize("kind", ["directory", "file"])
    def test_existing_out_dir_refused_before_the_experiment(self, tmp_path, capsys, monkeypatch, kind):
        def never(cfg):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli._HANDLERS, "svgd-run", never)
        out = tmp_path / "out"
        if kind == "directory":
            out.mkdir()
            (out / "snapshots_pi0.3_mu0_sd1.csv").write_bytes(b"stale\n")
        else:
            out.write_bytes(b"not a directory\n")

        def contents():
            return tree_bytes(out) if kind == "directory" else out.read_bytes()

        before = contents()
        cfg = write_config(tmp_path / "c.cfg", SVGD.format(out=out))
        assert cli.main(["svgd-run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: output directory {out} exists and is not an empty directory" in err
        assert contents() == before
        assert not list(tmp_path.glob(".out.*"))

    def test_empty_out_dir_accepted(self, tmp_path):
        (tmp_path / "out").mkdir()
        cfg = write_config(tmp_path / "c.cfg", FISHER.format(out=tmp_path / "out"))
        assert cli.main(["fisher-sweep", "--config", cfg]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sweep.csv", "sweep.svg"]

    def test_out_dir_has_the_mode_of_a_plain_mkdir(self, tmp_path):
        # the parent of out is made too
        out = tmp_path / "new" / "out"
        cfg = write_config(tmp_path / "c.cfg", FISHER.format(out=out))
        assert cli.main(["fisher-sweep", "--config", cfg]) == 0
        plain = tmp_path / "new" / "plain"
        plain.mkdir()
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
