import csv

import numpy as np
import pytest

import scorelab.cli as cli
from scorelab.config import ConfigError, load_config
from scorelab.svgplot import PlotSpec, render_svg


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


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


class TestRenderSvg:
    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing column 'c'"):
            render_svg(p, PlotSpec("lines", x="a", y=("c",)))

    def test_empty_rows_gives_axes_only(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n")
        out = render_svg(p, PlotSpec("lines", x="x", y=("y",)))
        content = out.read_text()
        assert content.startswith("<svg") and "</svg>" in content
        assert "polyline" not in content

    def test_same_csv_twice_is_byte_identical(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n0,1\n1,3\n2,2\n")
        a = render_svg(p, PlotSpec("lines", x="x", y=("y",)), tmp_path / "a.svg")
        b = render_svg(p, PlotSpec("lines", x="x", y=("y",)), tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_renders_groups(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("phase,v\ninitial,0.1\ninitial,0.3\nfinal,1.4\n")
        out = render_svg(
            p, PlotSpec("histogram", value="v", group="phase", lo=0.0, hi=2.0)
        )
        content = out.read_text()
        assert content.count("<polygon") == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlotSpec("histogram", value="v")  # no range
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
pairs = 3000
lambdas = 0.5, 1.0
"""


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
        assert list(levels[0]) == ["level", "sigma_j", "step", "mode_fraction"]
        final = read_rows(tmp_path / "out" / "final.csv")
        assert list(final[0]) == ["particle_id", "position"]
        assert len(final) == 400

    def test_ksd_run_contrast(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", KSD.format(out=tmp_path / "out"))
        assert cli.main(["ksd-run", "--config", cfg]) == 0
        rows = {r["model"]: float(r["value"]) for r in read_rows(tmp_path / "out" / "ksd.csv")}
        assert rows["far"] > 10 * rows["near"]

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


class TestCliContract:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.cfg", SVGD.format(out=tmp_path / "out_a"))
        cfg_b = write_config(tmp_path / "b.cfg", SVGD.format(out=tmp_path / "out_b"))
        assert cli.main(["svgd-run", "--config", cfg_a]) == 0
        assert cli.main(["svgd-run", "--config", cfg_b]) == 0
        assert tree_bytes(tmp_path / "out_a") == tree_bytes(tmp_path / "out_b")

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        for command, template, threads in (
            ("fisher-sweep", FISHER, "4"),
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

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", FISHER.format(out=tmp_path / "out"))
        assert cli.main(["stein-sweep", "--config", cfg]) == 2
        assert "declares command" in capsys.readouterr().err

    def test_module_failure_removes_partial_outputs(self, tmp_path, capsys):
        body = LANGEVIN.format(out=tmp_path / "out") + "base_step = 1e308\n"
        cfg = write_config(tmp_path / "c.cfg", body)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["langevin-run", "--config", cfg]) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_out_dir_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "a.cfg", "[experiment]\ncommand = fisher-sweep\nseed = 0\n"
        )
        assert cli.main(["fisher-sweep", "--config", cfg]) == 2
