"""Experiment runner: turns declarative configs into CSV tables and SVG
plots wiring all modules together.

Usage: lab <command> --config <path> [--out <dir>] [--threads N]

Grid cells run independently, each deriving its random stream from
(seed, cell_index); results are gathered and written in canonical cell
order, so output bytes do not depend on the thread count.  ksd-run scores
all its models in one pass over the sample boxes, so --threads does not
split it; remedies-run computes its exact O(n) log-ratio loss once and
scales it by each of its lambdas.  Each table is built once as named
columns and carries its own plots: its CSV is formatted one column at a
time and its plots are drawn from the same columns.

A run writes its files into a directory inside a hidden sibling
`.<name>.*` of the output directory and renames that directory into place
once the last file is complete, so an output directory holds one whole run
or does not exist.  A failed run removes the sibling; only a hard kill can
leave one, and later runs ignore it.  An output directory that exists and
is not empty is refused (exit 2).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import langevin as lv
from . import mixture as mx
from . import remedies as rm
from . import scorematch as sm
from . import stein as st
from . import svgd as sv
from .config import COMMANDS, ConfigError, ExperimentConfig, check_label, load_config
from .numerics import make_stream
from .svgplot import PlotSpec, render_svg


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _column(values) -> list[str]:
    """One CSV column by the rules of `_cell`; numeric arrays in one pass."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf" and values.itemsize <= 8:
        return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))
    return [_cell(v) for v in values]


def _csv(names, columns) -> str:
    lines = [",".join(names), *map(",".join, zip(*map(_column, columns)))]
    return "\n".join(lines) + "\n"


def _by_rows(names, rows) -> dict:
    """A {name: column} table from row tuples."""
    return dict(zip(names, zip(*rows) if rows else [()] * len(names)))


def _map_cells(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: it pulls in logging, threading and queue, which a
    # one-thread run never uses
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _tag(value: float) -> str:
    return f"{value:g}"


def _unique_tags(key: str, values, tags) -> None:
    """A ConfigError naming `key` if two of `values` (as text) share a tag
    of the file or column names, where one would overwrite the other."""
    seen = {}
    for value, tag in zip(values, tags):
        if tag in seen:
            raise ConfigError(f"[params] {key}: {seen[tag]} and {value} give the same name tag {tag}")
        seen[tag] = value


def _count(cfg: ExperimentConfig, key: str, default: int, least: int) -> int:
    """An integer [params] key that must be at least `least`."""
    value = cfg.get_int(key, default)
    if value < least:
        raise ConfigError(f"[params] {key}: must be at least {least}, got {value}")
    return value


def _weights(cfg: ExperimentConfig, key: str, default: str) -> list[float]:
    """A comma-separated list of weights, `key` of [params], naming at least one."""
    values = cfg.get_floats(key, default)
    if not values:
        raise ConfigError(f"[params] {key}: must list at least one weight")
    return values


def _separations(cfg: ExperimentConfig) -> list[float]:
    """The sweeps' `separations` [params] key: finite, positive and strictly
    increasing, as each sweep row is one separation."""
    seps = cfg.get_floats("separations", "4, 6, 8, 10")
    # at least one value, each exceeding the one before it, the first
    # exceeding 0 and none inf
    if not seps or not all(a < b < np.inf for a, b in zip([0.0, *seps], seps)):
        raise ConfigError(
            "[params] separations: must be finite, positive and strictly increasing, "
            f"got {', '.join(map(repr, seps)) or 'nothing'}"
        )
    return seps


def _two_components(keys: str, weights, mu1: float, mu2: float, sigma: float) -> list[mx.GaussianMixture1D]:
    """One two-component mixture per weight; a bad weight, mean or width is
    a ConfigError naming `keys`, the [params] keys that built it."""
    try:
        return [mx.two_component(p1, mu1, mu2, sigma) for p1 in weights]
    except ValueError as exc:
        raise ConfigError(f"[params] {keys}: {exc}") from None


def _window(keys: str, *mixtures: mx.GaussianMixture1D):
    """The quadrature window of `mixtures`; components too narrow for its
    pad are a ConfigError naming `keys`, the [params] keys that set them."""
    try:
        return mx.quadrature_window(*mixtures)
    except ValueError as exc:
        raise ConfigError(f"[params] {keys}: {exc}") from None


def _threshold(cfg: ExperimentConfig, default: float) -> float:
    """The mode-fraction `threshold` [params] key, which must be finite."""
    value = cfg.get_float("threshold", default)
    if not np.isfinite(value):
        raise ConfigError(f"[params] threshold: must be finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# command handlers: each returns {csv name: (table, {svg name: PlotSpec})},
# a table being {column name: column} in column order; `run` writes every
# table and then draws each table's plots from it


def _run_score_plot(cfg: ExperimentConfig):
    mu1 = cfg.get_float("mu1", -4.0)
    mu2 = cfg.get_float("mu2", 4.0)
    sigma = cfg.get_float("sigma", 1.0)
    pi_grid = _weights(cfg, "pi_grid", "0.1, 0.5, 0.9")
    witness_pi1 = cfg.get_float("witness_pi1", 0.5)
    grid_nodes = _count(cfg, "grid_nodes", 801, 2)
    tags = [f"pi{_tag(p1)}" for p1 in pi_grid]
    _unique_tags("pi_grid", map(repr, pi_grid), tags)

    mixtures = _two_components("pi_grid, mu1, mu2, sigma", pi_grid, mu1, mu2, sigma)
    (p,) = _two_components("witness_pi1, mu1, mu2, sigma", [witness_pi1], mu1, mu2, sigma)
    window = _window("mu1, mu2, sigma", *mixtures)
    xs = np.linspace(window.lower, window.upper, grid_nodes)

    curves = {"x": xs}
    for tag, m in zip(tags, mixtures):
        curves[f"density_{tag}"] = mx.pdf(m, xs)
        curves[f"score_{tag}"] = mx.score(m, xs)

    q = mx.gaussian(mu1, sigma)
    witness = {
        "x": xs,
        "f_weighted": st.witness_weighted(q, p, xs),
        "f_unweighted": st.witness_unweighted(q, p, xs),
        "q_pdf": mx.pdf(q, xs),
        "p_score": mx.score(p, xs),
        "q_score": mx.score(q, xs),
    }
    densities = tuple(f"density_{tag}" for tag in tags)
    scores = tuple(f"score_{tag}" for tag in tags)
    curves_plot = PlotSpec("lines", x="x", y=densities, y2=scores, title="densities and scores")
    witness_plot = PlotSpec("lines", x="x", y=("f_weighted", "f_unweighted", "q_pdf"), title="optimal witnesses")
    return {
        "curves.csv": (curves, {"curves.svg": curves_plot}),
        "witness.csv": (witness, {"witness.svg": witness_plot}),
    }


def _run_fisher_sweep(cfg: ExperimentConfig):
    separations = _separations(cfg)
    pi_pairs = cfg.get_pairs("pi_pairs", "0.5:0.9")
    sigma = cfg.get_float("sigma", 1.0)
    # every mixture and window is built, so checked, before any quadrature
    weights = [pi for pair in pi_pairs for pi in pair]
    for s in separations:
        mixtures = _two_components("pi_pairs, sigma", weights, -s / 2.0, s / 2.0, sigma)
        _window("separations, sigma", *mixtures)

    chunks = _map_cells(
        lambda s: sm.blindness_sweep([s], pi_pairs, sigma), separations, cfg.threads
    )
    table = {name: [v for chunk in chunks for v in chunk[name]] for name in chunks[0]}
    spec = PlotSpec("lines", x="separation", y=("j_pp_prime", "j_q_p"), title="fisher divergence vs separation")
    return {"sweep.csv": (table, {"sweep.svg": spec})}


def _run_stein_sweep(cfg: ExperimentConfig):
    separations = _separations(cfg)
    pi1 = cfg.get_float("pi1", 0.5)
    sigma = cfg.get_float("sigma", 1.0)
    # every mixture and window is built, so checked, before any quadrature
    cells = []
    for s in separations:
        (p,) = _two_components("pi1, sigma", [pi1], -s / 2.0, s / 2.0, sigma)
        q = mx.gaussian(-s / 2.0, sigma)
        cells.append((s, p, q, _window("separations, sigma", q, p)))

    def one(cell):
        s, p, q, spec = cell
        w = st.stein_discrepancy(q, p, st.L2_Q_WEIGHTED, spec)
        u = st.stein_discrepancy(q, p, st.L2_UNWEIGHTED, spec)
        return (s, pi1, w.value, u.value, spec.nodes)

    rows = _map_cells(one, cells, cfg.threads)
    table = _by_rows(["separation", "pi1", "sd_weighted", "sd_unweighted", "nodes"], rows)
    spec = PlotSpec("lines", x="separation", y=("sd_weighted", "sd_unweighted"), title="stein discrepancy vs separation")
    return {"stein_sweep.csv": (table, {"stein_sweep.svg": spec})}


def _kernel(cfg: ExperimentConfig) -> st.KernelSpec:
    try:
        return st.KernelSpec(cfg.get_float("bandwidth", 1.0))
    except ValueError as exc:
        raise ConfigError(f"[params] bandwidth: {exc}") from None


def _run_ksd(cfg: ExperimentConfig):
    if not cfg.models:
        raise ConfigError("ksd-run needs a [models] section with one mixture record per key")
    source = cfg.get_mixture("samples_from")
    n = _count(cfg, "n", 10_000, 1)
    kernel = _kernel(cfg)
    # a draw lies beyond 12 widths of its mean with probability 4e-33
    reach = float(np.max(np.abs(source.means) + mx._WINDOW_PAD * source.stds))
    try:
        st._check_scale(n, kernel.bandwidth, reach)
    except ValueError as exc:
        raise ConfigError(f"[params] bandwidth: {exc}") from None

    labels = list(cfg.models)
    models = []
    for label in labels:
        check_label(f"[models] {label}", label)
        try:
            models.append(mx.from_record(cfg.models[label]))
        except ValueError as exc:
            raise ConfigError(f"[models] {label}: {exc}") from None

    samples = mx.sample(source, n, make_stream(cfg.seed, 0))
    estimates = st.ksd_vstats(samples, models, kernel)
    table = _by_rows(
        ["index", "model", "value", "std_error", "n", "bandwidth"],
        [
            (i, label, est.value, est.std_error, est.resolution, kernel.bandwidth)
            for i, (label, est) in enumerate(zip(labels, estimates))
        ],
    )
    return {"ksd.csv": (table, {"ksd.svg": PlotSpec("lines", x="index", y=("value",), title="ksd by model")})}


def _run_svgd(cfg: ExperimentConfig):
    mu1 = cfg.get_float("mu1", -4.0)
    mu2 = cfg.get_float("mu2", 4.0)
    sigma = cfg.get_float("sigma", 1.0)
    pi1_grid = _weights(cfg, "pi1_grid", "0.5, 0.1")
    cells = cfg.get_pairs("cells", "-4:1, 0:3, 4:1")
    _unique_tags("pi1_grid", map(repr, pi1_grid), [f"pi{_tag(p1)}" for p1 in pi1_grid])
    _unique_tags(
        "cells",
        [f"{mu0!r}:{s0!r}" for mu0, s0 in cells],
        [f"mu{_tag(mu0)}_sd{_tag(s0)}" for mu0, s0 in cells],
    )
    particles = _count(cfg, "particles", 200, 1)
    step_size = cfg.get_float("step_size", 0.1)
    iterations = cfg.get_int("iterations", 2000)
    kernel = _kernel(cfg)
    snapshot_every = cfg.get_int("snapshot_every", 500)
    threshold = _threshold(cfg, (mu1 + mu2) / 2.0)

    try:
        run_cfg = sv.SvgdConfig(
            kernel=kernel,
            step_size=step_size,
            iterations=iterations,
            snapshot_every=snapshot_every,
        )
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from None
    targets = _two_components("pi1_grid, mu1, mu2, sigma", pi1_grid, mu1, mu2, sigma)
    window = _window("mu1, mu2, sigma", *targets)
    grid = [(p1, target, mu0, s0) for p1, target in zip(pi1_grid, targets) for mu0, s0 in cells]

    def one(item):
        index, (_, target, mu0, s0) = item
        rng = make_stream(cfg.seed, index)
        init = sv.ParticleEnsemble(mu0 + s0 * rng.standard_normal(particles))
        final, snapshots = sv.svgd_run(init, target, run_cfg)
        return init, final, snapshots

    results = _map_cells(one, list(enumerate(grid)), cfg.threads)

    tables = {}
    summary_rows = []
    for (p1, _, mu0, s0), (init, final, snapshots) in zip(grid, results):
        tag = f"pi{_tag(p1)}_mu{_tag(mu0)}_sd{_tag(s0)}"
        summary_rows.append((cfg.seed, mu0, s0, p1, sv.mode_fraction(final, threshold)))
        # svgd_run always records the final positions, so snapshots is nonempty
        snapshot_table = {
            "iteration": np.repeat([it for it, _ in snapshots], particles),
            "particle_id": np.tile(np.arange(particles), len(snapshots)),
            "position": np.concatenate([positions for _, positions in snapshots]),
        }
        positions_table = {
            "phase": ["initial"] * particles + ["final"] * particles,
            "particle_id": np.tile(np.arange(particles), 2),
            "position": np.concatenate((init.positions, final.positions)),
        }
        hist = PlotSpec(
            "histogram",
            value="position",
            group="phase",
            lo=window.lower,
            hi=window.upper,
            title=f"svgd particles {tag}",
        )
        tables[f"snapshots_{tag}.csv"] = (snapshot_table, {})
        tables[f"positions_{tag}.csv"] = (positions_table, {f"hist_{tag}.svg": hist})
    summary = _by_rows(["seed", "mu0", "sigma0", "pi1", "final_mode_fraction"], summary_rows)
    tables["summary.csv"] = (summary, {})
    return tables


def _run_langevin(cfg: ExperimentConfig):
    target = cfg.get_mixture(
        "target", "weights=0.3,0.7; means=-4.0,4.0; stds=1.0,1.0; log_offset=0.0"
    )
    particles = _count(cfg, "particles", 5000, 1)
    sigma_max = cfg.get_float("sigma_max", 8.0)
    sigma_min = cfg.get_float("sigma_min", 0.5)
    levels = cfg.get_int("levels", 8)
    steps_per_level = cfg.get_int("steps_per_level", 200)
    base_step = cfg.get_float("base_step", 0.01)
    trace_every = _count(cfg, "trace_every", 10, 1)
    threshold = _threshold(cfg, (float(target.means.min()) + float(target.means.max())) / 2.0)

    try:
        sched = lv.geometric_schedule(sigma_max, sigma_min, levels, steps_per_level, base_step)
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from None
    trace_rows = []

    def observer(level, sigma_j, step, positions):
        if step % trace_every == 0 or step == steps_per_level - 1:
            trace_rows.append((level, sigma_j, step, float(np.mean(positions <= threshold))))

    ensemble = lv.annealed_langevin_run(
        particles, target, sched, make_stream(cfg.seed, 0), observer=observer
    )

    window = mx.quadrature_window(target)
    levels_table = _by_rows(["level", "sigma_j", "step", "mode_fraction"], trace_rows)
    trace = PlotSpec("lines", x="step", y=("mode_fraction",), title="mode fraction during annealing")
    final = {"particle_id": np.arange(particles), "position": ensemble.positions}
    hist = PlotSpec(
        "histogram",
        value="position",
        lo=window.lower,
        hi=window.upper,
        title="annealed langevin final positions",
    )
    return {
        "levels.csv": (levels_table, {"trace.svg": trace}),
        "final.csv": (final, {"hist_final.svg": hist}),
    }


def _run_remedies(cfg: ExperimentConfig):
    data = cfg.get_mixture(
        "data", "weights=0.9,0.1; means=-5.0,5.0; stds=1.0,1.0; log_offset=0.0"
    )
    model = cfg.get_mixture(
        "model", "weights=0.1,0.9; means=-5.0,5.0; stds=1.0,1.0; log_offset=0.0"
    )
    scenario = check_label("[params] scenario", cfg.get_str("scenario", "pi_swap"))
    n_samples = _count(cfg, "n_samples", 2000, 2)
    lambdas = _weights(cfg, "lambdas", "0.1, 1.0, 10.0")
    reference = cfg.get_str("reference", "kde")
    if reference not in ("kde", "true"):
        raise ConfigError(f"[params] reference must be kde or true, got {reference!r}")
    for lam in lambdas:
        if not (np.isfinite(lam) and lam >= 0):
            raise ConfigError(f"[params] lambdas: must be finite and nonnegative, got {lam}")

    samples = mx.sample(data, n_samples, make_stream(cfg.seed, 0))
    ml = rm.kde_fit(samples) if reference == "kde" else data
    fisher = sm.fisher_divergence(data, model).value
    moments = rm.moment_discrepancy(model, samples, [1, 2])
    # the loss is linear in lambda: one unweighted loss serves every lambda
    unit = rm.cml_loss(model, ml, samples)
    rows = [
        (scenario, fisher, lam * unit, float(moments[0]), float(moments[1]), lam)
        for lam in lambdas
    ]
    table = _by_rows(
        ["scenario", "fisher_divergence", "cml_loss", "moment_diff_1", "moment_diff_2", "lambda_ml"],
        rows,
    )
    spec = PlotSpec("lines", x="lambda_ml", y=("cml_loss",), title="pairwise log-ratio loss vs lambda")
    return {"report.csv": (table, {"report.svg": spec})}


_HANDLERS = {
    "score-plot": _run_score_plot,
    "fisher-sweep": _run_fisher_sweep,
    "stein-sweep": _run_stein_sweep,
    "ksd-run": _run_ksd,
    "svgd-run": _run_svgd,
    "langevin-run": _run_langevin,
    "remedies-run": _run_remedies,
}


def run(config: ExperimentConfig) -> list[Path]:
    """Execute one experiment into config.out_dir; returns the written paths.

    The files are staged in a hidden sibling of out_dir and renamed into
    place once the last is complete; an out_dir that exists and is not an
    empty directory is refused before the experiment runs.
    """
    out_dir = config.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: set [experiment] out_dir or pass --out")
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise ConfigError(f"output directory {out_dir} exists and is not an empty directory")
    tables = _HANDLERS[config.command](config)

    out_dir.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out_dir.name}.", dir=out_dir.parent) as hidden:
        stage = Path(hidden, "run")
        stage.mkdir()  # the mode of a plain mkdir; the hidden sibling's is 0700
        for name, (table, _) in tables.items():
            (stage / name).write_text(_csv(table, table.values()), encoding="utf-8")
        svgs = []
        for name, (table, plots) in tables.items():
            for svg, spec in plots.items():
                render_svg(stage / name, spec, stage / svg, table)
                svgs.append(svg)
        stage.rename(out_dir)
    return [out_dir / name for name in [*tables, *svgs]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab", description="score-method experiments on 1-D Gaussian mixtures"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="parallel grid cells")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.command != args.command:
            raise ConfigError(
                f"config file declares command {config.command!r} but {args.command!r} was invoked"
            )
        if args.out is not None:
            config.out_dir = Path(args.out)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads: must be at least 1, got {args.threads}")
            config.threads = args.threads
        written = run(config)
    except ConfigError as exc:
        print(f"lab: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface module failures as exit 1
        print(f"lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
