"""In-process timings of the scorelab layers, kept out of the test suite.

    python tools/layer_bench.py --out BENCH.json [--src DIR] [--label NAME]

Imports scorelab from DIR (default: this checkout's `src`) and times each
row: mixture evaluation at several sizes, the SVGD direction and run, the
annealed Langevin run on the `lab` defaults, the KSD V-statistic, the KDE,
the three models of one `ksd-run`, the three losses of one `remedies-run`,
and the output layer: the CSV text of score-plot's `curves.csv` (4001 rows
x 21 columns) and of one svgd-run `snapshots_*.csv`, each from the values a
handler holds, and the `curves.svg` rendered the way `lab` renders it.
Every row is warmed up once, then timed in k repeats of `number` calls; it
records the min and median seconds per call and the CPU seconds per call
(median).  The rows go under NAME in the JSON file, next to those already
there, with the host facts, so one file holds parent and change; when it
holds more than one label, the mins are printed side by side.
Compare on the min: the host is shared and its medians are noisy.
"""

from __future__ import annotations

import argparse
import json
import inspect
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

K_REPEATS = 5
REPEAT_S = 0.05  # target length of one repeat; sets `number`


def _time(fn) -> dict:
    fn()
    t = time.perf_counter()
    fn()
    once = time.perf_counter() - t
    number = max(1, int(REPEAT_S / max(once, 1e-9)))
    walls, cpus = [], []
    for _ in range(K_REPEATS):
        c, t = time.process_time(), time.perf_counter()
        for _ in range(number):
            fn()
        walls.append((time.perf_counter() - t) / number)
        cpus.append((time.process_time() - c) / number)
    return {
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "k": K_REPEATS,
        "number": number,
    }


def rows(sl, folder: Path) -> dict:
    """Name -> zero-argument callable, for the scorelab module `sl`; the
    output rows write their files into `folder`."""
    from scorelab.mixture import _logpdf

    rng = sl.make_stream(0, 0)
    mixtures = {
        2: sl.two_component(0.3, -4.0, 4.0, 1.0),
        3: sl.GaussianMixture1D([0.3, 0.5, 0.2], [-4.0, 0.5, 4.0], [1.0, 1.5, 0.8]),
    }
    out = {}
    for k, m in mixtures.items():
        for n in (200, 4097, 5000):
            x = rng.uniform(-10.0, 10.0, n)
            out[f"score K={k} n={n}"] = lambda m=m, x=x: sl.score(m, x)
            out[f"_logpdf K={k} n={n}"] = lambda m=m, x=x: _logpdf(m, x)
            out[f"score_derivative K={k} n={n}"] = lambda m=m, x=x: sl.score_derivative(m, x)

    target = sl.two_component(0.5, -4.0, 4.0, 1.0)
    kernel = sl.KernelSpec(1.0)
    ensemble = sl.ParticleEnsemble(3.0 * rng.standard_normal(200))
    out["svgd_direction N=200"] = lambda: sl.svgd_direction(ensemble, target, kernel)
    cfg = sl.SvgdConfig(kernel, 0.1, 600)
    out["svgd_run 200 x 600"] = lambda: sl.svgd_run(ensemble, target, cfg)

    # the langevin-run defaults of the CLI
    lv_target = sl.GaussianMixture1D([0.3, 0.7], [-4.0, 4.0], [1.0, 1.0])
    sched = sl.geometric_schedule(8.0, 0.5, 8, 200, 0.01)
    out["annealed_langevin_run defaults"] = lambda: sl.annealed_langevin_run(
        5000, lv_target, sched, sl.make_stream(3, 0)
    )

    for n in (1000, 3000):
        samples = sl.sample(target, n, rng)
        out[f"ksd_vstat N={n}"] = lambda s=samples: sl.ksd_vstat(s, target, kernel)
    centers = sl.sample(target, 2000, rng)
    kde = sl.kde_fit(centers)
    points = sl.sample(target, 2000, rng)
    out["kde_log_pdf 2000 x 2000"] = lambda: sl.kde_log_pdf(kde, points)
    # the losses of one remedies-run: a KDE reference on 2000 samples; a tree
    # with cml_losses draws 10,000 pairs per lambda, a tree without it forms
    # the exact loss once and scales it by each lambda
    data = sl.two_component(0.9, -5.0, 5.0, 1.0)
    swapped = sl.two_component(0.1, -5.0, 5.0, 1.0)
    xs = sl.sample(data, 2000, sl.make_stream(1, 0))  # leaves `rng` to the rows after
    ref = sl.kde_fit(xs)
    lambdas = (0.1, 1.0, 10.0)
    if hasattr(sl, "cml_losses"):
        cml_cfgs = [sl.CmlConfig(lam, 10_000) for lam in lambdas]
        out["remedies-run losses 3 lambdas"] = lambda: sl.cml_losses(
            swapped, ref, xs, cml_cfgs, [sl.make_stream(1, 1 + i) for i in range(len(lambdas))]
        )
    else:
        cml_cfgs = [sl.CmlConfig(lam) for lam in lambdas]

        def losses():
            unit = sl.cml_loss(swapped, ref, xs, sl.CmlConfig())
            return [c.lambda_ml * unit for c in cml_cfgs]

        out["remedies-run losses 3 lambdas"] = losses
    # one ksd-run: true, reweighted and 0.01-spurious models on one sample set;
    # a tree without ksd_vstats scores them one call each
    models = [
        target,
        sl.two_component(0.9, -4.0, 4.0, 1.0),
        sl.GaussianMixture1D([0.495, 0.495, 0.01], [-4.0, 4.0, 0.0], [1.0, 1.0, 1.0]),
    ]
    samples = sl.sample(target, 10_000, rng)
    if hasattr(sl, "ksd_vstats"):
        out["ksd-run models N=10000"] = lambda: sl.ksd_vstats(samples, models, kernel)
    else:
        out["ksd-run models N=10000"] = lambda: [sl.ksd_vstat(samples, p, kernel) for p in models]
    out.update(_output_rows(sl, rng, folder))
    return out


def _output_rows(sl, rng, folder: Path) -> dict:
    """The output layer as `lab` runs it.  A tree whose `render_svg` takes no
    `columns` formats row tuples and renders from the written CSV."""
    from scorelab.cli import _csv
    from scorelab.svgplot import PlotSpec, render_svg

    columnwise = "columns" in inspect.signature(render_svg).parameters
    out = {}

    # score-plot on the sweep workload: 4001 nodes, 10 weights
    mixtures = [sl.two_component(p1, -4.0, 4.0, 1.0) for p1 in np.linspace(0.05, 0.95, 10)]
    window = sl.quadrature_window(*mixtures)
    xs = np.linspace(window.lower, window.upper, 4001)
    names, series = ["x"], [xs]
    for i, m in enumerate(mixtures):
        names += [f"density_{i}", f"score_{i}"]
        series += [sl.pdf(m, xs), sl.score(m, xs)]
    if columnwise:
        out["curves.csv 4001 x 21 text"] = lambda: _csv(names, series)
    else:
        out["curves.csv 4001 x 21 text"] = lambda: _csv(names, list(zip(*series)))

    csv_path = folder / "curves.csv"
    csv_path.write_text(out["curves.csv 4001 x 21 text"](), encoding="utf-8")
    spec = PlotSpec("dual_axis", x="x", y=tuple(names[1::2]), y2=tuple(names[2::2]))
    if columnwise:
        columns = dict(zip(names, series))
        out["curves.svg render"] = lambda: render_svg(csv_path, spec, folder / "a.svg", columns)
    else:
        out["curves.svg render"] = lambda: render_svg(csv_path, spec, folder / "a.svg")

    # one svgd-run cell on the lab defaults: 200 particles, 5 snapshots
    snapshots = [(500 * k, 3.0 * rng.standard_normal(200)) for k in range(5)]
    if columnwise:
        def snapshot_text():
            return _csv(
                ["iteration", "particle_id", "position"],
                [
                    np.repeat([it for it, _ in snapshots], 200),
                    np.tile(np.arange(200), len(snapshots)),
                    np.concatenate([positions for _, positions in snapshots]),
                ],
            )
    else:
        def snapshot_text():
            return _csv(
                ["iteration", "particle_id", "position"],
                [(it, pid, pos) for it, positions in snapshots for pid, pos in enumerate(positions)],
            )
    out["snapshots csv 200 x 5 text"] = snapshot_text
    return out


def _host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the rows to")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree to import scorelab from")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import scorelab as sl

    if not Path(sl.__file__).resolve().is_relative_to(src):
        parser.error(f"scorelab was imported from {sl.__file__}, not from {src}")

    timed = {}
    with tempfile.TemporaryDirectory(prefix="layer_bench_") as folder:
        for name, fn in rows(sl, Path(folder)).items():
            timed[name] = _time(fn)
            print(f"{name:34s} min {timed[name]['min_s'] * 1e6:12.1f} us", flush=True)

    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["host"] = _host()
    data["runs"][args.label] = {"rows": timed}
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    labels = list(data["runs"])
    if len(labels) > 1:
        print("\nmin per call, us: " + " | ".join(labels))
        for name in timed:
            mins = [data["runs"][lb]["rows"].get(name, {}).get("min_s") for lb in labels]
            print(f"{name:34s} " + " | ".join("-" if v is None else f"{v * 1e6:.1f}" for v in mins))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
