"""In-process timings of the scorelab layers, kept out of the test suite.

    python tools/layer_bench.py --out BENCH.json [--base DIR] [--src DIR]

Times each row on the source tree DIR of `--src` (default: this checkout's
`src`), labelled "change", and, with `--base`, on that tree too, labelled
"parent".  The rows are mixture evaluation at several sizes, one Gaussian
kernel tile of 200 and of 256 points a side, the SVGD direction and run,
the annealed Langevin run on the `lab` defaults, the KSD V-statistic
against one model at N = 1000, 3000 and 10,000, the KDE, the three models
of one `ksd-run`, the three losses of one `remedies-run`, and the output
layer: the CSV text of score-plot's `curves.csv` (4001 rows x 21 columns)
and of one svgd-run `snapshots_*.csv`, each from the values a handler
holds, and the `curves.svg` rendered the way `lab` renders it.

Each tree is imported in its own child interpreter, which builds the rows
and times them on request.  A row is warmed up once on each side, then
timed in k repeats of `number` calls, the two sides taking turns repeat by
repeat (parent first in even repeats, change first in odd ones), so that
host drift falls on both.  Each side records the min and median seconds per
call and the CPU seconds per call (median).  The rows go under their label
in the JSON file, next to those already there, with the host facts, and
the mins are printed side by side.  Compare on the min: the host is shared
and its medians are noisy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

K_REPEATS = 5
REPEAT_S = 0.05  # target length of one repeat; sets `number`


def rows(sl, folder: Path) -> dict:
    """Name -> zero-argument callable, for the scorelab module `sl`; the
    output rows write their files into `folder`."""
    from scorelab.mixture import _logpdf
    from scorelab.svgd import _gauss_tile, _tile_work

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

    # one kernel tile at bandwidth 1: SVGD's whole N = 200 ensemble, and a
    # full tile; its own stream leaves `rng` to the rows after
    for t in (200, 256):
        xt = 3.0 * sl.make_stream(2, 0).standard_normal(t)
        work = _tile_work(t)
        out[f"_gauss_tile {t}x{t}"] = lambda xt=xt, work=work: _gauss_tile(xt, xt, 1.0, work)

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
    # its own stream leaves `rng` to the rows after
    samples = sl.sample(target, 10_000, sl.make_stream(5, 0))
    out["ksd_vstat N=10000"] = lambda: sl.ksd_vstat(samples, target, kernel)
    centers = sl.sample(target, 2000, rng)
    kde = sl.kde_fit(centers)
    points = sl.sample(target, 2000, rng)
    out["kde_log_pdf 2000 x 2000"] = lambda: sl.kde_log_pdf(kde, points)
    # the losses of one remedies-run: a KDE reference on 2000 samples, the
    # exact loss formed once and scaled by each lambda
    data = sl.two_component(0.9, -5.0, 5.0, 1.0)
    swapped = sl.two_component(0.1, -5.0, 5.0, 1.0)
    xs = sl.sample(data, 2000, sl.make_stream(1, 0))  # leaves `rng` to the rows after
    ref = sl.kde_fit(xs)
    lambdas = (0.1, 1.0, 10.0)

    def losses():
        unit = sl.cml_loss(swapped, ref, xs)
        return [lam * unit for lam in lambdas]

    out["remedies-run losses 3 lambdas"] = losses
    # one ksd-run: true, reweighted and 0.01-spurious models on one sample set
    models = [
        target,
        sl.two_component(0.9, -4.0, 4.0, 1.0),
        sl.GaussianMixture1D([0.495, 0.495, 0.01], [-4.0, 4.0, 0.0], [1.0, 1.0, 1.0]),
    ]
    samples = sl.sample(target, 10_000, rng)
    out["ksd-run models N=10000"] = lambda: sl.ksd_vstats(samples, models, kernel)
    out.update(_output_rows(sl, rng, folder))
    return out


def _output_rows(sl, rng, folder: Path) -> dict:
    """The output layer as `lab` runs it."""
    from scorelab.cli import _csv
    from scorelab.svgplot import PlotSpec, render_svg

    out = {}

    # score-plot on the sweep workload: 4001 nodes, 10 weights
    mixtures = [sl.two_component(p1, -4.0, 4.0, 1.0) for p1 in np.linspace(0.05, 0.95, 10)]
    window = sl.quadrature_window(*mixtures)
    xs = np.linspace(window.lower, window.upper, 4001)
    names, series = ["x"], [xs]
    for i, m in enumerate(mixtures):
        names += [f"density_{i}", f"score_{i}"]
        series += [sl.pdf(m, xs), sl.score(m, xs)]
    out["curves.csv 4001 x 21 text"] = lambda: _csv(names, series)

    csv_path = folder / "curves.csv"
    csv_path.write_text(out["curves.csv 4001 x 21 text"](), encoding="utf-8")
    spec = PlotSpec("dual_axis", x="x", y=tuple(names[1::2]), y2=tuple(names[2::2]))
    columns = dict(zip(names, series))
    out["curves.svg render"] = lambda: render_svg(csv_path, spec, folder / "a.svg", columns)

    # one svgd-run cell on the lab defaults: 200 particles, 5 snapshots
    snapshots = [(500 * k, 3.0 * rng.standard_normal(200)) for k in range(5)]
    out["snapshots csv 200 x 5 text"] = lambda: _csv(
        ["iteration", "particle_id", "position"],
        [
            np.repeat([it for it, _ in snapshots], 200),
            np.tile(np.arange(200), len(snapshots)),
            np.concatenate([positions for _, positions in snapshots]),
        ],
    )
    return out


def _host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _child(src: Path) -> int:
    """Serve the rows of the tree `src`: print their names, then answer one
    JSON request a line on stdin with one JSON line on stdout.  A request
    [name, 0] warms the row up and answers the `number` of calls that fill
    REPEAT_S; [name, number] times that many calls and answers the wall and
    CPU seconds per call."""
    sys.path.insert(0, str(src))
    import scorelab as sl

    if not Path(sl.__file__).resolve().is_relative_to(src):
        print(f"scorelab was imported from {sl.__file__}, not from {src}", file=sys.stderr)
        return 2

    def reply(value):
        print(json.dumps(value), flush=True)

    with tempfile.TemporaryDirectory(prefix="layer_bench_") as folder:
        table = rows(sl, Path(folder))
        reply(list(table))
        for line in sys.stdin:
            name, number = json.loads(line)
            fn = table[name]
            if number == 0:
                fn()
                t = time.perf_counter()
                fn()
                reply(max(1, int(REPEAT_S / max(time.perf_counter() - t, 1e-9))))
                continue
            c, t = time.process_time(), time.perf_counter()
            for _ in range(number):
                fn()
            reply([(time.perf_counter() - t) / number, (time.process_time() - c) / number])
    return 0


class _Side:
    """One child interpreter timing the rows of one source tree."""

    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", "--src", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.names = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the child timing {self.proc.args[-1]} exited with {self.proc.wait()}")
        return json.loads(line)

    def ask(self, name: str, number: int):
        self.proc.stdin.write(json.dumps([name, number]) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _summary(walls, cpus, number) -> dict:
    return {
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "k": len(walls),
        "number": number,
    }


def _time_rows(sides: dict[str, _Side]) -> dict[str, dict]:
    """Label -> {row name -> summary}, the sides taking turns per repeat."""
    names = list(dict.fromkeys(name for side in sides.values() for name in side.names))
    timed = {label: {} for label in sides}
    for name in names:
        present = [label for label, side in sides.items() if name in side.names]
        numbers = {label: sides[label].ask(name, 0) for label in present}
        samples = {label: ([], []) for label in present}
        for k in range(K_REPEATS):
            for label in present if k % 2 == 0 else present[::-1]:
                wall, cpu = sides[label].ask(name, numbers[label])
                samples[label][0].append(wall)
                samples[label][1].append(cpu)
        for label in present:
            timed[label][name] = _summary(*samples[label], numbers[label])
        mins = " | ".join(f"{label} {timed[label][name]['min_s'] * 1e6:12.1f}" for label in present)
        print(f"{name:34s} min us: {mins}", flush=True)
    return timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="JSON file to add the rows to")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree of the change")
    parser.add_argument("--base", type=Path, help="source tree of the parent, timed in turn with --src")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args.src.resolve())
    if args.out is None:
        parser.error("--out is required")

    trees = {"parent": args.base, "change": args.src} if args.base else {"change": args.src}
    sides = {}
    try:
        for label, tree in trees.items():
            sides[label] = _Side(tree.resolve())
        timed = _time_rows(sides)
    finally:
        for side in sides.values():
            side.close()

    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["host"] = _host()
    for label, rows_timed in timed.items():
        data["runs"][label] = {"rows": rows_timed}
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    if len(timed) > 1:
        print("\nmin per call, us: parent | change | change / parent")
        for name, row in timed["change"].items():
            base = timed["parent"].get(name)
            if base is not None:
                ratio = row["min_s"] / base["min_s"]
                print(f"{name:34s} {base['min_s'] * 1e6:.1f} | {row['min_s'] * 1e6:.1f} | {ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
