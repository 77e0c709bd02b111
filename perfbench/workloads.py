"""Workload definitions: the `lab` experiments one pass runs, with configs
generated from the workload seed.

The seed moves the mixtures' weights, means and initialisations, never the
amount of work: grid sizes, node counts, sample counts and iteration counts
are fixed per workload, so passes on different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The large separations are kept on purpose: the fixed-grid quadrature loses
# accuracy there (the midpoint transition has width ~ sigma^2 / s), so the
# reference check reports those cells as off tolerance on the seed code.
SEPARATIONS = (2.0, 4.0, 6.0, 10.0, 15.0, 20.0, 30.0, 50.0, 70.0, 80.0)
SIGMA = 1.0
SCORE_PLOT_NODES = 4001
SCORE_PLOT_WEIGHTS = 10
KSD_N = 10_000


@dataclass
class Experiment:
    """One `lab` invocation: command, config text and the files it must write."""

    command: str
    config: str
    # documented CSV name -> required leading header columns
    csv_columns: dict[str, tuple[str, ...]]
    # file names (or glob patterns) that must exist, with the count expected
    files: dict[str, int]
    # seed-derived facts the checks need (mixture parameters and the like)
    facts: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    experiments: list[Experiment]


def _rec(weights, means, stds) -> str:
    fmt = lambda vs: ",".join(repr(float(v)) for v in vs)
    return f"weights={fmt(weights)}; means={fmt(means)}; stds={fmt(stds)}; log_offset=0.0"


def _distinct_weights(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    # two-decimal weights; distinct so every per-weight CSV column name is unique
    pool = [round(lo + i * 0.01, 2) for i in range(int(round((hi - lo) / 0.01)) + 1)]
    return rng.sample(pool, count)


def _ini(command: str, seed: int | None, params: dict[str, str], models=None) -> str:
    lines = ["[experiment]", f"command = {command}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    lines += ["", "[params]"] + [f"{k} = {v}" for k, v in params.items()]
    if models:
        lines += ["", "[models]"] + [f"{k} = {v}" for k, v in models.items()]
    return "\n".join(lines) + "\n"


def sweep(seed: int) -> Workload:
    rng = random.Random(f"sweep:{seed}")
    pairs = []
    while len(pairs) < 3:
        a, b = _distinct_weights(rng, 2, 0.05, 0.95)
        if abs(a - b) >= 0.2 and (a, b) not in pairs:
            pairs.append((a, b))
    pi1 = _distinct_weights(rng, 1, 0.1, 0.9)[0]
    seps = ", ".join(f"{s:g}" for s in SEPARATIONS)

    fisher = Experiment(
        "fisher-sweep",
        _ini(
            "fisher-sweep",
            None,
            {
                "separations": seps,
                "pi_pairs": ", ".join(f"{a}:{b}" for a, b in pairs),
                "sigma": f"{SIGMA}",
            },
        ),
        {"sweep.csv": ("separation", "pi", "pi_prime", "j_pp_prime", "j_q_p", "method", "nodes")},
        {"sweep.csv": 1, "sweep.svg": 1},
        {"sigma": SIGMA},
    )
    stein = Experiment(
        "stein-sweep",
        _ini("stein-sweep", None, {"separations": seps, "pi1": f"{pi1}", "sigma": f"{SIGMA}"}),
        {"stein_sweep.csv": ("separation", "pi1", "sd_weighted", "sd_unweighted", "nodes")},
        {"stein_sweep.csv": 1, "stein_sweep.svg": 1},
        {"sigma": SIGMA},
    )
    weights = _distinct_weights(rng, SCORE_PLOT_WEIGHTS, 0.02, 0.98)
    mu1 = -rng.choice((3.0, 3.5, 4.0, 4.5, 5.0))
    mu2 = rng.choice((3.0, 3.5, 4.0, 4.5, 5.0))
    score_plot = Experiment(
        "score-plot",
        _ini(
            "score-plot",
            None,
            {
                "mu1": f"{mu1}",
                "mu2": f"{mu2}",
                "sigma": f"{SIGMA}",
                "pi_grid": ", ".join(f"{w}" for w in weights),
                "witness_pi1": f"{pi1}",
                "grid_nodes": f"{SCORE_PLOT_NODES}",
            },
        ),
        {
            "witness.csv": ("x", "f_weighted", "f_unweighted", "q_pdf", "p_score", "q_score"),
            "curves.csv": ("x",)
            + tuple(c for w in weights for c in (f"density_pi{w:g}", f"score_pi{w:g}")),
        },
        {"witness.csv": 1, "curves.csv": 1, "witness.svg": 1, "curves.svg": 1},
    )
    return Workload(
        "sweep",
        "quadrature and output writing: fixed-grid Fisher/Stein sweeps to separation 80 "
        "and a dense score-plot; no kernel sums, no RNG",
        [fisher, stein, score_plot],
    )


def kernel(seed: int) -> Workload:
    rng = random.Random(f"kernel:{seed}")
    run_seed = rng.randrange(1, 2**31)
    pi = _distinct_weights(rng, 1, 0.3, 0.7)[0]
    m1, m2 = -rng.choice((3.0, 3.5, 4.0, 4.5, 5.0)), rng.choice((3.0, 3.5, 4.0, 4.5, 5.0))
    source = ((pi, 1.0 - pi), (m1, m2), (1.0, 1.0))
    reweighted = ((1.0 - pi, pi), (m1, m2), (1.0, 1.0))
    spur_w = rng.choice((0.01, 0.02, 0.05))
    spurious = ((pi, 1.0 - pi - spur_w, spur_w), (m1, m2, m2 + rng.choice((6.0, 8.0, 10.0))), (1.0, 1.0, 1.0))
    models = {"true": source, "reweighted": reweighted, "spurious": spurious}
    ksd = Experiment(
        "ksd-run",
        _ini(
            "ksd-run",
            run_seed,
            {"samples_from": _rec(*source), "n": f"{KSD_N}", "bandwidth": "1.0"},
            {k: _rec(*v) for k, v in models.items()},
        ),
        {"ksd.csv": ("index", "model", "value", "std_error", "n", "bandwidth")},
        {"ksd.csv": 1, "ksd.svg": 1},
        {"seed": run_seed, "source": source, "models": models, "n": KSD_N, "bandwidth": 1.0},
    )

    rem_seed = rng.randrange(1, 2**31)
    w = _distinct_weights(rng, 1, 0.05, 0.3)[0]
    sep = rng.choice((8.0, 10.0, 12.0))
    data = ((1.0 - w, w), (-sep / 2, sep / 2), (1.0, 1.0))
    model = ((w, 1.0 - w), (-sep / 2, sep / 2), (1.0, 1.0))
    remedies = Experiment(
        "remedies-run",
        _ini(
            "remedies-run",
            rem_seed,
            {
                "data": _rec(*data),
                "model": _rec(*model),
                "scenario": "pi_swap",
                "n_samples": "2000",
                "pairs": "10000",
                "lambdas": "0.1, 1.0, 10.0",
                "reference": "kde",
            },
        ),
        {
            "report.csv": (
                "scenario", "fisher_divergence", "cml_loss", "moment_diff_1", "moment_diff_2", "lambda_ml",
            )
        },
        {"report.csv": 1, "report.svg": 1},
        {"data": data, "model": model},
    )
    return Workload(
        "kernel",
        "a few large dense N x N kernel sums: KSD at N=10,000 against three models "
        "and 2000 x 2000 KDE in the pairwise loss",
        [ksd, remedies],
    )


def particles(seed: int) -> Workload:
    rng = random.Random(f"particles:{seed}")
    svgd_seed = rng.randrange(1, 2**31)
    pi1_grid = _distinct_weights(rng, 2, 0.1, 0.9)
    cells = [
        (rng.choice((-5.0, -4.0, -3.0, -2.0)), rng.choice((0.5, 1.0, 1.5))),
        (rng.choice((-1.0, 0.0, 1.0)), rng.choice((2.0, 3.0))),
        (rng.choice((2.0, 3.0, 4.0, 5.0)), rng.choice((0.5, 1.0, 1.5))),
    ]
    svgd = Experiment(
        "svgd-run",
        _ini(
            "svgd-run",
            svgd_seed,
            {
                "mu1": "-4.0",
                "mu2": "4.0",
                "sigma": "1.0",
                "pi1_grid": ", ".join(f"{p}" for p in pi1_grid),
                "cells": ", ".join(f"{m:g}:{s:g}" for m, s in cells),
                "particles": "200",
                "step_size": "0.1",
                "iterations": "600",
                "bandwidth": "1.0",
                "snapshot_every": "150",
            },
        ),
        {
            "summary.csv": ("seed", "mu0", "sigma0", "pi1", "final_mode_fraction"),
            "snapshots_*.csv": ("iteration", "particle_id", "position"),
            "positions_*.csv": ("phase", "particle_id", "position"),
        },
        {
            "summary.csv": 1,
            "snapshots_*.csv": len(pi1_grid) * len(cells),
            "positions_*.csv": len(pi1_grid) * len(cells),
            "hist_*.svg": len(pi1_grid) * len(cells),
        },
    )
    lv_seed = rng.randrange(1, 2**31)
    w = _distinct_weights(rng, 1, 0.2, 0.8)[0]
    langevin = Experiment(
        "langevin-run",
        _ini(
            "langevin-run",
            lv_seed,
            {
                "target": _rec((w, 1.0 - w), (-4.0, 4.0), (1.0, 1.0)),
                "particles": "5000",
                "sigma_max": "8.0",
                "sigma_min": "0.5",
                "levels": "8",
                "steps_per_level": "200",
                "base_step": "0.01",
            },
        ),
        {
            "levels.csv": ("level", "sigma_j", "step", "mode_fraction"),
            "final.csv": ("particle_id", "position"),
        },
        {"levels.csv": 1, "final.csv": 1, "hist_final.svg": 1, "trace.svg": 1},
    )
    return Workload(
        "particles",
        "thousands of small calls: SVGD 6 cells x 200 particles x 600 steps and annealed "
        "Langevin 5000 particles x 8 x 200 steps, with snapshot CSVs and histograms",
        [svgd, langevin],
    )


WORKLOADS = {"sweep": sweep, "kernel": kernel, "particles": particles}
