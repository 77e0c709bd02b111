"""scorelab benchmark: runs the `lab` CLI as a user does and reports
end-to-end metrics, or, with --trace 1, per-layer metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload {sweep,kernel,particles} --seed N \
        --seconds S --trace {0,1}

Every experiment is a fresh `python -m scorelab.cli <command> --threads 1`
process on a config generated from the seed, run one after another.  A pass
runs all of a workload's experiments once.  Untraced runs repeat passes
within --seconds (at least three), with fresh imports timed between them, then
one untimed `--threads 2` pass.  Traced runs alternate untraced and traced
passes.  Human-readable lines come first; the last line of standard output
is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import host
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# fresh `import scorelab.cli` interpreters timed before each pass, so that
# host slowdowns hit setup_s and the passes alike
SETUP_PER_PASS = 3
MIN_PASSES = 3
TRACE_PAIRS = 3
# share of the untraced pass by which the accounting may miss it beyond
# trace.overhead_s: room for host noise between passes, far below the error
# of a self time that counts its children
ACCOUNTING_SLACK = 0.1


@dataclass
class Invocation:
    name: str
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_dir: Path
    spans_path: Path | None = None
    ok: bool = False  # set by check_pass


@dataclass
class Pass:
    tag: str
    wall_s: float
    probe_s: float
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(i.cpu_s for i in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for key in host.BLAS_ENV:
        env[key] = "1"
    return env


def spawn(argv: list[str], env, log: Path):
    """Run one child to completion: (exit code, wall s, resource usage)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_pass(workload, configs, tag: str, threads: int, env, traced: bool = False) -> Pass:
    probe = host.probe()
    result = Pass(tag, 0.0, probe)
    start = time.perf_counter()
    for exp in workload.experiments:
        out_dir = WORK / tag / exp.command
        spans = WORK / tag / f"{exp.command}.spans.json" if traced else None
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] if traced else [
            sys.executable, "-m", "scorelab.cli"]
        argv = prefix + [exp.command, "--config", str(configs[exp.command]), "--out", str(out_dir),
                         "--threads", str(threads)]
        status, wall, ru = spawn(argv, env, WORK / "logs" / f"{tag}.{exp.command}.err")
        result.invocations.append(Invocation(
            exp.command, status, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6,
            out_dir, spans))
    result.wall_s = time.perf_counter() - start
    return result


def setup_times(env, count: int) -> list[float]:
    """Seconds from a fresh interpreter until `import scorelab.cli` returns, `count` times."""
    argv = [sys.executable, "-c", "import scorelab.cli"]
    log = WORK / "logs" / "setup.err"
    times = []
    for _ in range(count):
        status, wall, _ = spawn(argv, env, log)
        if status != 0:
            raise RuntimeError(f"import scorelab.cli failed; see {log}")
        times.append(wall)
    return times


def import_times(env) -> dict[str, float]:
    """Seconds from `-X importtime`: all of scorelab.cli, and scipy and numpy self time."""
    log = WORK / "logs" / "importtime.err"
    status, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import scorelab.cli"], env, log)
    if status != 0:
        raise RuntimeError(f"import scorelab.cli failed; see {log}")
    out = {"import.scorelab_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    for line in log.read_text().splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
        top = name.partition(".")[0]
        if top == "scorelab" and len(indent) == 1:
            out["import.scorelab_s"] += cum_us / 1e6
        elif top in ("scipy", "numpy"):
            out[f"import.{top}_s"] += self_us / 1e6
    return out


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def check_pass(p: Pass, workload, expected: dict, ledger: Ledger) -> None:
    """Exit status, documented outputs, and bytes equal to the first pass."""
    for inv, exp in zip(p.invocations, workload.experiments):
        if inv.status != 0:
            log = WORK / "logs" / f"{p.tag}.{inv.name}.err"
            ledger.record([f"{p.tag}/{inv.name}: exit {inv.status}: {log.read_text().strip()[-300:]}"])
            continue
        problems = checks.structure_problems(exp, inv.out_dir)
        digest = checks.tree_digest(inv.out_dir)
        expected.setdefault(inv.name, digest)
        problems += checks.digest_problems(f"{p.tag}/{inv.name}", expected[inv.name], digest)
        inv.ok = not problems
        ledger.record(problems)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, value: float, unit: str, what: str, samples: list[float], kind: str) -> str:
    q1, med, q3 = quartiles(samples)
    return (f"  {name:<14} {value:12.6g} {unit:<6} {what}; {len(samples)} {kind}: "
            f"median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g}")


def median_pass(passes: list[Pass], key: str) -> float:
    per_experiment = zip(*([getattr(i, key) for i in p.invocations] for p in passes))
    return sum(statistics.median(values) for values in per_experiment)


def value_checks(workload, first: Pass) -> list[checks.ValueCheck]:
    """Reference checks on the outputs of one checked pass; failed invocations are skipped."""
    out = []
    for inv, exp in zip(first.invocations, workload.experiments):
        if inv.ok:
            out += checks.value_checks(exp, inv.out_dir)
    return out


def print_value_checks(vals: list[checks.ValueCheck]) -> float:
    off = [v for v in vals if v.off]
    ratio = len(off) / len(vals) if vals else 0.0
    print(f"  {'off_tol_ratio':<14} {ratio:12.6g} {'ratio':<6} {len(off)} of {len(vals)} reference-checked values "
          f"outside tolerance (quadrature rtol {checks.QUADRATURE_RTOL:g}, KSD rtol {checks.KSD_RTOL:g})")
    for v in off:
        print(f"    off: {v.label}: got {v.got!r}, rel err {v.rel_err:.3g}")
    return ratio


def untraced_run(workload, configs, seconds: float, env, ledger: Ledger) -> dict:
    setup_times(env, 1)  # warm-up: compiles bytecode
    setup, passes, expected, rounds = [], [], {}, []
    start = time.perf_counter()
    # A round is SETUP_PER_PASS imports and one pass.  After MIN_PASSES, a
    # round starts only if a median round still ends within `seconds`.
    while len(passes) < MIN_PASSES or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        setup += setup_times(env, SETUP_PER_PASS)
        p = run_pass(workload, configs, f"pass{len(passes) + 1}", 1, env)
        passes.append(p)
        print(f"pass {len(passes)}: probe {p.probe_s:.4f} s, wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s, "
              f"peak rss {p.rss_mb:.1f} MB; "
              + ", ".join(f"{i.name} {i.wall_s:.3f} s" for i in p.invocations))
        check_pass(p, workload, expected, ledger)
        rounds.append(time.perf_counter() - round_start)
    threaded = run_pass(workload, configs, "threads2", 2, env)
    print(f"untimed --threads 2 pass: wall {threaded.wall_s:.4f} s")
    check_pass(threaded, workload, expected, ledger)
    vals = value_checks(workload, passes[0])

    # A pass's wall and CPU time are the sums over its experiments of each
    # experiment's median across passes: a burst of host noise in one
    # invocation then moves no metric.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (median_pass(passes, "wall_s"), "s"),
        "cpu_s": (median_pass(passes, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    print(f"end-to-end metrics, workload {workload.name}:")
    print(describe("setup_s", metrics["setup_s"][0], "s", "fresh interpreter to `import scorelab.cli`",
                   setup, "imports"))
    print(describe("wall_s", metrics["wall_s"][0], "s", "sum of per-experiment medians",
                   [p.wall_s for p in passes], "passes"))
    print(describe("cpu_s", metrics["cpu_s"][0], "s", "children's user + system, summed likewise",
                   [p.cpu_s for p in passes], "passes"))
    print(describe("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "largest child max-RSS in a pass",
                   [p.rss_mb for p in passes], "passes"))
    print(f"  {'fail_ratio':<14} {ledger.failed / ledger.attempted:12.6g} {'ratio':<6} "
          f"{ledger.failed} of {ledger.attempted} operations failed")
    print_value_checks(vals)
    return metrics


# Per-layer metrics read from aggregated spans: metric -> (span name, field, unit).
SPAN_METRICS = {
    "numerics.quad_integrate.calls": ("numerics.quad_integrate", "calls", "count"),
    "numerics.quad_integrate.self_s": ("numerics.quad_integrate", "self_s", "s"),
    "numerics.quad_integrate.nodes": ("numerics.quad_integrate", "nodes", "count"),
    "mixture.score.calls": ("mixture.score", "calls", "count"),
    "mixture.score.self_s": ("mixture.score", "self_s", "s"),
    "mixture.score.points": ("mixture.score", "points", "count"),
    "mixture.pdf.self_s": ("mixture.pdf", "self_s", "s"),
    "mixture.sample.self_s": ("mixture.sample", "self_s", "s"),
    "scorematch.fisher_divergence.calls": ("scorematch.fisher_divergence", "calls", "count"),
    "scorematch.fisher_divergence.self_s": ("scorematch.fisher_divergence", "self_s", "s"),
    "stein.stein_discrepancy.self_s": ("stein.stein_discrepancy", "self_s", "s"),
    "stein.ksd_vstat.calls": ("stein.ksd_vstat", "calls", "count"),
    "stein.ksd_vstat.self_s": ("stein.ksd_vstat", "self_s", "s"),
    "stein.ksd_vstat.pairs": ("stein.ksd_vstat", "pairs", "count"),
    "svgd.svgd_run.self_s": ("svgd.svgd_run", "self_s", "s"),
    "svgd.steps": ("svgd.svgd_run", "steps", "count"),
    "svgd.kernel_pairs": ("svgd.svgd_run", "kernel_pairs", "count"),
    "langevin.annealed_langevin_run.self_s": ("langevin.annealed_langevin_run", "self_s", "s"),
    "langevin.langevin_step.calls": ("langevin.langevin_step", "calls", "count"),
    "langevin.langevin_step.self_s": ("langevin.langevin_step", "self_s", "s"),
    "langevin.particle_steps": ("langevin.langevin_step", "particle_steps", "count"),
    "remedies.kde_log_pdf.calls": ("remedies.kde_log_pdf", "calls", "count"),
    "remedies.kde_log_pdf.self_s": ("remedies.kde_log_pdf", "self_s", "s"),
    "remedies.kde_log_pdf.pairs": ("remedies.kde_log_pdf", "pairs", "count"),
    "remedies.cml_loss.self_s": ("remedies.cml_loss", "self_s", "s"),
    "remedies.moment_discrepancy.self_s": ("remedies.moment_discrepancy", "self_s", "s"),
    "svgplot.render_svg.calls": ("svgplot.render_svg", "calls", "count"),
    "svgplot.render_svg.self_s": ("svgplot.render_svg", "self_s", "s"),
    "svgplot.render_svg.bytes": ("svgplot.render_svg", "bytes", "bytes"),
    "cli.run.self_s": ("cli.run", "self_s", "s"),
    "config.load_config.self_s": ("config.load_config", "self_s", "s"),
}


def accounting_problems(accounted: float, untraced: float, overhead: float) -> list[str]:
    """Self times plus process overhead must match the untraced pass within
    the tracer's own overhead, plus ACCOUNTING_SLACK of the pass for noise."""
    gap = accounted - untraced
    if abs(gap) <= abs(overhead) + ACCOUNTING_SLACK * untraced:
        return []
    return [f"accounting: self times + process.overhead_s = {accounted:.4f} s, untraced pass "
            f"{untraced:.4f} s, gap {gap:+.4f} s exceeds trace.overhead_s {overhead:+.4f} s "
            f"+ {ACCOUNTING_SLACK:g} of the pass"]


def traced_run(workload, configs, env, ledger: Ledger) -> dict:
    imports = import_times(env)
    expected, plain, traced = {}, [], []
    # alternate, so that a host slowdown hits untraced and traced passes alike
    for i in range(1, TRACE_PAIRS + 1):
        for tag, group in ((f"untraced{i}", plain), (f"traced{i}", traced)):
            group.append(run_pass(workload, configs, tag, 1, env, traced=tag.startswith("traced")))
            check_pass(group[-1], workload, expected, ledger)
    vals = value_checks(workload, plain[0])

    # one aggregate per traced pass; each metric is the median over passes
    aggs, overheads = [], []
    for t in traced:
        agg, overhead = {}, 0.0
        for inv in t.invocations:
            spans = json.loads(inv.spans_path.read_text()) if inv.spans_path.is_file() else []
            tracer.aggregate(spans, agg)
            overhead += inv.wall_s - tracer.top_level_s(spans)
        aggs.append(agg)
        overheads.append(overhead)
    get = lambda agg, span, key: agg.get(span, {}).get(key, 0)
    med = lambda f: statistics.median(f(agg) for agg in aggs)
    ratio = lambda num, den: num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {k: (v, "s") for k, v in imports.items()}
    m["process.overhead_s"] = (statistics.median(overheads), "s")
    for metric, (span, key, unit) in SPAN_METRICS.items():
        m[metric] = (med(lambda agg: get(agg, span, key)), unit)
    m["stein.witness.self_s"] = (med(lambda agg: get(agg, "stein.witness_weighted", "self_s")
                                     + get(agg, "stein.witness_unweighted", "self_s")), "s")
    m["stein.ksd_vstat.pairs_per_s"] = (med(lambda agg: ratio(
        get(agg, "stein.ksd_vstat", "pairs"), get(agg, "stein.ksd_vstat", "self_s"))), "1/s")
    m["svgd.step_us"] = (med(lambda agg: ratio(
        get(agg, "svgd.svgd_run", "total_s"), get(agg, "svgd.svgd_run", "steps"))) * 1e6, "us")
    m["cli.bytes_written"] = (sum(p.stat().st_size for inv in traced[0].invocations
                                  for p in inv.out_dir.glob("*") if p.is_file()), "bytes")
    m["trace.overhead_s"] = (statistics.median(t.wall_s - u.wall_s for t, u in zip(traced, plain)), "s")
    m["host.probe_s"] = (statistics.median(p.probe_s for p in plain + traced), "s")
    for layer in ("scorematch", "stein.stein_discrepancy", "stein.ksd_vstat"):
        errs = [v.rel_err for v in vals if v.layer == layer]
        m[f"{layer}.max_rel_err"] = (max(errs) if errs else 0.0, "ratio")

    accounted = statistics.median(sum(r["self_s"] for r in agg.values()) + overhead
                                  for agg, overhead in zip(aggs, overheads))
    untraced = statistics.median(p.wall_s for p in plain)
    print("pairs (untraced, traced) pass wall: "
          + ", ".join(f"({u.wall_s:.4f} s, {t.wall_s:.4f} s)" for u, t in zip(plain, traced))
          + f"; trace.overhead_s {m['trace.overhead_s'][0]:+.4f} s, median of the differences")
    print(f"accounting: self times + process.overhead_s = {accounted:.4f} s (median over traced passes) "
          f"against the median untraced pass {untraced:.4f} s (gap {accounted - untraced:+.4f} s)")
    ledger.record(accounting_problems(accounted, untraced, m["trace.overhead_s"][0]))
    m["check.off_tol_ratio"] = (print_value_checks(vals), "ratio")
    print(f"per-layer metrics, workload {workload.name}:")
    for name, (value, unit) in m.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scorelab" / "cli.py").is_file():
        print(f"perfbench: no scorelab sources at {SRC / 'scorelab'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "logs").mkdir(parents=True)
    (WORK / "configs").mkdir()
    workload = WORKLOADS[args.workload](args.seed)
    configs = {}
    for exp in workload.experiments:
        configs[exp.command] = WORK / "configs" / f"{exp.command}.ini"
        configs[exp.command].write_text(exp.config, encoding="utf-8")

    env = child_env()
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print("host: " + json.dumps(host.facts(env)))
    ledger = Ledger()
    if args.trace:
        metrics = traced_run(workload, configs, env, ledger)
    else:
        metrics = untraced_run(workload, configs, args.seconds, env, ledger)
    print(f"loadavg at end: {os.getloadavg()[0]:.2f}")
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
