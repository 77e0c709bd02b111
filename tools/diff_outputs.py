"""Byte-compare the `lab` outputs of two source trees.

    python tools/diff_outputs.py BASE_SRC CHANGE_SRC [--seeds 8,9] [--threads 1,2]

Runs every `lab` command on its default config and on the configs the
`perfbench` workloads generate for each seed, once per thread count, as
`python -m scorelab.cli` with PYTHONPATH set to BASE_SRC and then to
CHANGE_SRC.  Runs each `demos/*.py` beside a tree (`<tree>/../demos`) once
on that tree the same way, so that each demo calls its own tree's API, and
keeps its stdout as `demos/<name>.txt`.  Runs each workload config once
more on CHANGE_SRC through `perfbench/traced_cli.py` at one thread, as the
benchmark's traced passes do, and compares its files with the untraced
one-thread run when the thread counts include 1.  Prints every file that
differs, is missing on one side, or belongs to a run or demo that failed
(exited non-zero), and exits 1 if there is any; 0 otherwise.
Under a differing CSV with the same header and row count on both sides
whose differing cells are all numbers, it prints each differing column,
how many of its cells moved and the largest relative move.
Exits 2 if either source tree holds no `scorelab` package, since the child
would otherwise import an installed scorelab and compare it with itself.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
COMMANDS = (
    "score-plot",
    "fisher-sweep",
    "stein-sweep",
    "ksd-run",
    "svgd-run",
    "langevin-run",
    "remedies-run",
)
DEFAULT_SEED = 7
# every [params] key has a default except the mixture records of ksd-run
_KSD_DEFAULT = """
[params]
samples_from = weights=0.5,0.5; means=-4.0,4.0; stds=1.0,1.0

[models]
true = weights=0.5,0.5; means=-4.0,4.0; stds=1.0,1.0
reweighted = weights=0.9,0.1; means=-4.0,4.0; stds=1.0,1.0
"""


def _workloads():
    # loaded by path, read-only: the benchmark's config generators
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def configs(seeds, commands) -> dict[str, str]:
    """Config text keyed by `<label>/<command>`: the defaults, then each seed's."""
    out = {}
    for command in commands:
        body = f"[experiment]\ncommand = {command}\nseed = {DEFAULT_SEED}\n"
        out[f"default/{command}"] = body + (_KSD_DEFAULT if command == "ksd-run" else "")
    workloads = _workloads()
    for seed in seeds:
        for make in workloads.values():
            for exp in make(seed).experiments:
                if exp.command in commands:
                    out[f"seed{seed}/{exp.command}"] = exp.config
    return out


def write_configs(configs: dict[str, str], root: Path) -> dict[str, Path]:
    paths = {}
    for key, text in configs.items():
        paths[key] = root / f"{key.replace('/', '_')}.cfg"
        paths[key].parent.mkdir(parents=True, exist_ok=True)
        paths[key].write_text(text, encoding="utf-8")
    return paths


def _child_env(src: Path) -> dict[str, str]:
    """The environment of a child on the tree `src`, with BLAS at 1 thread."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_demos(src: Path, demos, out_root: Path) -> list[str]:
    """Run each demo script once on the tree `src`, writing its stdout to
    `out_root/demos/<name>.txt`; returns the demos that failed."""
    env = _child_env(src)
    (out_root / "demos").mkdir(parents=True, exist_ok=True)
    failed = []
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=out_root,
                              capture_output=True, text=True)
        (out_root / "demos" / f"{demo.stem}.txt").write_text(proc.stdout, encoding="utf-8")
        if proc.returncode != 0:
            failed.append(f"demos/{demo.name}: exit {proc.returncode}: {proc.stderr.strip()}")
    return failed


def run_side(src: Path, cfgs: dict[str, Path], threads, out_root: Path) -> list[str]:
    """Run every config at every thread count; returns the runs that failed."""
    env = _child_env(src)
    failed = []
    for key, cfg in cfgs.items():
        command = key.split("/")[1]
        for t in threads:
            argv = [sys.executable, "-m", "scorelab.cli", command, "--config", str(cfg),
                    "--out", str(out_root / key / f"t{t}"), "--threads", str(t)]
            proc = subprocess.run(argv, env=env, cwd=out_root.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                failed.append(f"{key}/t{t}: exit {proc.returncode}: {proc.stderr.strip()}")
    return failed


def run_traced(src: Path, cfgs: dict[str, Path], out_root: Path, untraced: Path | None) -> list[str]:
    """Run every config once through `perfbench/traced_cli.py` on the tree
    `src` at one thread; returns a line for each run that failed and, when
    `untraced` holds the untraced runs, for each file that differs from its
    one-thread run.  The tracer binds some parameters by name, so a renamed
    one fails only the traced run."""
    env = _child_env(src)
    spans = out_root / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    problems = []
    for key, cfg in cfgs.items():
        command = key.split("/")[1]
        out = out_root / key
        argv = [sys.executable, str(TRACED_CLI), str(spans / f"{key.replace('/', '_')}.json"),
                command, "--config", str(cfg), "--out", str(out), "--threads", "1"]
        proc = subprocess.run(argv, env=env, cwd=out_root.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"traced run failed: {key}: exit {proc.returncode}: {proc.stderr.strip()}")
        elif untraced is not None:
            problems += [f"traced {key}: {line}" for line in compare_trees(untraced / key / "t1", out)]
    return problems


def column_moves(base_text: str, change_text: str) -> list[str]:
    """`<column>: <k> of <n> cells moved, largest relative move <r>` for each
    differing column of two CSV texts, the move taken relative to the larger
    magnitude; empty unless the headers and row counts match, no row is
    ragged and every differing cell is a number on both sides."""
    a = [line.split(",") for line in base_text.splitlines()]
    b = [line.split(",") for line in change_text.splitlines()]
    if not a or a[0] != b[0] or len(a) != len(b) or any(len(r) != len(a[0]) for r in a + b):
        return []
    out = []
    for j, name in enumerate(a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(a[1:], b[1:]) if ra[j] != rb[j]]
        if not pairs:
            continue
        try:
            moves = [abs(float(x) - float(y)) / (max(abs(float(x)), abs(float(y))) or 1.0)
                     for x, y in pairs]
        except ValueError:
            return []
        out.append(f"{name}: {len(pairs)} of {len(a) - 1} cells moved, "
                   f"largest relative move {max(moves):.2g}")
    return out


def compare_trees(base: Path, change: Path) -> list[str]:
    """Relative paths of files that differ or exist under one root only; a
    differing CSV carries its `column_moves` lines, indented, after its own."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    a, b = files(base), files(change)
    out = [f"only in base: {p}" for p in sorted(a - b)]
    out += [f"only in change: {p}" for p in sorted(b - a)]
    for p in sorted(a & b):
        old, new = (base / p).read_bytes(), (change / p).read_bytes()
        if old != new:
            moves = column_moves(old.decode(), new.decode()) if p.endswith(".csv") else []
            out.append("\n  ".join([f"differs: {p}", *moves]))
    return out


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=_ints, default=[8, 9], help="workload seeds, e.g. 8,9")
    parser.add_argument("--threads", type=_ints, default=[1, 2], help="thread counts, e.g. 1,2")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.change_src):
        if not (src / "scorelab" / "__init__.py").is_file():
            parser.error(f"no scorelab package under {src}")

    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        work = Path(tmp)
        cfgs = write_configs(configs(args.seeds, COMMANDS), work / "configs")
        problems = []
        for side, src in (("base", args.base_src), ("change", args.change_src)):
            failed = run_side(src, cfgs, args.threads, work / side)
            problems += [f"{side} run failed: {f}" for f in failed]
            demos = sorted((src.resolve().parent / "demos").glob("*.py"))
            failed = run_demos(src, demos, work / side)
            problems += [f"{side} demo failed: {f}" for f in failed]
        problems += compare_trees(work / "base", work / "change")
        files = sum(1 for p in (work / "base").rglob("*") if p.is_file())
        seeded = {key: cfg for key, cfg in cfgs.items() if not key.startswith("default/")}
        untraced = work / "change" if 1 in args.threads else None
        problems += run_traced(args.change_src, seeded, work / "traced", untraced)
    runs = len(cfgs) * len(args.threads)
    for line in problems:
        print(line)
    print(f"{runs} runs and {len(demos)} demos per side, {files} files per side, "
          f"{len(seeded)} traced change runs, {len(problems)} differences or failures")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
