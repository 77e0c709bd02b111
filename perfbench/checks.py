"""Output checks behind `fail_ratio` and `off_tol_ratio`.

Structural checks (documented files and columns present, rows complete) and
byte comparisons decide whether a `lab` invocation failed.  Reference checks
compare reported values with the independent references in `reference.py`;
a value outside its relative tolerance is counted, not failed, because the
seed code is known to be inaccurate at large separations.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import reference

QUADRATURE_RTOL = 1e-6
KSD_RTOL = 1e-8


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def structure_problems(exp, out_dir: Path) -> list[str]:
    """Missing documented files or columns, and ragged CSV rows."""
    if not out_dir.is_dir():
        return [f"{exp.command}: no output directory"]
    names = sorted(p.name for p in out_dir.iterdir())
    problems = []
    for pattern, count in exp.files.items():
        found = fnmatch.filter(names, pattern)
        if len(found) != count:
            problems.append(f"{exp.command}: expected {count} x {pattern}, found {len(found)}")
    for pattern, columns in exp.csv_columns.items():
        for name in fnmatch.filter(names, pattern):
            try:
                header, rows = read_csv(out_dir / name)
            except (OSError, UnicodeDecodeError, csv.Error) as exc:
                problems.append(f"{exp.command}/{name}: unreadable ({exc})")
                continue
            if tuple(header[: len(columns)]) != columns:
                problems.append(f"{exp.command}/{name}: header {header[:len(columns)]} != {list(columns)}")
            if not rows:
                problems.append(f"{exp.command}/{name}: no data rows")
            bad = sum(1 for row in rows if len(row) != len(header))
            if bad:
                problems.append(f"{exp.command}/{name}: {bad} rows with the wrong field count")
    return problems


def tree_digest(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def digest_problems(name: str, expected: dict[str, str], got: dict[str, str]) -> list[str]:
    if expected == got:
        return []
    differ = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    return [f"{name}: output bytes differ in {', '.join(differ)}"]


@dataclass(frozen=True)
class ValueCheck:
    """One reported value against its reference."""

    layer: str
    label: str
    got: float
    rel_err: float
    rtol: float

    @property
    def off(self) -> bool:
        return not self.rel_err <= self.rtol


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _check(layer, label, got_text, ref, rtol) -> ValueCheck:
    got = _float(got_text)
    err = reference.rel_err(got, ref) if math.isfinite(got) else math.inf
    return ValueCheck(layer, label, got, err, rtol)


def _fisher_sweep(exp, out_dir):
    header, rows = read_csv(out_dir / "sweep.csv")
    col = {c: i for i, c in enumerate(header)}
    sigma = exp.facts["sigma"]
    for row in rows:
        s, pi, pi_prime = (float(row[col[c]]) for c in ("separation", "pi", "pi_prime"))
        tag = f"s={s:g} pi={pi:g}:{pi_prime:g}"
        yield _check("scorematch", f"J(p||p') {tag}", row[col["j_pp_prime"]],
                     reference.fisher_pp(pi, pi_prime, s, sigma), QUADRATURE_RTOL)
        yield _check("scorematch", f"J(q||p) {tag}", row[col["j_q_p"]],
                     reference.fisher_qp(pi, s, sigma), QUADRATURE_RTOL)


def _stein_sweep(exp, out_dir):
    header, rows = read_csv(out_dir / "stein_sweep.csv")
    col = {c: i for i, c in enumerate(header)}
    sigma = exp.facts["sigma"]
    for row in rows:
        s, pi1 = float(row[col["separation"]]), float(row[col["pi1"]])
        tag = f"s={s:g} pi1={pi1:g}"
        yield _check("stein.stein_discrepancy", f"SD weighted {tag}", row[col["sd_weighted"]],
                     reference.stein_weighted(pi1, s, sigma), QUADRATURE_RTOL)
        yield _check("stein.stein_discrepancy", f"SD unweighted {tag}", row[col["sd_unweighted"]],
                     reference.stein_unweighted(pi1, s, sigma), QUADRATURE_RTOL)


def _ksd(exp, out_dir):
    header, rows = read_csv(out_dir / "ksd.csv")
    col = {c: i for i, c in enumerate(header)}
    f = exp.facts
    x = reference.mixture_sample(*f["source"], f["n"], f["seed"], 0)
    labels = [row[col["model"]] for row in rows]
    scores = [reference.mixture_score(*f["models"][label], x) for label in labels]
    for row, label, (value, std_error) in zip(rows, labels, reference.ksd_dense(x, scores, f["bandwidth"])):
        yield _check("stein.ksd_vstat", f"KSD {label}", row[col["value"]], value, KSD_RTOL)
        yield _check("stein.ksd_vstat", f"KSD std_error {label}", row[col["std_error"]], std_error, KSD_RTOL)


def _remedies(exp, out_dir):
    header, rows = read_csv(out_dir / "report.csv")
    col = {c: i for i, c in enumerate(header)}
    (w, _), (m1, m2), (sigma, _) = exp.facts["data"]
    (w_model, _), _, _ = exp.facts["model"]
    ref = reference.fisher_pp(w, w_model, m2 - m1, sigma)
    for row in rows:
        yield _check("scorematch", f"J(data||model) lambda={row[col['lambda_ml']]}",
                     row[col["fisher_divergence"]], ref, QUADRATURE_RTOL)


_REFERENCES = {
    "fisher-sweep": _fisher_sweep,
    "stein-sweep": _stein_sweep,
    "ksd-run": _ksd,
    "remedies-run": _remedies,
}


def value_checks(exp, out_dir: Path) -> list[ValueCheck]:
    """Reference checks for one experiment's outputs (empty when it has none)."""
    fn = _REFERENCES.get(exp.command)
    return list(fn(exp, out_dir)) if fn else []
