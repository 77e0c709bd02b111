"""Tests of the benchmark's checker, tracer and references.

Run from the repository root: python3 -m pytest perfbench
"""

import itertools
import sys
import types
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import checks
import reference
import run
import tracer
from workloads import WORKLOADS, sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


# --- checker -----------------------------------------------------------------

def fisher_experiment():
    return next(e for e in sweep(0).experiments if e.command == "fisher-sweep")


def write_outputs(out_dir: Path, header: str, row: str = "4.0,0.5,0.9,0.1,0.2,quadrature,4097"):
    out_dir.mkdir(parents=True)
    (out_dir / "sweep.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
    (out_dir / "sweep.svg").write_text("<svg/>\n", encoding="utf-8")


HEADER = "separation,pi,pi_prime,j_pp_prime,j_q_p,method,nodes"


def one_pass(tag, out_dir, status=0):
    p = run.Pass(tag, 0.0, 0.0)
    p.invocations.append(run.Invocation("fisher-sweep", status, 0.0, 0.0, 0.0, out_dir))
    return p


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "logs").mkdir()
    exp = fisher_experiment()
    return types.SimpleNamespace(name="sweep", experiments=[exp]), tmp_path


def test_identical_passes_pass(bench):
    workload, root = bench
    write_outputs(root / "a", HEADER)
    write_outputs(root / "b", HEADER)
    ledger, expected = run.Ledger(), {}
    run.check_pass(one_pass("a", root / "a"), workload, expected, ledger)
    run.check_pass(one_pass("b", root / "b"), workload, expected, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 0)


def test_corrupted_output_file_is_a_failure(bench):
    workload, root = bench
    write_outputs(root / "a", HEADER)
    write_outputs(root / "b", HEADER)
    data = bytearray((root / "b" / "sweep.csv").read_bytes())
    data[-3] ^= 1
    (root / "b" / "sweep.csv").write_bytes(bytes(data))
    ledger, expected = run.Ledger(), {}
    run.check_pass(one_pass("a", root / "a"), workload, expected, ledger)
    run.check_pass(one_pass("b", root / "b"), workload, expected, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "sweep.csv" in ledger.problems[0]


@pytest.mark.parametrize(
    "header,row,missing",
    [
        (HEADER.replace(",nodes", ""), "4.0,0.5,0.9,0.1,0.2,quadrature", None),
        (HEADER, "4.0,0.5,0.9", None),
        (HEADER, None, "sweep.svg"),
    ],
)
def test_missing_column_short_row_or_missing_file_is_a_failure(bench, header, row, missing):
    workload, root = bench
    if row is None:
        write_outputs(root / "a", header)
    else:
        write_outputs(root / "a", header, row)
    if missing:
        (root / "a" / missing).unlink()
    ledger = run.Ledger()
    run.check_pass(one_pass("a", root / "a"), workload, {}, ledger)
    assert ledger.failed == 1


def test_nonzero_exit_is_a_failure(bench):
    workload, root = bench
    (root / "logs" / "a.fisher-sweep.err").write_text("boom\n")
    ledger = run.Ledger()
    run.check_pass(one_pass("a", root / "a", status=1), workload, {}, ledger)
    assert ledger.failed == 1 and "boom" in ledger.problems[0]


def test_value_checks_skip_invocations_that_failed_their_checks(bench):
    workload, root = bench
    write_outputs(root / "a", HEADER.replace(",nodes", ""), "4.0,0.5,0.9,0.1,0.2,quadrature")
    p = one_pass("a", root / "a")
    run.check_pass(p, workload, {}, run.Ledger())
    assert not p.invocations[0].ok
    assert run.value_checks(workload, p) == []


def test_accounting_check():
    assert run.accounting_problems(10.3, 10.0, 0.3) == []
    assert run.accounting_problems(9.8, 10.0, -0.1) == []  # noise within the slack
    assert run.accounting_problems(20.0, 10.0, 0.3)  # a self time that counts its children


def test_underflowed_value_is_off_tolerance():
    assert checks.ValueCheck("x", "x", 0.0, reference.rel_err(0.0, mp.mpf("1e-346")), 1e-6).off
    assert not checks.ValueCheck("x", "x", 1.0, reference.rel_err(1.0 + 1e-9, 1.0), 1e-6).off


# --- tracer ------------------------------------------------------------------

def test_self_time_excludes_children():
    spans = [
        ("outer", 0.0, 10.0, -1, None),
        ("inner", 1.0, 4.0, 0, None),
        ("leaf", 2.0, 3.0, 1, None),
        ("inner", 5.0, 6.0, 0, None),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    agg = tracer.aggregate(spans)
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self_s"] == 3.0
    assert agg["outer"]["total_s"] == 10.0
    assert tracer.top_level_s(spans) == 10.0


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    exec("def inner(x):\n    return x + 1\n", a.__dict__)
    a.inner.__module__ = "fakepkg.a"
    b = types.ModuleType("fakepkg.b")
    b.inner = a.inner  # as `from .a import inner` binds it
    exec("def outer(x):\n    return inner(x) * 2\n", b.__dict__)
    b.outer.__module__ = "fakepkg.b"
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_install_wraps_every_binding(fake_package):
    a, b = fake_package
    ticks = itertools.count()
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    tr.install("fakepkg")
    assert b.outer(1) == 4
    # outer starts at 0, inner runs 1..2, outer ends at 3
    assert [s[:4] for s in tr.spans] == [("b.outer", 0.0, 3.0, -1), ("a.inner", 1.0, 2.0, 0)]
    assert tracer.self_times(tr.spans) == [2.0, 1.0]
    assert a.inner(1) == 2 and len(tr.spans) == 3


def test_work_counters_bind_arguments_by_name(fake_package, monkeypatch):
    _, b = fake_package
    monkeypatch.setitem(tracer.WORK, "b.outer", lambda a, r: {"n": a["x"], "result": r})
    tr = tracer.Tracer()
    tr.install("fakepkg")
    b.outer(2)
    b.outer(x=5)
    agg = tracer.aggregate(tr.spans)
    assert agg["b.outer"]["n"] == 7 and agg["b.outer"]["result"] == 6 + 12


# --- references against the library where it is known to be accurate --------

def test_fisher_reference_matches_library_at_moderate_separation():
    import scorelab as sl

    for s in (2.0, 6.0, 15.0):
        p, pp = sl.two_component(0.3, -s / 2, s / 2, 1.0), sl.two_component(0.8, -s / 2, s / 2, 1.0)
        q = sl.gaussian(-s / 2, 1.0)
        assert reference.rel_err(sl.fisher_divergence(p, pp).value, reference.fisher_pp(0.3, 0.8, s, 1.0)) < 1e-12
        assert reference.rel_err(sl.fisher_divergence(q, p).value, reference.fisher_qp(0.3, s, 1.0)) < 1e-12
        sd = sl.stein_discrepancy(q, p, sl.L2_UNWEIGHTED).value
        assert reference.rel_err(sd, reference.stein_unweighted(0.3, s, 1.0)) < 1e-12


def test_ksd_reference_matches_library():
    import scorelab as sl

    source = ((0.4, 0.6), (-3.0, 3.0), (1.0, 1.0))
    x = reference.mixture_sample(*source, 700, 5)
    np.testing.assert_array_equal(x, sl.sample(sl.from_record(
        "weights=0.4,0.6; means=-3,3; stds=1,1"), 700, sl.make_stream(5, 0)))
    model = sl.from_record("weights=0.9,0.1; means=-3,3; stds=1,1")
    np.testing.assert_allclose(reference.mixture_score((0.9, 0.1), (-3.0, 3.0), (1.0, 1.0), x),
                               sl.score(model, x), rtol=1e-12, atol=1e-12)
    est = sl.ksd_vstat(x, model, sl.KernelSpec(1.0))
    [(value, std_error)] = reference.ksd_dense(x, [sl.score(model, x)], 1.0)
    assert abs(est.value - value) <= 1e-10 * value
    assert abs(est.std_error - std_error) <= 1e-8 * std_error


# --- workloads ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_configs_and_fixed_work(name):
    a, b, c = WORKLOADS[name](3), WORKLOADS[name](3), WORKLOADS[name](4)
    assert [e.config for e in a.experiments] == [e.config for e in b.experiments]
    assert [e.config for e in a.experiments] != [e.config for e in c.experiments]
    assert [e.files for e in a.experiments] == [e.files for e in c.experiments]

