"""Negative controls: each injected fault must count as a failed op.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import csv
import dataclasses
import math

import pytest

from eqarea import cli
from perfbench import run
from perfbench.checks import Checker
from perfbench.tracing import Tracer
from perfbench.workloads import case_pool, op_argvs, outputs, paper_cases


def _run(workload, case, out_dir):
    return [cli.main(argv) for argv in op_argvs(workload, case, str(out_dir))]


def _edit_rows(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(r) + "\n" for r in rows))


def _shift_first_shock(rows):
    rows[0][0] = repr(float(rows[0][0]) + 1e-6)
    return rows


@pytest.fixture(scope="module")
def ex1():
    return {w: next(c for c in paper_cases(w) if c.flux_name == "ex1")
            for w in ("profile", "exact")}


@pytest.mark.parametrize("workload", ["profile", "exact"])
def test_clean_op_passes(tmp_path, ex1, workload):
    codes = _run(workload, ex1[workload], tmp_path)
    verdict = Checker().check(workload, ex1[workload], tmp_path, codes)
    assert verdict.ok, verdict.reason


@pytest.mark.parametrize("workload", ["profile", "exact"])
@pytest.mark.parametrize("fault", ["shift", "drop"])
def test_shock_fault_fails(tmp_path, ex1, workload, fault):
    codes = _run(workload, ex1[workload], tmp_path)
    edit = _shift_first_shock if fault == "shift" else (lambda rows: rows[1:])
    _edit_rows(tmp_path / "shocks.csv", edit)
    verdict = Checker().check(workload, ex1[workload], tmp_path, codes)
    assert not verdict.ok
    assert ("wave sequence" if fault == "drop" else "off by") in verdict.reason


def test_nonzero_exit_fails(tmp_path, ex1):
    # a negative value given as a separate argument is read as a flag: exit 1
    argv = ["envelope", "--flux=polynomial:[0,0,4,-4,1]", "--states", "-0.3,0.5",
            f"--out={tmp_path}"]
    code = cli.main(argv)
    assert code == 1
    verdict = Checker().check("exact", ex1["exact"], tmp_path, [code])
    assert not verdict.ok and "exit code 1" in verdict.reason


def test_negative_values_pass_in_flag_form(tmp_path, ex1):
    case = dataclasses.replace(ex1["profile"], x0=-0.5, u_R=-0.3, nodes=40)
    for workload in ("ladder", "exact"):
        codes = _run(workload, case, tmp_path)
        assert codes == [0] * len(codes)
        verdict = Checker().check(workload, case, tmp_path, codes)
        assert verdict.ok, verdict.reason


def test_loop_counts_failed_ops(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "run_op", lambda argvs, cli=None: (0.01, [2]))
    runner = run.Runner("ladder", tmp_path)
    res = runner.loop(seed=0, seconds=0.05)
    # one whole pass over the smallest pool, however short the run
    assert len(res["latencies"]) == res["attempted"] == res["failed"] == 9


def test_repeated_case_counts_once(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "run_op", lambda argvs, cli=None: (0.01, [2]))
    runner = run.Runner("ladder", tmp_path)
    res = runner.loop(seed=0, seconds=0.5)
    assert len(res["latencies"]) > 2 * res["attempted"]
    assert res["attempted"] == res["failed"] == len(case_pool("ladder", 0, 0.5))


def test_case_pool_fixed_by_seed_and_seconds():
    assert case_pool("profile", 3, 25) == case_pool("profile", 3, 25)
    assert case_pool("profile", 3, 25) != case_pool("profile", 4, 25)
    assert len(case_pool("ladder", 3, 25)) % 9 == 0


def test_tracer_restores_hooks_and_output(tmp_path, ex1):
    case = ex1["profile"]
    _run("profile", case, tmp_path)
    plain = {n: (tmp_path / n).read_bytes() for n in outputs("profile")}
    before = (cli.solve_riemann_numerical, cli.parse_flux_spec)
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0, {"workload": "profile", "flux": case.flux_name, "nodes": case.nodes})
    try:
        _run("profile", case, tmp_path)
    finally:
        tracer.end_op()
        tracer.uninstall()
    tracer.settle_op([tmp_path / n for n in outputs("profile")])
    assert (cli.solve_riemann_numerical, cli.parse_flux_spec) == before
    assert "parse_args" not in vars(cli._Parser)
    assert {n: (tmp_path / n).read_bytes() for n in outputs("profile")} == plain
    metrics = tracer.metrics()
    assert not tracer.missing
    assert metrics["solver.sample_ms"] > 0 and metrics["flux.calls"] > 0
    assert metrics["trace.unattributed_frac"] < 0.10


def test_hd_quantile_matches_beta_weights():
    # n = 39, q = 0.9: Beta(36, 4), whose cdf is a binomial tail sum
    def cdf(t, a=36, b=4):
        m = a + b - 1
        return sum(math.comb(m, j) * t**j * (1 - t) ** (m - j) for j in range(a, m + 1))

    x = [float(v) ** 2 for v in range(1, 40)]
    expected = sum((cdf(i / 39) - cdf((i - 1) / 39)) * v for i, v in enumerate(x, 1))
    assert run.hd_quantile(x[::-1], 0.9) == pytest.approx(expected, rel=1e-6)
    assert run.hd_quantile(list(range(1, 20)), 0.5) == pytest.approx(10.0)
