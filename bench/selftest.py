"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/selftest.py
"""

import dataclasses
import json
import os

import run

run.fix_blas_threads(1)
run.import_program()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
from checks import CheckFailed, check_kkt_residuals, kkt_residuals  # noqa: E402
from gpplatoon import mpc  # noqa: E402
from gpplatoon.qp import QuadraticProgram, solve_qp  # noqa: E402
from tracer import HookTargetMissing  # noqa: E402


def short(name: str) -> harness.Workload:
    """The named workload cut to two 3 s loops and two set-ups."""
    wl = harness.WORKLOADS[name]
    return dataclasses.replace(wl, scenario={**wl.scenario, "duration": 3.0}, loops=2,
                               setup_reps=2)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path):
    report = harness.run(short(name), seed=0, seconds=0.0, trace=trace,
                         span_path=tmp_path / "spans.csv")
    assert report.correct, report.error
    assert report.attempted == (120 if trace else 60) and report.failed == 0
    text = harness.render(report, harness.environment(1))
    wanted = harness.PER_LAYER if trace else harness.END_TO_END
    printed = harness.END_TO_END + harness.CLOSED_LOOP + (harness.PER_LAYER if trace else ())
    for m in printed:
        line = next(ln for ln in text.splitlines() if ln.split()[:1] == [m.name])
        assert line.split()[2] == m.unit
    result = json.loads(json.dumps(report.result()))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m.name for m in wanted]
    assert all(result["metrics"][m.name]["unit"] == m.unit for m in wanted)
    if trace:
        shares = sum(report.metrics[f"{layer}.self_share"]
                     for layer in ("gp", "dynamics", "mpc", "qp", "trace"))
        assert shares == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "spans.csv").stat().st_size > 0
        if not harness.WORKLOADS[name].fits_gp:
            assert all(report.metrics[n] == 0 for n in harness.GP_ONLY)


def _small_qp():
    qp = QuadraticProgram(cost_matrix=2.0 * np.eye(2), cost_vector=np.array([-2.0, -5.0]),
                          ineq_matrix=np.array([[1.0, 1.0], [-1.0, 0.0]]),
                          ineq_vector=np.array([1.0, 0.0]))
    sol = solve_qp(qp, tol=1e-6)
    assert sol.status == "optimal" and sol.active
    return qp, sol


def test_kkt_check_accepts_solver_output():
    qp, sol = _small_qp()
    assert check_kkt_residuals(kkt_residuals(qp, sol), tol=1e-6) <= 1e-6


# optimum x = (0, 1) with both rows active and mu = (3, 1)
@pytest.mark.parametrize("field, delta", [
    ("x", np.array([1e-4, 0.0])),                   # row 0 violated
    ("ineq_multipliers", np.array([1e-3, 0.0])),    # stationarity only
    ("ineq_multipliers", np.array([0.0, -1.001])),  # negative multiplier
])
def test_kkt_check_rejects_perturbed_solution(field, delta):
    qp, sol = _small_qp()
    bad = dataclasses.replace(sol, **{field: getattr(sol, field) + delta})
    with pytest.raises(CheckFailed):
        check_kkt_residuals(kkt_residuals(qp, bad), tol=1e-6)


def test_traced_run_rejects_perturbed_solver_output(monkeypatch):
    solve = mpc.solve_qp

    def perturbed(qp, tol=1e-6, max_iter=None, active_hint=None):
        sol = solve(qp, tol=tol, max_iter=max_iter, active_hint=active_hint)
        if sol.status == "optimal":
            sol.x = sol.x - 1e-3  # keeps the accelerations inside their box
        return sol

    monkeypatch.setattr(mpc, "solve_qp", perturbed)
    report = harness.run(short("large_nominal"), seed=0, seconds=0.0, trace=True)
    assert not report.correct
    assert "optimal QP solution fails" in report.error


@pytest.mark.parametrize("owner, attr", [(mpc, "solve_qp"), (mpc.CondensedQp, "decode")])
def test_missing_hook_target_fails_traced_run(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    with pytest.raises(HookTargetMissing, match=attr):
        harness.run(short("large_nominal"), seed=0, seconds=0.0, trace=True)


def test_benchmark_json_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"][:2] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in harness.WORKLOADS.values()}
    for key, metrics in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in metrics]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
