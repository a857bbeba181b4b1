"""Tests of the benchmark itself: its checks reject wrong answers, its tracer
accounts for every span, and its smoke mode passes on the library.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qretro import scenario as qscenario  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so each operation takes milliseconds."""
    monkeypatch.setattr(workloads, "DENSE_DIM", 6)
    monkeypatch.setattr(workloads, "DEPOLARIZING_DIM", 3)
    monkeypatch.setattr(workloads, "SWEEP_COUNT", 20)
    monkeypatch.setattr(workloads, "SWEEPS_PER_CYCLE", 1)
    monkeypatch.setattr(workloads, "ONE_MODE_PER_CYCLE", 1)


def _results(op) -> dict:
    report = qscenario.run_scenario(json.loads(op.text))
    return checks.parse_strict(qscenario.serialize_report(report))["results"]


def _checked(ops) -> dict:
    """Results by operation name, each already passing its check."""
    done = {}
    for op in ops:
        res = _results(op)
        op.check(res, done)
        done[op.name] = res
    return done


def _rejects(op, res, earlier=None):
    with pytest.raises(checks.CheckFailed):
        op.check(res, earlier or {})


def _shift_entry(results, i, j, delta):
    """Add delta to estimator entry (i, j) and its Hermitian mirror."""
    res = copy.deepcopy(results)
    res["estimator"][i][j][0] += delta
    if i != j:
        res["estimator"][j][i][0] += delta
    return res


def test_dense_checks_reject_wrong_answers(small):
    ops = {op.name: op for op in workloads.dense_channel(5)}
    good = _checked(ops.values())
    personick = good["personick-kraus"]
    _rejects(ops["personick-kraus"], _shift_entry(personick, 0, 1, 1e-4))
    _rejects(ops["personick-kraus"], dict(personick, min_risk=personick["min_risk"] + 1e-6))
    _rejects(ops["personick-kraus"], dict(personick, support_rank=personick["support_rank"] - 1))
    cplx = good["complex-kraus"]
    _rejects(ops["complex-kraus"], _shift_entry(cplx, 1, 2, 1e-4), good)
    # a complex risk above the Hermitian one cannot be optimal
    _rejects(ops["complex-kraus"], cplx, {"personick-kraus": dict(personick, min_risk=cplx["min_risk"] - 1e-3)})
    dep = good["personick-depolarizing"]
    _rejects(ops["personick-depolarizing"], _shift_entry(dep, 0, 0, 1e-4))
    _rejects(ops["personick-depolarizing"], dict(dep, min_risk=dep["min_risk"] * (1 + 1e-6)))


def test_qfi_check_rejects_wrong_answers(small):
    (op,) = workloads.qfi_sweep(5)
    good = _results(op)
    op.check(good, {})
    _rejects(op, dict(good, count=good["count"] - 1))
    _rejects(op, dict(good, all_monotone=False))
    _rejects(op, dict(good, max_risk_gap=1e-6))
    negated = copy.deepcopy(good)
    row = negated["rows"][0]
    row["slack"] = -row["slack"]
    _rejects(op, negated)
    _rejects(op, dict(good, min_slack=-abs(good["min_slack"]) - 1e-6))


def test_gaussian_check_rejects_wrong_answers(small):
    for op in workloads.gaussian_grid(5):
        good = _results(op)
        op.check(good, {})
        _rejects(op, dict(good, estimate=good["estimate"] + 1e-6))
        _rejects(op, dict(good, numeric_gap=2e-6))
        _rejects(op, dict(good, numeric_estimate=good["numeric_estimate"] + 2e-6))
        moved = copy.deepcopy(good)
        moved["product"]["mean"][0] += 1e-6
        _rejects(op, moved)


def test_reports_must_be_strict_json():
    with pytest.raises(checks.CheckFailed):
        checks.parse_strict('{"results": {"estimate": NaN}}')


def test_runner_counts_results_that_change_between_runs():
    class Drifting:
        calls = 0

        @classmethod
        def run_scenario(cls, scenario):
            cls.calls += 1
            return {"results": {"value": cls.calls}}

        serialize_report = staticmethod(json.dumps)

    op = workloads.Op("drift", "{}", lambda res, cyc: None)
    runner = run.Runner([op], Drifting)
    runner.cycle(runner.timed)
    runner.cycle(runner.timed)
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "differ" in runner.failures[0]


@pytest.mark.parametrize("seed", range(20))
def test_generated_gaussians_are_physical(seed):
    gen = workloads.generator(seed, "gaussian-grid")
    for n in (1, 2):
        cov = workloads.physical_covariance(gen, n, 0.6, 2.0)
        omega = workloads.symplectic_form(n)
        assert np.linalg.eigvalsh(cov + 0.5j * omega).min() >= -1e-12


def test_sub_vacuum_covariance_is_not_physical():
    omega = workloads.symplectic_form(1)
    assert np.linalg.eigvalsh(0.01 * np.eye(2) + 0.5j * omega).min() < 0


def test_tracer_accounts_for_every_span(small):
    from qretro import channels

    original = channels.apply_channel
    ops = workloads.dense_channel(3) + workloads.qfi_sweep(3) + workloads.gaussian_grid(3)
    tracer = tracing.Tracer(keep_spans=True)
    runner = run.Runner(ops, qscenario)
    tracer.install()
    try:
        assert channels.apply_channel is not original
        for i, op in enumerate(ops):
            before = sum(tracer.self_time.values())
            _, duration = tracer.run_root(i, lambda: runner.operation(op.text))
            assert sum(tracer.self_time.values()) - before == pytest.approx(duration, abs=1e-9)
    finally:
        tracer.uninstall()
    assert channels.apply_channel is original
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] is None or span[1] in ids for span in tracer.spans)
    assert all(t >= -1e-9 for t in tracer.self_time.values())
    for counter in ("channels.apply_calls", "operator_core.eigensolves",
                    "fisher.sld_calls", "gaussian.grid_calls"):
        assert tracer.counts[counter] > 0


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "qfi-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
