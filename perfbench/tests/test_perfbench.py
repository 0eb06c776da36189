"""Fast checks of the benchmark itself, on tiny problem sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCH = workloads.HERE
# eps 1/4 only, 2 macro elements, cell resolution 8.
TINY = {"eps_list": [0.25], "macro_elements": 2, "cell_resolution": 8,
        "acceptance": {"max_unfold_resid": 1e-12}}
TINY_REFERENCE = {"rel_tol": 1e-6, "min_J": 1.4413100395948246,
                  "infJ": {"0.25": 1.9225335046816947}}
TINY_LIMIT_J = 1.4413100395948246


def _run_job(job, full=False):
    checks = workloads.Checks()
    tracer = spans.Tracer()
    tracer.install(spans.targets(full))
    try:
        tracer.run_id = 1
        result = job.run(tracer, checks)
    finally:
        tracer.uninstall()
    return result, checks, tracer


@pytest.fixture
def tiny_study(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)

    def make(reference=TINY_REFERENCE):
        return workloads.Study("study_block4", 3, TINY, reference)
    return make


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_tiny_study_reports_every_metric(tiny_study):
    result, checks, tracer = _run_job(tiny_study(), full=True)
    assert checks.failures == []
    assert set(run.END_TO_END) - set(result) == {"setup_s", "peak_rss_mb"}
    assert all(result[name] > 0 for name in run.END_TO_END if name in result)
    values = spans.layer_metrics(tracer.run_spans(1))
    assert set(values) == set(spans.per_layer_units())
    assert all(values[name] > 0 for name in values if name.endswith(".calls"))
    assert 0.0 < values["minimize.armijo_accept_ratio"] <= 1.0
    assert 0.0 < values["cellproblems.cache_hit_ratio"] < 1.0


def test_tiny_limit_job_repeats_cold_solve_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    job = workloads.Limit(5, {"rel_tol": 1e-6, "min_J": TINY_LIMIT_J},
                          cell_resolution=8, macro_elements=2)
    result, checks, _ = _run_job(job)
    assert checks.failures == [] and checks.attempted == 4
    assert result["finest_solve_s"] == result["cold_solve_s"] > 0
    assert result["wall_s"] == result["cold_solve_s"] + result["warm_solve_s"]


def test_wrong_reference_value_counts_as_one_failed_op(tiny_study):
    _, good, _ = _run_job(tiny_study())
    wrong = dict(TINY_REFERENCE, min_J=TINY_REFERENCE["min_J"] * 1.001)
    _, bad, _ = _run_job(tiny_study(wrong))
    assert good.failed == 0
    assert bad.attempted == good.attempted
    assert bad.failures == ["min_J"]


def test_self_time_subtracts_time_covered_by_children():
    tree = [
        ["minimize.minimize_P", 0.0, 10.0, -1, 1, None],
        ["energies.value_and_grad_J_eps", 1.0, 4.0, 0, 1, None],
        ["slgeometry.log_batch", 2.0, 3.0, 1, 1, {"slgeometry.log_batch.matrices": 7}],
        ["energies.assemble_J_eps", 5.0, 6.0, 0, 1, None],
        ["energies.value_and_grad_J_eps", 7.0, 9.0, 0, 1, None],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 1.0, 2.0]
    values = spans.layer_metrics(tree)
    assert values["minimize.self_s"] == 4.0
    assert values["energies.self_s"] == 5.0
    assert values["slgeometry.self_s"] == 1.0
    assert values["energies.value_and_grad_J_eps.s"] == 5.0
    assert values["slgeometry.log_batch.matrices"] == 7
    # one value+grad opens the P-step, the other follows the one accepted trial
    assert values["minimize.armijo_trials"] == 1
    assert values["minimize.armijo_accept_ratio"] == 1.0


def test_self_time_counts_overlapping_children_once():
    tree = [
        ["a.f", 0.0, 10.0, -1, 1, None],
        ["b.g", 1.0, 5.0, 0, 1, None],
        ["b.h", 3.0, 7.0, 0, 1, None],
        ["b.k", 9.0, 12.0, 0, 1, None],
    ]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_cache_hit_ratio_from_parent_attributed_solves():
    lookup = "cellproblems.HomDensityCache.w1_tensor"
    tree = [
        [lookup, 0.0, 2.0, -1, 1, None],
        ["cellproblems.effective_quadratic_tensor", 0.5, 1.5, 0, 1, None],
        [lookup, 3.0, 3.1, -1, 1, None],
        [lookup, 4.0, 4.1, -1, 1, None],
        ["cellproblems.effective_quadratic_tensor", 5.0, 6.0, -1, 1, None],
    ]
    values = spans.layer_metrics(tree)
    assert values["cellproblems.cache_hit_ratio"] == pytest.approx(2 / 3)
    assert values["cellproblems.effective_quadratic_tensor.calls"] == 2


def test_run_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "limit_block4",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_closeness_check_rejects_nan():
    checks = workloads.Checks()
    checks.close("x", 1.0, math.nan, 1e-6)
    assert checks.failures == ["x"]
