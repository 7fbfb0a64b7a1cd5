"""Smoke test of the benchmark harness at a tiny size.

Runs one unit of every workload in-process, checks that every metric named
in BENCHMARK.json is emitted, that each check rejects a corrupted output,
and that the command refuses to run without the sources.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run, spec, worker
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Workload
from telefitts.comparison import AicEvidence, Criterion, EvidenceGrade
from telefitts.models import ModelKind
from telefitts.trials import Violation

ROOT = Path(__file__).resolve().parent.parent


#: Constructor arguments that keep each workload's set-up and unit small.
TINY = {
    "study-pipeline": {"participants": 2},
    "selection-sweep": {},
    "participant-fits": {"participants": 1},
    "kinematic-trials": {},
}


def tiny(name: str, tmp_path: Path) -> Workload:
    return WORKLOADS[name](3, str(tmp_path), **TINY[name])


#: Per-layer metrics that must be non-zero on each workload's traced run.
REACHED = {
    "study-pipeline": (
        "trials.write_s", "trials.write_bytes", "trials.read_s", "trials.read_rows",
        "trials.validate_s", "trials.group_s", "trials.group_calls", "trials.cells",
        "trials.collapse_s", "trials.collapse_calls", "sim.study.generate_s",
        "sim.study.trials_generated", "models.predictors_s", "regression.ols_s",
        "regression.ols_calls", "comparison.compare_s", "comparison.suite_s",
        "comparison.render_s", "comparison.parse_s", "comparison.records_bytes",
        "throughput.group_s", "throughput.cells", "throughput.render_s",
    ),
    "selection-sweep": (
        "sim.study.generate_s", "sim.study.trials_generated", "trials.group_s",
        "trials.cells", "trials.collapse_s", "models.predictors_s", "regression.ols_s",
        "comparison.compare_s",
    ),
    "participant-fits": (
        "trials.group_s", "trials.cells", "trials.collapse_s", "trials.collapse_calls",
        "models.predictors_s", "regression.ols_s", "regression.ols_calls",
        "comparison.compare_s",
    ),
    "kinematic-trials": (
        "sim.hands.trace_s", "sim.hands.samples", "sim.filters.kalman_s",
        "sim.filters.spike_s", "sim.kinematics.parabola_s",
        "sim.kinematics.parabola_calls", "sim.techniques.run_trial_s",
        "sim.techniques.hit_ratio",
    ),
}


def one_unit_result(workload: Workload, trace: bool) -> dict:
    """What the worker reports, from a single unit per phase."""
    result = {
        "setup": {"setup_s": 1.0, "import_s": 0.9, "prepare_s": 0.1},
        "plain": worker.measure(workload, 0.0),
        "peak_rss_mib": 100.0,
        "digests": {},
    }
    if trace:
        with Tracer() as tracer:
            result["traced"] = worker.measure(workload, 0.0, tracer)
        result["layers"] = tracer.layer_metrics([0])
    return result


def test_benchmark_json_matches_spec():
    assert list(WORKLOADS) == list(spec.WORKLOAD_NAMES)
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_every_metric_emitted(name, trace, tmp_path):
    workload = tiny(name, tmp_path)
    args = argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=trace)
    result = one_unit_result(workload, bool(trace))
    summary = run.summarize(args, [result["setup"]], result)

    assert summary["correct"], summary["lines"]
    assert summary["attempted"] == 1 + trace and summary["failed"] == 0
    listed = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(summary["metrics"]) == [m[0] for m in listed]
    for metric, value in summary["metrics"].items():
        assert value["unit"] == spec.UNITS[metric]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if trace:
        assert set(result["layers"]) <= set(summary["metrics"])
        for metric in REACHED[name]:
            assert summary["metrics"][metric]["value"] > 0, metric
        assert summary["metrics"]["failed_ratio"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_tracer_restores_the_program():
    import telefitts.comparison

    original = telefitts.comparison.ols_fit
    with Tracer():
        assert telefitts.comparison.ols_fit is not original
    assert telefitts.comparison.ols_fit is original


def test_study_pipeline_check_rejects_corruption(tmp_path):
    workload = tiny("study-pipeline", tmp_path)
    out = workload.run(0)
    assert workload.check(0, out) == []
    assert set(workload.digests[3]) == {"csv", "jsonl", "table", "throughput"}

    def corrupted(**fields):
        return SimpleNamespace(**{**vars(out), **fields})

    first = out.summaries[0]
    nan_cell = replace(first.cells[0], tp_bits_per_s=math.nan)
    bad_outputs = [
        corrupted(read=out.read[:-1]),
        corrupted(violations=[Violation(0, "movement_time_s", "non-positive")]),
        corrupted(records="\n".join(out.records.splitlines()[1:]) + "\n"),
        corrupted(parsed=[replace(out.parsed[0], n_cells=7)] + out.parsed[1:]),
        corrupted(summaries=out.summaries[1:]),
        corrupted(summaries=[replace(first, cells=(nan_cell,) + first.cells[1:])]
                  + out.summaries[1:]),
    ]
    for bad in bad_outputs:
        assert workload.check(0, bad)


def test_selection_sweep_checks_reject_corruption(tmp_path):
    workload = tiny("selection-sweep", tmp_path)
    standard_truth = workload.run(1)
    assert workload.check(1, standard_truth) == []
    weak = EvidenceGrade(Criterion.AIC, 5.0, AicEvidence.LESS)
    graded = replace(standard_truth, aic_grades={
        **standard_truth.aic_grades, ModelKind.PROPOSED: weak})
    assert workload.check(1, graded)

    proposed_truth = workload.run(0)
    assert proposed_truth.ranking_aic[0] is ModelKind.PROPOSED
    assert workload.check(0, proposed_truth) == []
    assert workload.final_check() == {}
    lost = replace(proposed_truth, ranking_aic=tuple(reversed(proposed_truth.ranking_aic)))
    for i in (0, 2, 4, 6):
        workload.check(i, proposed_truth)
    workload.check(8, lost)
    workload.check(10, lost)
    assert list(workload.final_check()) == [8, 10]


def test_participant_fits_check_rejects_corruption(tmp_path):
    workload = tiny("participant-fits", tmp_path)
    reports = workload.run(0)
    assert workload.check(0, reports) == []
    first = reports[0]
    repeated = (ModelKind.STANDARD,) * 2 + first.ranking_aic[2:]
    assert workload.check(0, [replace(first, ranking_aic=repeated)] + reports[1:])
    assert workload.check(0, [replace(first, n_cells=7)] + reports[1:])
    assert workload.check(0, reports[1:])


def test_kinematic_check_rejects_corruption(tmp_path):
    workload = tiny("kinematic-trials", tmp_path)
    assert len(workload.targets) == 24
    scene, outcome = workload.run(0)
    assert workload.check(0, (scene, outcome)) == []
    assert workload.check(0, (scene, None))
    wide = replace(outcome, endpoint_deviation_m=scene.target.width_m)
    assert workload.check(0, (scene, wide))


def test_failed_units_count_against_the_run():
    class Raises(Workload):
        rows_per_unit = 1

        def run(self, i):
            raise ValueError("corrupted input")

    result = {
        "setup": {"setup_s": 1.0, "import_s": 0.9, "prepare_s": 0.1},
        "plain": worker.measure(Raises(), 0.0),
        "peak_rss_mib": 100.0,
        "digests": {},
    }
    args = argparse.Namespace(workload="study-pipeline", seed=0, seconds=0.0, trace=0)
    summary = run.summarize(args, [result["setup"]], result)
    assert not summary["correct"]
    assert (summary["attempted"], summary["failed"]) == (1, 1)


def test_unit_cost_is_wall_time_over_reference_time():
    result = {
        "setup": {"setup_s": 1.0, "import_s": 0.9, "prepare_s": 0.1},
        "plain": {"times": [1.0, 2.0, 3.0], "refs": [0.5, 0.5, 1.0], "rows": 30,
                  "failed": {}},
        "peak_rss_mib": 100.0,
        "digests": {},
    }
    args = argparse.Namespace(workload="study-pipeline", seed=0, seconds=0.0, trace=0)
    metrics = run.summarize(args, [result["setup"]], result)["metrics"]
    assert metrics["unit_ref.p50"]["value"] == pytest.approx(3.0)  # median of 2, 4, 3
    assert metrics["rows_per_ref"]["value"] == pytest.approx(30 / 9.0)


def test_reference_loop_is_fixed_work():
    assert worker.reference() == worker.reference()


def test_tail_percentile_has_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, pytest.approx(90.1), 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


def _run_command(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kinematic-trials",
         "--seed", "5", *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_contract_line(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    proc = _run_command(root, "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m[0] for m in spec.PER_LAYER]
    assert "trace.overhead_s" in proc.stdout
    assert (root / ".perfbench_out" / "spans-kinematic-trials.jsonl").stat().st_size > 0


def test_command_refuses_to_run_without_sources(tmp_path):
    root = _checkout(tmp_path, with_sources=False)
    proc = _run_command(root, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
