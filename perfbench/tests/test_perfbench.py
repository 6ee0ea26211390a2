"""Tests of the benchmark itself: output format, failure accounting, checks, tracing."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record, lines


def _check_metrics(result: dict, lines: list[str], workload: str, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"] for m in declared} == set(result["metrics"])
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        assert any(
            line.startswith(f"{workload} {metric['name']} = ") and line.endswith(f" {metric['unit']}")
            for line in lines
        )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_short_run_prints_every_end_to_end_metric_at_default_seed(workload: str) -> None:
    result, record, lines = _result(
        _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    )
    _check_metrics(result, lines, workload, SPEC["end_to_end"])
    assert record["reference_checked"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_frac"] == 0.0
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["study_scaled", "fit_eeg_file"])
def test_traced_run_reports_every_layer_metric_at_another_seed(workload: str) -> None:
    result, record, lines = _result(
        _bench("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", "1")
    )
    _check_metrics(result, lines, workload, SPEC["per_layer"])
    assert result["failed"] == 0
    assert record["absent_probes"] == [] and record["absent_metrics"] == []
    assert result["metrics"]["pairwise.fit_block.busy_s"]["value"] > 0
    assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_declared_workloads_match_the_code() -> None:
    declared = {w["name"] for w in SPEC["workloads"]}
    assert declared == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(workloads.REFERENCE_UNITS)


def test_declared_layer_metrics_match_the_code() -> None:
    extra = {"cli.import.s", "pool.utilization", "trace.coverage", "trace.overhead_frac"}
    declared = {m["name"]: m for m in SPEC["per_layer"]}
    assert set(declared) == set(tracing.LAYER_METRICS) | extra
    for name, (unit, better, _value) in tracing.LAYER_METRICS.items():
        assert (declared[name]["unit"], declared[name]["better"]) == (unit, better)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "study_scaled", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_check_flags_a_perturbed_result() -> None:
    recorded = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    for units in recorded["workloads"].values():
        expected = units[0]
        assert workloads.reference_problems(expected, expected) == []
        for key in ("estimates", "std_errors", "q"):
            got = copy.deepcopy(expected)
            values = got["dimm"][key]
            if isinstance(values, list):
                row = values[0] if isinstance(values[0], list) else values
                row[0] *= 1 + 1e-5
            else:
                got["dimm"][key] = values * (1 + 1e-5)
            assert workloads.reference_problems(expected, got), key


def test_reference_tolerance_admits_a_7e_10_move() -> None:
    expected = {"dimm": {"estimates": [0.5, -0.25, 0.0], "std_errors": [0.01, 0.02, 0.03], "q": 12.5}}
    moved = {"dimm": {"estimates": [0.5 + 7e-10, -0.25 - 7e-10, 7e-10], "std_errors": [0.01, 0.02, 0.03], "q": 12.5}}
    assert workloads.reference_problems(expected, moved) == []


@pytest.mark.parametrize(
    ("est", "se", "q", "df"),
    [
        ([float("nan"), 1.0], [0.1, 0.1], 3.0, 6),
        ([1.0, 1.0], [0.1, 0.0], 3.0, 6),
        ([1.0, 1.0], [0.1, 0.1], -1.0, 6),
        ([1.0, 1.0], [0.1, 0.1], float("inf"), 6),
        ([1.0, 1.0], [0.1, 0.1], 3.0, 5),
    ],
)
def test_value_check_flags_bad_results(est, se, q, df) -> None:
    assert workloads.value_problems("t", [1.0, 1.0], [0.1, 0.1], 3.0, 6, 6) == []
    assert workloads.value_problems("t", est, se, q, df, 6)


def test_tail_keeps_ten_samples_beyond_it() -> None:
    samples = [float(i) for i in range(25)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 60.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_missing_probe_target_is_absent_not_zero() -> None:
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("dimm.pairwise:no_such_function", "pairwise.fit_block", None),
            ("dimm_missing_module:anything", "io.load_panel", None),
        )
    )
    tracer.uninstall()
    assert tracer.absent_targets == ["dimm.pairwise:no_such_function", "dimm_missing_module:anything"]
    summary = tracing.Summary(tracer, 1)
    for name in ("pairwise.fit_block.busy_s", "io.load_panel.busy_s", "pairwise.iterations"):
        with pytest.raises(tracing.Absent):
            tracing.LAYER_METRICS[name][2](summary)
