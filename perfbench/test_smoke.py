"""Smoke test of the benchmark: every workload at its shortest length.

Run from the repository root (it takes about two minutes):

    python3 -m pytest perfbench/test_smoke.py -q

For each workload and mode it checks that every metric the benchmark
promises is printed with a unit, that every output check passed and that
error_rate is 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload prints in its report.
REPORTED = {
    "classify-zoo": (
        "setup_s", "epoch_s", "step_ms.p50", "step_ms.p90", "infer_ms.p50",
        "peak_rss_mb", "final_train_loss", "test_accuracy", "error_rate",
    ),
    "segment-limbs": (
        "setup_s", "epoch_s", "step_ms.p50", "peak_rss_mb", "final_train_loss",
        "soft_edge_accuracy", "error_rate",
    ),
    "infer-15k": ("setup_s", "infer_ms.p50", "peak_rss_mb", "error_rate"),
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def report_metrics(lines):
    """{name: (value, unit)} from the report's ``metric`` lines."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            _, name, value, unit, samples = parts
            assert samples.startswith("n=")
            metrics[name] = (float(value), unit)
    return metrics


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(REPORTED))
def test_workload_prints_every_metric_and_passes_its_checks(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    printed = report_metrics(lines)
    expected = {m["name"] for m in declared}
    if not trace:
        expected |= set(REPORTED[workload])
        assert printed["error_rate"][0] == 0.0
    for name in expected:
        assert name in printed and printed[name][1], f"{name} missing from the report"
    checks = [line for line in lines if line.startswith("check ")]
    assert checks and all(line.endswith(" ok") for line in checks), checks
    if workload != "infer-15k" and not trace:
        assert any(line.startswith("loss_digest ") for line in lines)
