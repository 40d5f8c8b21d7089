"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced.  It checks that every metric BENCHMARK.json names is reported with its
unit and that every correctness gate ran; it asserts nothing about speed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

GATES = {
    "certify-2e6": {"setup", "certify.exit_code", "certify.inventory", "certify.checks_pass"},
    "table-2e6": {"setup", "table.digests", "table.nu_divisor_sum", "table.nu_partial_sum",
                  "table.round_trip", "table.kernel_N"},
    "zeta-points": {"setup", "zeta.mpmath_rel_tol", "zeta.repeatable"},
}
# end-to-end metrics of one workload only, printed in the run record
OWN_METRICS = {
    "certify-2e6": set(),
    "table-2e6": {"cold_start_s", "warm_start_s"},
    "zeta-points": {"evals_per_s", "eval_p50_us", "eval_p99_us"},
}


def run_bench(script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)


def test_listed_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(GATES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GATES))
def test_smoke(workload, trace):
    proc = run_bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("RECORD ")
    record = json.loads(lines[-2][len("RECORD "):])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    summary = record["summary"]
    expected = {"setup_s", "wall_s", "peak_rss_mb", "error_rate"} | OWN_METRICS[workload]
    assert expected <= set(summary)
    assert summary["error_rate"] == 0.0
    for gate in GATES[workload]:
        ran, failed = record["gates"][gate]
        assert ran > 0 and failed == 0, gate
    for key in ("seed", "nproc", "cpu_model", "cpu_caches", "python", "numpy", "blas",
                "git_sha", "source_sha256"):
        assert key in record

    if trace:
        layers = record["per_layer"]
        assert layers["trace.absent_boundaries"] == 0
        # self times of all layers cover the traced pass up to loop overhead
        assert layers["trace.self_sum_s"] <= layers["trace.wall_s"]
        assert layers["trace.self_sum_s"] > 0.5 * layers["trace.wall_s"]
        if workload == "certify-2e6":
            assert layers["verify.checks"] == result["attempted"] // 2
            for count in ("arith.build_table.s", "kernels.M_plain_array.nodes",
                          "kernels.N_array.nodes", "kernels.M_half_array.nodes",
                          "kernels.residue.calls", "kernels.M_prime.calls",
                          "quadrature.panels"):
                assert layers[count] > 0, count
        if workload == "zeta-points":
            assert layers["special.eta.calls"] > 0 and layers["kernels.N_array.nodes"] == 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path / HERE.name / "run.py", "zeta-points", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
