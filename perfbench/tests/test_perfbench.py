"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run workers in-process on small inputs and run.py end to end with a
one-second budget, so they take a minute or two.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _config(workdir: Path, workload: str, mode: str, **extra) -> dict:
    inputs.write_inputs(workload, 7, workdir)
    return {"root": str(ROOT), "workdir": str(workdir), "workload": workload,
            "mode": mode, "seconds": 0.0, **extra}


def _boundary_attributes() -> dict:
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.BOUNDARIES
    }


def _run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_ca_min", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_self_times_and_gap_add_up_to_top_level_time():
    tracer = tracing.Tracer()
    with tracer.span("bench.op"):
        with tracer.span("numerics.quad"):
            time.sleep(0.01)
        with tracer.span("predictive.os_pfa"):
            with tracer.span("numerics.quad"):
                time.sleep(0.005)
    summary = tracer.summary()
    by_name = summary["by_name"]
    assert by_name["numerics.quad"]["calls"] == 2
    assert sum(v["self_s"] for v in by_name.values()) == pytest.approx(summary["top_level_s"])
    assert by_name["predictive.os_pfa"]["self_s"] < by_name["predictive.os_pfa"]["incl_s"]


def test_suspended_calls_are_not_recorded():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import bayescfar.detectors as detectors
        from bayescfar.predictive import OsPredictive

        with tracer.suspended():
            detectors.os_pfa(1.0, OsPredictive(4, 2, 1.0))
        assert tracer.summary()["spans"] == 0
        detectors.os_pfa(1.0, OsPredictive(4, 2, 1.0))
        assert tracer.summary()["by_name"]["predictive.os_pfa"]["calls"] == 1
    finally:
        tracer.uninstall()


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _boundary_attributes()
    result = worker.run_worker(_config(tmp_path, "scan_ca_min", "trace", ops=1))
    assert result["trace"]["spans"] > 0
    after = _boundary_attributes()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", ["scan_os", "scan_ca_min", "certify", "crosscheck", "cli"])
def test_traced_and_untraced_runs_give_identical_digests(tmp_path, workload):
    untraced = worker.run_worker(_config(tmp_path, workload, "run"))
    traced = worker.run_worker(_config(tmp_path, workload, "trace", ops=untraced["attempted"]))
    assert untraced["failed"] == 0, untraced["failures"]
    assert traced["failed"] == 0, traced["failures"]
    assert traced["digest"] == untraced["digest"]
    assert len(untraced["op_scaled_s"]) == untraced["attempted"]
    assert all(seconds > 0 for seconds in untraced["op_scaled_s"])


def test_oracle_multipliers_match_the_library():
    import workloads
    from bayescfar.detectors import threshold_multiplier

    for family in ("bayes_os", "ca_cfar", "min_cfar"):
        for pfa in (1e-1, 1e-3, 1e-6):
            spec = workloads._spec(family, pfa)
            want = threshold_multiplier(spec)
            got = workloads.oracle_multiplier(family, spec.n, spec.k or 1, pfa)
            assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind):
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed == list(result["metrics"])
    assert set(printed) == set(declared)
    for name in printed:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert result["metrics"][name]["unit"] == declared[name]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
