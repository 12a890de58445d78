"""Tests of the benchmark itself, at smoke sizes: ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_metric_and_no_failure(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        metrics = result["metrics"]
        assert metrics["kernels.matrix.calls"]["value"] >= 1
        assert 0.5 < metrics["trace.attributed_frac"]["value"] <= 1.0 + 1e-9


def test_unknown_workload_exits_nonzero_without_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def _content(inp: dict) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in inp.items() if k not in ("dir", "argv")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    cls = workloads.WORKLOADS[workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = []
        for n, seed in enumerate((5, 5, 6)):
            (workdir / str(n)).mkdir()
            inputs.append(_content(cls(seed, workdir / str(n), True).make_input(1)))
    finally:
        shutil.rmtree(workdir)
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]


def test_self_time_subtracts_covered_child_time():
    spans = [tracing.Span(0, None, "root", 0.0, 10.0),
             tracing.Span(1, 0, "a", 1.0, 4.0),
             tracing.Span(2, 1, "a.child", 2.0, 3.0),
             tracing.Span(3, 0, "b", 5.0, 6.5)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5})
    assert [s.id for s in tracing.descendants(spans, spans[0])] == [1, 2, 3]


def test_tracing_restores_the_program_when_done():
    from seqgp.kernels import ProductKernel
    import seqgp.cli

    before = (ProductKernel.matrix, seqgp.cli.gauge_weight_posterior)
    with tracing.Tracer().installed():
        assert ProductKernel.matrix is not before[0]
    assert (ProductKernel.matrix, seqgp.cli.gauge_weight_posterior) == before
