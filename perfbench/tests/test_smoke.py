"""Tests of the benchmark itself, on tiny inputs (``--smoke``); no timings are checked.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

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
from tracing import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    prov = detail["provenance"]
    assert prov["workload"] == workload and prov["seed"] == 7 and prov["sizes"]
    for key in ("src_sha256", "python", "numpy", "scipy", "nproc", "numba_importable", "threads"):
        assert key in prov


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("exhaust", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_keeps_ten_ops_beyond_it_or_a_quarter_of_a_short_run():
    assert run.tail([float(i) for i in range(1, 51)]) == (40.0, 80.0, 10)
    assert run.tail([float(i) for i in range(1, 21)]) == (15.0, 75.0, 5)
    assert run.tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (4.0, 80.0, 1)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_children_and_bookkeeping():
    spans = [
        ["harness.compute_decomposition", 0.0, 10.0, -1, 1, 0.5],
        ["fields.extremal_conv_field", 1.0, 4.0, 0, 1, 0.0],
        ["fields.shift_table", 1.5, 2.0, 1, 1, 0.0],
        ["fields.extremal_conv_field", 5.0, 9.0, 0, 1, 0.0],
    ]
    assert self_times(spans) == [10.0 - 7.0 - 0.5, 2.5, 0.5, 4.0]
