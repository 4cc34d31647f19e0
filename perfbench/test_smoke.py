"""Smoke test of the benchmark at tiny input sizes (a few seconds per run).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It records tiny references into a temporary file, then checks that every
metric named in BENCHMARK.json is printed with its unit, that a corrupted
reference value makes the output check fail, and that the benchmark refuses
to run without the koopcar sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(reference, workload, trace=0, record=False, script=BENCH_DIR / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
            "--reference", str(reference)]
    if record:
        argv.append("--record")
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tmp_path, workload):
    reference = tmp_path / "reference.json"
    result_of(run_bench(reference, workload, record=True))
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = result_of(run_bench(reference, workload, trace=trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def _corrupt_first_value(node):
    """Scale the first float in a nested list/dict by 1 + 1e-5, in place."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            node[key] = value * (1.0 + 1e-5) if value else 1e-5
            return True
        if isinstance(value, (dict, list)) and _corrupt_first_value(value):
            return True
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_check(tmp_path, workload):
    reference = tmp_path / "reference.json"
    assert result_of(run_bench(reference, workload, record=True))["correct"] is True
    stored = json.loads(reference.read_text(encoding="utf-8"))
    key = sorted(stored)[-1]   # for adapt, an entry with a tight tolerance
    assert not key.endswith("FFRLS/rmse")
    assert _corrupt_first_value(stored[key])
    reference.write_text(json.dumps(stored), encoding="utf-8")

    proc = run_bench(reference, workload)
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "check failed" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    proc = run_bench(tmp_path / "reference.json", WORKLOADS[0],
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
