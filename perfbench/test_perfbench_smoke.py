"""Tests of the benchmark harness itself; they assert nothing about timings.

The smoke runs use `run.py --smoke`, which keeps every workload, metric and
check but shrinks task counts and repetitions to a few seconds in total.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import tasks as taskgen  # noqa: E402
import workloads  # noqa: E402
from padicvdp import from_integer  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0, json.loads(lines[-2])["failures"]
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_exits_nonzero_without_the_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "certify", "--seed", "1", "--trace", "0", "--seconds", "1")
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _first(workload: str, shape: str):
    return next(t for t in taskgen.generate(workload, 3, 40) if t.cls.startswith(shape))


def test_oracle_rejects_a_wrong_coefficient():
    task = _first("certify", "divp/")
    out = workloads.run_certify(workloads.prepare(task), None)
    assert oracle.check_certify(task, out) == []
    table = out["table"]
    coeffs = list(table.coeffs)
    last = coeffs[-1]
    coeffs[-1] = last + from_integer(1, last.prime, last.precision)
    out["table"] = replace(table, coeffs=tuple(coeffs))
    assert any("coefficient" in p for p in oracle.check_certify(task, out))


def test_oracle_rejects_a_wrong_verdict():
    task = _first("certify", "bi-divp/")
    out = workloads.run_certify(workloads.prepare(task), None)
    out["verdict"] = replace(out["verdict"], holds=not out["verdict"].holds)
    assert any("verdict" in p for p in oracle.check_certify(task, out))


def test_oracle_rejects_a_wrong_root_and_status():
    task = _first("lift", "power/")
    out = workloads.run_lift(workloads.prepare(task), None)
    assert oracle.check_lift(task, out) == []
    trace = out["traces"][0]
    coord = trace.root.coords[0]
    bumped = coord + from_integer(task.prime ** (coord.precision - 1), task.prime,
                                  coord.precision)
    wrong = replace(trace.root, coords=(bumped,) + trace.root.coords[1:])
    out["traces"][0] = replace(trace, root=wrong)
    assert any("replay" in p for p in oracle.check_lift(task, out))
    out["traces"][0] = replace(trace, status="condition-failed")
    assert oracle.check_lift(task, out)


def test_lift_negative_controls_end_condition_failed():
    task = _first("lift", "neg-square/")
    out = workloads.run_lift(workloads.prepare(task), None)
    assert out["traces"] and all(t.status == "condition-failed" for t in out["traces"])
    assert oracle.check_lift(task, out) == []
