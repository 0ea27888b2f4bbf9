"""Self-tests of the benchmark (small inputs; about a minute).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
CAVITIES = [n for n in NAMES if n in workloads.CAVITIES]

_runs: dict = {}


def bench(name: str, trace: int, seed: int = 3, cwd: str = ROOT):
    """Run the benchmark on tiny inputs; ``(exit code, stdout lines)``."""
    key = (name, trace, seed, cwd)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)
        _runs[key] = (proc.returncode, proc.stdout.strip().splitlines())
    return _runs[key]


def result(name: str, trace: int, seed: int = 3) -> dict:
    code, lines = bench(name, trace, seed)
    assert code == 0, lines
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    res = result(name, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", CAVITIES)
def test_model_and_counts_repeat_exactly(name):
    first, second = result(name, 0, seed=3), result(name, 0, seed=4)
    assert first["metrics"]["model_mlups"] == second["metrics"]["model_mlups"]
    first, second = result(name, 1, seed=3), result(name, 1, seed=4)
    for key in ("runtime.launches_per_step", "collision.calls_per_step",
                "model.bytes_per_step", "model.kernels_per_step",
                "model.us_per_step", "engine.population_bytes"):
        assert first["metrics"][key] == second["metrics"][key], key


@pytest.mark.parametrize("name", CAVITIES)
def test_traced_step_accounting_closes(name):
    assert abs(result(name, 1)["metrics"]["obs.accounting"]["value"] - 1) < 0.1


@pytest.mark.parametrize("name", CAVITIES)
def test_corrupted_state_fails_the_gate(name):
    cav = workloads.TINY_CAVITIES[name]
    ours, wl = workloads.build_cavity(cav, 5, workloads.FUSION)
    ref, _ = workloads.build_cavity(cav, 5, workloads.REFERENCE_FUSION)
    with ours, ref:
        ours.run(cav.gate_step)
        ref.run(cav.gate_step)
        reference = workloads.macroscopic_state(ref)
        assert workloads.health_errors(ours, wl.char_velocity) == []
        assert workloads.state_mismatch(
            workloads.macroscopic_state(ours), reference) <= workloads.GATE_RTOL

        old = ours.engine.corrupt_cell(ours.num_levels - 1, 0, q=1)
        assert old == old * 1.0  # a real population value was replaced
        assert workloads.health_errors(ours, wl.char_velocity)
        ours.engine.corrupt_cell(ours.num_levels - 1, 0, q=1, value=old * 1.001)
        assert workloads.health_errors(ours, wl.char_velocity) == []
        assert workloads.state_mismatch(
            workloads.macroscopic_state(ours), reference) > workloads.GATE_RTOL


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(NAMES[0], 0, cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
