"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench

The count test runs every workload's traced run twice with one seed, a
minute or two in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import HookTargetMissing, Tracer  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name):
    runs = [_result(_run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", "1")) for _ in range(2)]
    first, second = ({key: run["metrics"][key]["value"] for key in layers.EXACT_COUNTS}
                     for run in runs)
    assert first == second
    for metric in layers.PER_LAYER:
        if metric.name in layers.EXACT_COUNTS and name in metric.workloads:
            assert first[metric.name] > 0, metric.name
    assert all(run["correct"] for run in runs)


def test_missing_hook_target_fails_loudly():
    from singosc.opalg import poly
    tracer = Tracer()
    tracer.hook(poly, "_raw_mul_into", "poly.mul")
    tracer.hook(poly, "_no_such_kernel", "poly.gone")
    original = poly._raw_mul_into
    with pytest.raises(HookTargetMissing):
        with tracer:
            pass
    assert poly._raw_mul_into is original


def test_hooks_reach_every_module_that_bound_the_function():
    from singosc.opalg import diffop, poly
    original = poly._raw_mul_into
    tracer = Tracer()
    tracer.hook(poly, "_raw_mul_into", "poly.mul")
    with tracer:
        assert diffop._raw_mul_into is poly._raw_mul_into is not original
        poly._raw_mul({1: 1, 2: 1}, {4: 1})
    assert diffop._raw_mul_into is poly._raw_mul_into is original
    assert tracer.calls("poly.mul") == 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["diffop.finalize", 0.0, 10.0, -1, ""],
                    ["poly.divide", 1.0, 5.0, 0, ""],
                    ["poly.mul", 2.0, 3.0, 1, ""],
                    ["poly.mul", 6.0, 7.0, 0, ""]]
    assert tracer.self_times() == {"diffop": 5.0, "poly": 5.0}
    assert tracer.busy("poly.mul") == 2.0


def test_every_check_name_has_a_verify_metric():
    from singosc.opalg import verify_q3, verify_qp3
    names = [r.name for r in verify_q3(4, 2, casimir=True).results]
    names += [r.name for r in verify_qp3(3, 1).results]
    assert {layers.check_family(n) for n in names} == {
        "casimir", "quadratic", "commute", "so", "classical_limit"}
    with pytest.raises(ValueError):
        layers.check_family("renamed[H,A]")


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(3) == workload.inputs(3)
    sweep = workloads.WORKLOADS["spectrum-sweep"]
    assert sweep.inputs(3) != sweep.inputs(4)
    assert sum(t.rational_m for t in sweep.inputs(3)) == workloads.SPECTRUM_TUPLES // 2


def test_parts_cover_the_inputs_in_order():
    for workload in workloads.WORKLOADS.values():
        inputs = workload.inputs(3)
        flat = [item for part in workload.parts(inputs) for item in part]
        if isinstance(workload, workloads.SpectrumWorkload):
            flat = [tup for _, tup in flat]
        assert flat == inputs


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "q3-symbolic", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
