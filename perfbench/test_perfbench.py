"""Smoke test of the benchmark on tiny versions of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from tracer import END, PARENT, START, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
STRUCTURAL_CHECKS = (
    "oracle converged",
    "reruns bit-identical",
    "final objective matches closed-form statistics",
    "final_nrmse matches truth",
)
# captured before any traced run
ORIGINALS = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in bench.trace_points()]


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced_run(request):
    """A tiny traced run of each workload."""
    return request.param, bench.run_workload(request.param, 1, 0.1, trace=True, tiny=True)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert NAME.fullmatch(entry["name"])
        assert entry["why"] == bench.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untraced_run_reports_declared_metrics(name):
    result = bench.run_workload(name, seed=1, seconds=0.1, trace=False, tiny=True)
    for check in STRUCTURAL_CHECKS:
        assert f"gate PASS: {check}" in result.report
    assert result.attempted >= 1
    for key, (value, unit) in result.metrics.items():
        assert NAME.fullmatch(key) and UNIT.fullmatch(unit), key
        assert value == value, key
    for entry in SPEC["end_to_end"]:
        assert result.metrics[entry["name"]][1] == entry["unit"]
        assert result.metrics[entry["name"]][0] > 0


def test_traced_run_reports_declared_metrics(traced_run):
    name, result = traced_run
    for key, (_, unit) in result.metrics.items():
        assert NAME.fullmatch(key) and UNIT.fullmatch(unit), key
    assert {e["name"] for e in SPEC["per_layer"]} == set(result.metrics)
    for entry in SPEC["per_layer"]:
        assert result.metrics[entry["name"]][1] == entry["unit"]


def test_traced_counts_match_the_stream(traced_run):
    name, result = traced_run
    blocks = bench.sizes(bench.WORKLOADS[name].resolve(1, tiny=True))["blocks"]
    metrics = {key: value for key, (value, _) in result.metrics.items()}
    assert metrics["moments.update_calls"] == blocks
    assert metrics["engine.step_calls"] == blocks
    assert metrics["datasets.block_calls"] == blocks
    assert metrics["moments.sample_calls_per_block"] == 2


def test_self_times_are_nonnegative_and_sum_to_the_root(traced_run):
    traced = [rep.spans for rep in traced_run[1].reps if rep.traced]
    assert traced
    for spans in traced:
        selfs = self_times(spans)
        assert min(selfs) >= 0.0
        assert [span[PARENT] for span in spans].count(-1) == 1
        duration = spans[0][END] - spans[0][START]
        assert sum(selfs) == pytest.approx(duration, rel=1e-9, abs=1e-12)
        for span in spans:
            assert NAME.fullmatch(span[0])


def test_trace_points_are_restored(traced_run):
    for owner, attr, original in ORIGINALS:
        assert vars(owner)[attr] is original, attr
    with pytest.raises(ZeroDivisionError):
        with Tracer().patched(bench.trace_points()):
            1 / 0
    for owner, attr, original in ORIGINALS:
        assert vars(owner)[attr] is original, attr


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
