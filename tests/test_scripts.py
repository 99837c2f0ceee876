"""Smoke test of the example scripts."""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import pytest

import mmls

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the directory holding the ``mmls`` package under test
PACKAGE_PATH = str(pathlib.Path(mmls.__file__).resolve().parent.parent)


def test_run_deconv2d_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_deconv2d.py"), "--image-size", "32",
         "--kernel-size", "3", "--blocksize", "16", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(line.startswith("batch reference: nrmse ") for line in lines)
    assert lines[-2].startswith("wall time ") and " peak RSS " in lines[-2]
    trace = tmp_path / "deconv2d_seed42.csv"
    assert lines[-1] == f"trace written to {trace}"
    rows = trace.read_text().splitlines()
    assert rows[0] == "n,objective,grad_norm,nrmse,nrmse_sq,wall_time_s,step_quadratic,subspace_dim,rank"
    assert len(rows) == 1 + 32 * 32 // 16


def test_run_adaptive_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_adaptive.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["forgetting 0.995", "forgetting 1.0"]
    traces = sorted(tmp_path.glob("*.csv"))
    assert [trace.name for trace in traces] == [
        "adaptive_seed5_vartheta0.995.csv", "adaptive_seed5_vartheta1.0.csv",
    ]
    for trace in traces:
        assert len(trace.read_text().splitlines()) == 1 + 5000


def test_compare_traces_reports_the_largest_relative_deviation():
    spec = importlib.util.spec_from_file_location("compare_traces", ROOT / "scripts" / "compare_traces.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    compare_csv = script.compare_csv
    parent = "n,objective,grad_norm\n1,2,0\n2,-4,1e-3\n"
    assert compare_csv(parent, parent) is None
    moved = "n,objective,grad_norm\n1,2.000002,0\n2,-4.000008,1e-3\n"
    deviation = compare_csv(parent, moved)
    assert deviation["n"] == deviation["grad_norm"] == (0.0, 1, 0.0)
    assert deviation["objective"] == pytest.approx((2e-6, 2, 2e-6))
    # the largest move is reported at its block, next to the last row's
    peaked = "n,objective,grad_norm\n1,2.00002,0\n2,-4.000008,1e-3\n"
    assert compare_csv(parent, peaked)["objective"] == pytest.approx((1e-5, 1, 2e-6))
    late = "n,objective,grad_norm\n1,2,0\n2,-4,1.1e-3\n"
    assert compare_csv(parent, late)["grad_norm"] == pytest.approx((0.1, 2, 0.1))
    assert compare_csv(parent, parent.replace(",0\n", ",1e-300\n"))["grad_norm"] == (math.inf, 1, 0.0)
    # the same numbers in other digits differ as text but deviate by nothing
    unmoved = (0.0, 1, 0.0)
    assert compare_csv(parent, parent.replace("1e-3", "0.001")) == dict.fromkeys(["n", "objective", "grad_norm"], unmoved)
    short = "n,objective,grad_norm\n1,2,0\n"
    misaligned = (math.inf, None, math.inf)
    assert compare_csv(parent, short) == dict.fromkeys(["n", "objective", "grad_norm"], misaligned)
    # columns are matched by name: one the change adds is not compared, and a
    # parent column the change lacks deviates by inf
    wider = "n,grad_norm,objective,rank\n1,0,2.000002,2\n2,1e-3,-4,3\n"
    deviation = compare_csv(parent, wider)
    assert list(deviation) == ["n", "objective", "grad_norm"]
    assert deviation["n"] == deviation["grad_norm"] == unmoved
    assert deviation["objective"] == pytest.approx((1e-6, 1, 0.0))
    narrower = "n,objective\n1,2\n2,-4\n"
    assert compare_csv(parent, narrower) == {"n": unmoved, "objective": unmoved, "grad_norm": misaligned}
