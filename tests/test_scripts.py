"""Smoke test of the example scripts."""

import os
import pathlib
import subprocess
import sys

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
    trace = tmp_path / "deconv2d_seed42.csv"
    assert lines[-1] == f"trace written to {trace}"
    rows = trace.read_text().splitlines()
    assert rows[0] == "n,objective,grad_norm,nrmse,nrmse_sq,wall_time_s"
    assert len(rows) == 1 + 32 * 32 // 16
