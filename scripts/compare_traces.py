#!/usr/bin/env python3
"""Compare the CSV traces of this checkout with those of another checkout.

    python3 scripts/compare_traces.py PARENT_ROOT

Runs each of :data:`COMMANDS` through the ``mmls`` command line with
``--no-wall-time``, once on the sources of this checkout and once on those
under ``PARENT_ROOT/src``, each run in a fresh interpreter with BLAS on one
thread.  For each command it prints ``identical`` when the two traces are
byte-identical, and otherwise, for each column, the largest relative
deviation from the parent's value, the block (trace row) where it occurs
and the deviation in the last row: roundoff moves tend to peak mid-run on
small values.  Exits 1 if any pair of traces differs or any run fails, 0
otherwise.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# every experiment, every strategy, both block regimes, both operator
# forms in full space, a unit identity operator with a nonzero ridge,
# deconvolution blocks that span several image rows and start mid-row, and
# a synthetic stream whose observations fill five chunks, and a
# low-dimensional strategy across the statistics' scale folds (blocks 401,
# 823, 1,245 and 1,667 at forgetting 0.9), at sizes that run in seconds
COMMANDS = (
    "adaptive --seed 1",
    "adaptive --seed 2 --samples 1500 --strategy sgd",
    "deconv2d --seed 1",
    "deconv2d --seed 1 --kernel-size 21",
    "synthetic --seed 2",
    "synthetic --seed 2 --strategy gradient-only",
    "synthetic --seed 2 --strategy full-space --n-dim 16 --samples 500",
    "deconv2d --seed 3 --image-size 64 --kernel-size 5 --blocksize 7 --strategy gradient-only",
    "synthetic --seed 4 --blocksize 5 --vartheta 0.99",
    "deconv2d --seed 3 --image-size 64 --kernel-size 5 --strategy sgd",
    "deconv2d --seed 3 --image-size 32 --kernel-size 5 --strategy full-space",
    "adaptive --seed 3 --samples 1000 --tau 0.01",
    "deconv2d --seed 5 --image-size 16 --kernel-size 3 --blocksize 40 --strategy gradient-only",
    "synthetic --seed 6 --operator identity --penalty huber --n-dim 64 --samples 5000",
    "adaptive --seed 4 --samples 2000 --n-dim 32 --vartheta 0.9",
)
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class Deviation(NamedTuple):
    """A column's largest relative deviation, its 1-based block (``None`` if
    the traces do not align), and the deviation in the last row."""

    largest: float
    block: int | None
    last: float


def compare_csv(parent: str, change: str) -> dict | None:
    """``None`` for byte-identical traces, else a :class:`Deviation` per column.

    A value ``c`` deviates from its parent value ``p`` by ``|c - p| / |p|``,
    which is infinite where ``p`` is 0 and ``c`` is not; the first row of
    the largest is its block.  Traces whose headers or shapes differ
    deviate by ``inf`` in every parent column.
    """
    if parent == change:
        return None
    names = parent.partition("\n")[0].split(",")
    old, new = _table(parent), _table(change)
    if old.shape != new.shape or change.partition("\n")[0].split(",") != names:
        return dict.fromkeys(names, Deviation(math.inf, None, math.inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.abs(new - old) / np.abs(old)
    deviation[old == new] = 0.0
    return {
        name: Deviation(float(column.max()), int(column.argmax()) + 1, float(column[-1]))
        for name, column in zip(names, deviation.T)
    }


def _table(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def run_trace(src: Path, command: str, out: Path) -> str:
    """Run one command line on the package under ``src``; return its CSV trace."""
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "mmls.cli", *command.split(), "--no-wall-time", "--out", str(out)]
    done = subprocess.run(argv, cwd=out.parent, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()}")
    return out.read_text(encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_root", type=Path, help="root of the checkout to compare against")
    args = parser.parse_args(argv)
    parent_src = args.parent_root.resolve() / "src"
    if not (parent_src / "mmls" / "__init__.py").is_file():
        parser.error(f"no mmls sources under {parent_src}")

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index, command in enumerate(COMMANDS):
            traces = []
            for side, src in (("parent", parent_src), ("change", ROOT / "src")):
                run_dir = Path(tmp) / f"{side}{index}"
                run_dir.mkdir()
                try:
                    traces.append(run_trace(src, command, run_dir / "trace.csv"))
                except RuntimeError as exc:
                    print(f"{command}: {side} failed, {exc}")
                    status = 1
                    break
            else:
                deviation = compare_csv(*traces)
                if deviation is None:
                    print(f"{command}: identical")
                else:
                    status = 1
                    columns = ", ".join(
                        f"{name} {dev.largest:.3g} at block {dev.block}, last row {dev.last:.3g}"
                        if dev.largest else f"{name} 0"
                        for name, dev in deviation.items()
                    )
                    print(f"{command}: max relative deviation {columns}")
    return status


if __name__ == "__main__":
    sys.exit(main())
