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
small values.  Columns are matched by name: against a parent whose
traces lack some of this checkout's columns, the parent's columns are
compared and ``identical in the parent's columns`` is printed when they
hold the same values.  Exits 1 if any value of a parent column moves or
any run fails, 0 otherwise.
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
    """``None`` for byte-identical traces, else a :class:`Deviation` per parent column.

    Columns are matched by name, so a change that adds columns is compared
    on the parent's; a column only the change has is not compared.  A
    value ``c`` deviates from its parent value ``p`` by ``|c - p| / |p|``,
    which is infinite where ``p`` is 0 and ``c`` is not; the first row of
    the largest is its block.  Traces with different row counts deviate
    by ``inf`` in every parent column, and so does a parent column that
    the change lacks.
    """
    if parent == change:
        return None
    names, change_names = _header(parent), _header(change)
    old, new = _table(parent), _table(change)
    misaligned = Deviation(math.inf, None, math.inf)
    if old.shape[0] != new.shape[0]:
        return dict.fromkeys(names, misaligned)
    deviations = {}
    for index, name in enumerate(names):
        if name not in change_names:
            deviations[name] = misaligned
            continue
        before, after = old[:, index], new[:, change_names.index(name)]
        with np.errstate(divide="ignore", invalid="ignore"):
            column = np.abs(after - before) / np.abs(before)
        column[before == after] = 0.0
        deviations[name] = Deviation(float(column.max()), int(column.argmax()) + 1, float(column[-1]))
    return deviations


def _header(text: str) -> list[str]:
    return text.partition("\n")[0].split(",")


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
                added = [name for name in _header(traces[1]) if name not in _header(traces[0])]
                note = f" (not in the parent: {', '.join(added)})" if added else ""
                if deviation is None:
                    print(f"{command}: identical")
                elif not any(dev.largest for dev in deviation.values()):
                    print(f"{command}: identical in the parent's columns{note}")
                else:
                    status = 1
                    columns = ", ".join(
                        f"{name} {dev.largest:.3g} at block {dev.block}, last row {dev.last:.3g}"
                        if dev.largest else f"{name} 0"
                        for name, dev in deviation.items()
                    )
                    print(f"{command}: max relative deviation {columns}{note}")
    return status


if __name__ == "__main__":
    sys.exit(main())
