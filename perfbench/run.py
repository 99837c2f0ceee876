#!/usr/bin/env python3
"""Run one mmls benchmark workload and print its metrics.

    python3 perfbench/run.py --workload deconv-k21-q64 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics declared in ``BENCHMARK.json`` (``--trace 0``) or
its ``per_layer`` metrics (``--trace 1``); the lines before it report the
environment, every stream, the correctness gate and all metrics.
``--workload all`` runs each workload in turn, each in a fresh process.
"""

import os

# BLAS threads are fixed before numpy loads, so neither the results' last
# digits nor the step latencies depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# time a workload's run may take beyond --seconds: set-up, the gate, one overrun
SLACK_S = 120


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run_all(args, names) -> int:
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(command, cwd=ROOT, timeout=args.seconds + SLACK_S, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "mmls" / "__init__.py").is_file():
        return _fail(f"no mmls sources under {SRC}; run from the root of an mmls checkout")
    if not SPEC.is_file():
        return _fail(f"missing {SPEC}")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return _run_all(args, names)
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    sys.path[:0] = [str(SRC), str(HERE)]
    import bench  # noqa: PLC0415  (needs the BLAS pin and sys.path above)

    if Path(bench.mmls.__file__).resolve().parent != SRC / "mmls":
        return _fail(f"imported mmls from {bench.mmls.__file__}, not from {SRC}")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env {json.dumps(bench.environment(), sort_keys=True)}")
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.report:
        print(line)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        if entry["name"] in result.metrics:
            value, unit = result.metrics[entry["name"]]
            if unit != entry["unit"]:
                return _fail(f"{entry['name']} is measured in {unit}, declared in {entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result.correct and len(metrics) == len(declared),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
