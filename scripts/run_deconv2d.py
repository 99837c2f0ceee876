#!/usr/bin/env python3
"""2D blur-kernel identification run.

Streams a blurred image (256x256 by default) through the memory-gradient
solver with the isotropic smoothness penalty and compares the result
against the batch half-quadratic solution on the run's final statistics.
Prints wall time and the process's peak resident memory.  The full-scale
configuration is

    python3 scripts/run_deconv2d.py --image-size 4096 --kernel-size 21
"""

import argparse
import pathlib
import resource
import time

from mmls import (
    ExperimentConfig,
    batch_half_quadratic,
    build_isotropic_tv_regularizer,
    nrmse,
    run_experiment,
)
from mmls.experiments import resolve_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--image-size", type=int, default=256)
    parser.add_argument("--kernel-size", type=int, default=7)
    parser.add_argument("--blocksize", type=int, default=64)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / f"deconv2d_seed{args.seed}.csv"

    cfg = ExperimentConfig(
        experiment="deconv2d", seed=args.seed, image_size=args.image_size,
        kernel_size=args.kernel_size, block_size=args.blocksize, out=str(out),
    )
    start = time.perf_counter()
    trace = run_experiment(cfg)
    print(f"streamed: final nrmse {trace.final_nrmse:.4f} "
          f"objective {trace.final_objective:.6f} ({trace.wall_time[-1]:.1f}s)")

    res = resolve_config(cfg)
    reg = build_isotropic_tv_regularizer(
        res.kernel_size, res.kernel_size, res.lam, res.delta, tau=res.tau
    )
    batch = batch_half_quadratic(trace.moments, reg, tol=1e-8)
    print(f"batch reference: nrmse {nrmse(batch.h_star, trace.truth):.4f} "
          f"objective {batch.objective:.6f} ({batch.iterations} solves)")
    print(f"wall time {time.perf_counter() - start:.1f}s, peak RSS {_peak_rss_mib():.0f} MiB")
    print(f"trace written to {out}")


def _peak_rss_mib() -> float:
    """Peak resident memory of this process so far (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    main()
