#!/usr/bin/env python3
"""Sparse time-varying system identification run.

Runs the memory-gradient solver on the 200-tap switching filter stream
with the saturating sparsity penalty, once with forgetting 0.995 and once
without forgetting, to expose the tracking difference after the change.
"""

import argparse
import pathlib

import numpy as np

from mmls import ExperimentConfig, run_experiment

CHANGE_POINT = 2500  # the sample after which the filter switches


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for forgetting in (0.995, 1.0):
        out = outdir / f"adaptive_seed{args.seed}_vartheta{forgetting}.csv"
        cfg = ExperimentConfig(
            experiment="adaptive", seed=args.seed, vartheta=forgetting,
            change_point=CHANGE_POINT, out=str(out),
        )
        trace = run_experiment(cfg)
        pre = float(np.median(trace.nrmse[CHANGE_POINT - 500 : CHANGE_POINT]))
        post = trace.nrmse[CHANGE_POINT : CHANGE_POINT + 1000]
        hits = np.nonzero(post <= 2.0 * pre)[0]
        recovery = f"{hits[0] + 1} samples" if hits.size else "not within 1000 samples"
        print(f"forgetting {forgetting}: pre-change median nrmse {pre:.4f}, "
              f"final {trace.final_nrmse:.4f}, re-tracked in {recovery} -> {out}")


if __name__ == "__main__":
    main()
