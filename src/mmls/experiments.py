"""Experiment harness: configs, regularizer builders, runners and traces.

Three experiments are wired up:

* ``deconv2d``   -- blur-kernel identification from a blurred image,
  streamed as raster-order pixel blocks with an isotropic smoothness
  penalty on the kernel gradient;
* ``adaptive``   -- sparse time-varying filter identification, single
  samples with a coordinatewise saturating sparsity penalty and a
  forgetting factor below 1 for tracking;
* ``synthetic``  -- generic Gaussian regression stream for smoke tests
  and baselines.

Each run produces a :class:`RunTrace` (one row per processed block) and
optionally a CSV file plus a JSON sidecar with the resolved config and
summary statistics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import moments as moments_mod
from .datasets import gen_adaptive, gen_deconv2d, gen_synthetic
from .engine import DivergenceError, MMEngine, SubspaceStrategy
from .moments import MomentState
from .penalties import PenaltySpec, Regularizer

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunTrace",
    "build_isotropic_tv_regularizer",
    "build_sparsity_regularizer",
    "identity_blocks_regularizer",
    "sgd_step",
    "instantaneous_gradient",
    "nrmse",
    "run_experiment",
    "resolve_config",
]

EXPERIMENTS = ("deconv2d", "adaptive", "synthetic")
ALGORITHMS = tuple(s.value for s in SubspaceStrategy) + ("sgd",)

TRACE_COLUMNS = ("n", "objective", "grad_norm", "nrmse", "nrmse_sq", "wall_time_s")

# largest deconv2d footprint accepted, as counted by :func:`deconv2d_resident_bytes`
RESIDENT_BYTES_CAP = 2**31


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Resolved or partially specified run description.

    ``strategy`` accepts the engine subspace tags plus ``"sgd"`` for the
    baseline.  Fields left at ``None`` are filled by
    :func:`resolve_config` with experiment-specific defaults.
    """

    experiment: str
    seed: int = 0
    image_size: int = 256
    kernel_size: int = 7
    n_dim: int | None = None
    n_samples: int | None = None
    block_size: int | None = None
    vartheta: float | None = None
    strategy: str = "memory-gradient"
    penalty: str | None = None
    lam: float | None = None
    delta: float | None = None
    kappa: float = 1.0
    operator: str | None = None
    tau: float | None = None
    noise_sigma: float | None = None
    change_point: int | None = None
    sgd_scale: float | None = None
    out: str | None = None


_DEFAULTS = {
    "deconv2d": dict(
        block_size=64, vartheta=1.0, operator="tv2d", penalty="l2lkappa-power",
        lam=1e-4, delta=1e-2, tau=1e-10, noise_sigma=0.03, sgd_scale=1e-3,
    ),
    "adaptive": dict(
        n_dim=200, n_samples=5000, block_size=1, vartheta=0.995, operator="identity",
        penalty="welsch", lam=0.02, delta=0.1, tau=0.0,
        noise_sigma=float(np.sqrt(0.05)), sgd_scale=0.05,
    ),
    "synthetic": dict(
        n_dim=32, n_samples=2000, block_size=1, vartheta=1.0, operator="none",
        penalty="none", lam=1e-2, delta=0.1, tau=1e-6, noise_sigma=0.01, sgd_scale=0.1,
    ),
}


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fill in experiment defaults and validate the result."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}; expected one of {EXPERIMENTS}")
    merged = dataclasses.replace(config)
    for key, value in _DEFAULTS[config.experiment].items():
        if getattr(merged, key) is None:
            setattr(merged, key, value)
    # adaptive streams are inherently single-sample; deconv2d identifies the whole kernel grid
    if merged.experiment == "adaptive":
        merged.block_size = 1
    if merged.experiment == "deconv2d":
        merged.n_dim = merged.kernel_size**2
    for field in dataclasses.fields(merged):
        value = getattr(merged, field.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value}")
    if merged.strategy not in ALGORITHMS:
        raise ConfigError(f"unknown strategy {merged.strategy!r}; expected one of {ALGORITHMS}")
    if not (0.0 < merged.vartheta <= 1.0):
        raise ConfigError(f"vartheta must lie in (0, 1], got {merged.vartheta}")
    if not merged.sgd_scale > 0.0:
        raise ConfigError(f"sgd_scale must be positive, got {merged.sgd_scale}")
    for name in ("image_size", "kernel_size", "n_dim", "n_samples", "block_size"):
        value = getattr(merged, name)
        if value is not None and int(value) < 1:
            raise ConfigError(f"{name} must be positive")
    if merged.noise_sigma < 0.0:
        raise ConfigError(f"noise_sigma must be nonnegative, got {merged.noise_sigma}")
    # dense autocorrelation storage: keep the coefficient dimension sane
    if merged.n_dim > 4096:
        raise ConfigError(f"coefficient dimension {merged.n_dim} exceeds the dense-storage cap 4096")
    if merged.experiment == "deconv2d":
        resident = deconv2d_resident_bytes(merged.image_size, merged.kernel_size)
        if resident > RESIDENT_BYTES_CAP:
            raise ConfigError(
                f"deconv2d stream would keep {resident / 2**30:.1f} GiB resident; "
                "reduce image_size"
            )
    return merged


def deconv2d_resident_bytes(image_size: int, kernel_size: int) -> int:
    """Bytes of the float64 arrays a deconv2d run keeps for its whole length.

    The image, its zero-padded copy, the noise and the observations, plus
    the ``kernel_size**2``-square autocorrelation; the patch rows are cut
    block by block and never held together.
    """
    padded = image_size + kernel_size - 1
    return 8 * (3 * image_size**2 + padded**2 + kernel_size**4)


# --- regularizer builders ---------------------------------------------------


def build_isotropic_tv_regularizer(kernel_rows, kernel_cols, lam, delta, tau=1e-10):
    """Isotropic penalty on neighbor differences of a 2-D coefficient grid.

    One block per pixel stacks its horizontal and vertical forward
    differences (zero rows at the right/bottom boundaries); the block
    potential is the kappa = 1 power family, which matches the usual
    hyperbolic smoothness penalty up to an additive constant.  A small
    ridge ``tau`` keeps the overall objective strongly convex.  The
    stacked difference operator is assembled in CSR form directly.
    """
    rows, cols = int(kernel_rows), int(kernel_cols)
    n = rows * cols
    spec = PenaltySpec("l2lkappa-power", lam=lam, delta=delta, kappa=1.0)
    pixel = np.arange(n)
    # operator row 2p is the horizontal difference of pixel p, row 2p + 1 its vertical one;
    # each is -1 at column p and +1 at the neighbor, or empty at the boundary
    present = np.column_stack([pixel % cols + 1 < cols, pixel // cols + 1 < rows]).ravel()
    neighbor = np.column_stack([pixel + 1, pixel + cols]).ravel()
    indices = np.column_stack([np.repeat(pixel, 2), neighbor])[present].ravel()
    indptr = np.concatenate([[0], np.cumsum(2 * present)])
    data = np.tile([-1.0, 1.0], int(present.sum()))
    # int32 indices: the type scipy picks when it converts a dense matrix of this size
    op = scipy.sparse.csr_array(
        (data, indices.astype(np.int32), indptr.astype(np.int32)), shape=(2 * n, n)
    )
    return Regularizer.stacked(n, op, np.full(n, 2), [spec] * n, quad=tau)


def identity_blocks_regularizer(n_dim, spec: PenaltySpec, tau=0.0):
    """One scalar penalty block per coordinate: ``sum_s psi(|h_s|)``."""
    n = int(n_dim)
    return Regularizer.stacked(n, np.eye(n), np.ones(n, dtype=int), [spec] * n, quad=tau)


def build_sparsity_regularizer(n_dim, lam, delta):
    """Coordinatewise saturating (Gaussian-kernel) sparsity penalty."""
    return identity_blocks_regularizer(n_dim, PenaltySpec("welsch", lam=lam, delta=delta))


# --- baseline and metrics -----------------------------------------------------


def sgd_step(h, grad_sample, step_scale, step_index):
    """Gradient step with step size ``step_scale / sqrt(step_index)``."""
    if step_scale <= 0:
        raise ValueError("step_scale must be positive")
    return h - (step_scale / np.sqrt(step_index)) * grad_sample


def instantaneous_gradient(reg, X, y, h):
    """Gradient of the single-block penalized residual at ``h``."""
    return X @ (X.T @ h - y) + reg.gradient(h)


def nrmse(estimate, truth) -> float:
    """Normalized error ``||estimate - truth|| / ||truth||``."""
    estimate = np.asarray(estimate, dtype=float).reshape(-1)
    # contiguous, as ``np.linalg.norm`` makes it, so the dot sums in its order
    truth = np.asarray(truth, dtype=float).ravel()
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have equal length")
    scale = math.sqrt(truth @ truth)
    if scale == 0.0:
        raise ValueError("truth has zero norm")
    error = estimate - truth
    return math.sqrt(error @ error) / scale


# --- trace -------------------------------------------------------------------


@dataclass
class RunTrace:
    """Per-iteration log of a run plus the final iterate.

    ``objective`` and ``grad_norm`` are evaluated at the pre-step iterate
    under the statistics including block ``n``; ``nrmse`` measures the
    post-step iterate against the truth in effect at block ``n``.
    ``moments`` holds the final statistics behind ``final_objective`` and
    ``truth`` the vector behind ``final_nrmse``; both are ``None`` for a
    trace read back from CSV.
    """

    n: np.ndarray
    objective: np.ndarray
    grad_norm: np.ndarray
    nrmse: np.ndarray
    wall_time: np.ndarray
    h_final: np.ndarray
    final_objective: float
    final_nrmse: float
    moments: MomentState | None = None
    truth: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n.shape[0]

    def write_csv(self, path) -> None:
        table = np.column_stack(
            [self.n, self.objective, self.grad_norm, self.nrmse,
             self.nrmse**2, self.wall_time]
        )
        np.savetxt(
            path, table, delimiter=",", fmt="%.17g", header=",".join(TRACE_COLUMNS), comments=""
        )

    @classmethod
    def read_csv(cls, path) -> "RunTrace":
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(
            n=table[:, 0].astype(int),
            objective=table[:, 1],
            grad_norm=table[:, 2],
            nrmse=table[:, 3],
            wall_time=table[:, 5],
            h_final=np.zeros(0),
            final_objective=float("nan"),
            final_nrmse=float(table[-1, 3]) if len(table) else float("nan"),
        )

    def summary(self) -> dict:
        return {
            "iterations": int(len(self)),
            "final_nrmse": float(self.final_nrmse),
            "final_objective": float(self.final_objective),
            "wall_time_s": float(self.wall_time[-1]) if len(self) else 0.0,
        }


def _write_meta(path, config: ExperimentConfig, trace: RunTrace) -> None:
    payload = {"config": dataclasses.asdict(config), "summary": trace.summary()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def meta_path(csv_path: str) -> str:
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"


# --- runner -------------------------------------------------------------------


def _build_problem(cfg: ExperimentConfig):
    """Instantiate (truth lookup, stream, regularizer) for a config."""
    if cfg.experiment == "deconv2d":
        kernel, stream = gen_deconv2d(
            cfg.seed, image_size=cfg.image_size, kernel_size=cfg.kernel_size,
            sigma=cfg.noise_sigma,
        )
        truth = kernel.ravel()
        reg = _regularizer_for(cfg, truth.size, grid=(cfg.kernel_size, cfg.kernel_size))
        return (lambda n: truth), stream, reg
    if cfg.experiment == "adaptive":
        truth, stream = gen_adaptive(
            cfg.seed, n_taps=cfg.n_dim, n_samples=cfg.n_samples,
            noise_var=cfg.noise_sigma**2, change_point=cfg.change_point,
        )
        reg = _regularizer_for(cfg, cfg.n_dim, grid=None)
        return truth.at, stream, reg
    truth, stream = gen_synthetic(
        cfg.seed, n_dim=cfg.n_dim, n_rows=cfg.n_samples, sigma=cfg.noise_sigma
    )
    reg = _regularizer_for(cfg, cfg.n_dim, grid=None)
    return (lambda n: truth), stream, reg


def _regularizer_for(cfg: ExperimentConfig, n_dim, grid):
    if cfg.operator == "tv2d":
        if grid is None:
            raise ConfigError("operator 'tv2d' requires a 2-D coefficient grid")
        if cfg.penalty != "l2lkappa-power" or cfg.kappa != 1.0:
            raise ConfigError("operator 'tv2d' takes only penalty 'l2lkappa-power' with kappa 1")
        return build_isotropic_tv_regularizer(grid[0], grid[1], cfg.lam, cfg.delta, tau=cfg.tau)
    if cfg.operator == "identity":
        if cfg.penalty in (None, "none"):
            raise ConfigError("operator 'identity' requires a penalty kind")
        spec = PenaltySpec(cfg.penalty, lam=cfg.lam, delta=cfg.delta, kappa=cfg.kappa)
        return identity_blocks_regularizer(n_dim, spec, tau=cfg.tau)
    if cfg.operator == "none":
        return Regularizer(n_dim, quad=cfg.tau)
    raise ConfigError(f"unknown operator {cfg.operator!r}; expected tv2d, identity or none")


def run_experiment(config: ExperimentConfig, measure_time: bool = True) -> RunTrace:
    """Stream the configured experiment and return its trace.

    With ``measure_time=False`` the wall-time column is all zeros and the
    CSV output of two identical runs is bit-identical.  If ``config.out``
    is set, writes the CSV trace and a JSON sidecar next to it; a path
    that is a directory or lies in a missing directory is rejected before
    the stream starts.
    """
    cfg = resolve_config(config)
    if cfg.out and (os.path.isdir(cfg.out) or not os.path.isdir(os.path.dirname(cfg.out) or ".")):
        raise ConfigError(f"out path {cfg.out!r} is not a file in an existing directory")
    try:
        truth_at, stream, reg = _build_problem(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    q = int(cfg.block_size)
    total = stream.n_blocks(q)
    if total < 1:
        raise ConfigError("stream shorter than one block")

    steps = np.arange(1, total + 1)
    objective = np.zeros(total)
    grad_norm = np.zeros(total)
    errors = np.zeros(total)
    wall = np.zeros(total)
    clock = time.perf_counter if measure_time else None
    started = clock() if clock else 0.0

    if cfg.strategy == "sgd":
        final_h, final_state = _run_sgd(
            cfg, stream, reg, truth_at, q, objective, grad_norm, errors, wall, clock, started
        )
    else:
        engine = MMEngine(reg, strategy=cfg.strategy, forgetting=cfg.vartheta)
        for i, sample in enumerate(stream.blocks(q)):
            report = engine.step(sample.X, sample.y)
            objective[i] = report.objective
            grad_norm[i] = report.grad_norm
            errors[i] = nrmse(engine.h, truth_at((i + 1) * q))
            if clock:
                wall[i] = clock() - started
        final_h, final_state = engine.h, engine.moments

    trace = RunTrace(
        n=steps,
        objective=objective,
        grad_norm=grad_norm,
        nrmse=errors,
        wall_time=wall,
        h_final=final_h,
        final_objective=moments_mod.objective(final_state, reg, final_h),
        final_nrmse=float(errors[-1]),
        moments=final_state,
        truth=truth_at(total * q),
    )
    if cfg.out:
        trace.write_csv(cfg.out)
        _write_meta(meta_path(cfg.out), cfg, trace)
    return trace


def _run_sgd(cfg, stream, reg, truth_at, q, objective, grad_norm, errors, wall, clock, started):
    """Decreasing-step gradient baseline with the same trace columns."""
    h = np.zeros(stream.n_dim)
    stats = MomentState.zeros(stream.n_dim, cfg.vartheta)
    for i, sample in enumerate(stream.blocks(q)):
        stats = moments_mod.update(stats, sample)
        objective[i] = moments_mod.objective(stats, reg, h)
        grad_norm[i] = float(np.linalg.norm(moments_mod.gradient(stats, reg, h)))
        g = instantaneous_gradient(reg, sample.X, sample.y, h)
        h = sgd_step(h, g, cfg.sgd_scale, i + 1)
        if not np.all(np.isfinite(h)):
            raise DivergenceError(i + 1, f"sgd iterate became non-finite at step {i + 1}")
        errors[i] = nrmse(h, truth_at((i + 1) * q))
        if clock:
            wall[i] = clock() - started
    return h, stats
