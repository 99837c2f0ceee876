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
import functools
import json
import math
import numbers
import os
import time
import typing
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.blas import ddot

from . import moments as moments_mod
from .datasets import gen_adaptive, gen_deconv2d, gen_synthetic
from .engine import DIVERGENCE_NORM, DivergenceError, IterationReport, MMEngine, SubspaceStrategy, _pre_step
from .moments import MomentState, Sample
from .penalties import PenaltySpec, Regularizer, _coerce_dim

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunTrace",
    "SGDStepper",
    "build_isotropic_tv_regularizer",
    "identity_blocks_regularizer",
    "nrmse",
    "run_experiment",
    "resolve_config",
]

ALGORITHMS = tuple(s.value for s in SubspaceStrategy) + ("sgd",)

TRACE_COLUMNS = (
    "n", "objective", "grad_norm", "nrmse", "nrmse_sq", "wall_time_s",
    "step_quadratic", "subspace_dim", "rank",
)

# largest run footprint accepted, as counted by :func:`resident_bytes`
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


# config key -> value type, the non-None member of an optional field
_FIELD_TYPES = {
    name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}

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
EXPERIMENTS = tuple(_DEFAULTS)


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
    # every number as a Python int or float, as the sidecar's JSON takes it
    for name, kind in _FIELD_TYPES.items():
        value = getattr(merged, name)
        if value is None or kind not in (int, float):
            continue
        if kind is int:
            try:
                value = _coerce_dim(value, name, minimum=0 if name == "seed" else 1)
            except (TypeError, ValueError) as err:
                raise ConfigError(str(err)) from None
        elif not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        elif not math.isfinite(value := float(value)):
            raise ConfigError(f"{name} must be finite, got {value}")
        setattr(merged, name, value)
    # a path-like ``out`` as the string the sidecar and ``meta_path`` take
    if merged.out is not None:
        try:
            merged.out = os.fspath(merged.out)
        except TypeError:
            pass
        if not isinstance(merged.out, str):
            raise ConfigError(f"out must be a string or path-like, got {config.out!r}")
    if merged.strategy not in ALGORITHMS:
        raise ConfigError(f"unknown strategy {merged.strategy!r}; expected one of {ALGORITHMS}")
    if not (0.0 < merged.vartheta <= 1.0):
        raise ConfigError(f"vartheta must lie in (0, 1], got {merged.vartheta}")
    if not merged.sgd_scale > 0.0:
        raise ConfigError(f"sgd_scale must be positive, got {merged.sgd_scale}")
    if merged.noise_sigma < 0.0:
        raise ConfigError(f"noise_sigma must be nonnegative, got {merged.noise_sigma}")
    # dense autocorrelation storage: keep the coefficient dimension sane
    if merged.n_dim > 4096:
        raise ConfigError(f"coefficient dimension {merged.n_dim} exceeds the dense-storage cap 4096")
    resident = resident_bytes(merged)
    if resident > RESIDENT_BYTES_CAP:
        size = "image_size" if merged.experiment == "deconv2d" else "n_samples"
        raise ConfigError(
            f"{merged.experiment} run would keep {resident / 2**30:.1f} GiB resident; reduce {size}"
        )
    return merged


def resident_bytes(cfg: ExperimentConfig) -> int:
    """Upper bound on the bytes of float64 arrays a run of the resolved ``cfg`` holds at once.

    Every run keeps the ``n_dim``-square autocorrelation and seven trace
    columns of one entry per block.  While streaming it also holds one
    block (a deconv2d block is copied out of the image; the other streams'
    blocks are views), and vectors of ``n_dim`` entries: the regularizer's
    operator and shift, the engine state's stacks of vectors over their
    autocorrelation and operator images (the old state's and the new
    one), and the penalty residuals, weights and operator products of the
    step, counted as 64 per coordinate (``tracemalloc`` measures at most
    59 with tv2d, two operator rows per coordinate, interpreter
    allocations included).  A full-space step holds up to two more
    squares at once, so three are counted for it: ``A(h)``, then either
    the scaled autocorrelation it adds, the Cholesky factor, or the
    eigenvectors when the factorization is rejected; nothing of that size
    outlives the step.  The traced peaks are 3.25 squares in all at 441
    dimensions with tv2d (Cholesky) and 3.11 at 384 without blocks (the
    eigendecomposition, whose LAPACK workspace numpy allocates outside
    its arrays and ``tracemalloc`` does not see).
    For its stream this counts, for
    deconv2d, three image-sized arrays and the zero-padded image, at least
    what generation holds at once (a blur pass's input, output and pair
    buffer; then the scene, the observations and the padded copy, the two
    that the run keeps).  For adaptive it counts the signal, its
    zero-padded copy and the observations; for synthetic, the row matrix
    and the observations.  Patch and tap-delay rows are cut a chunk or a
    block at a time, and the noise is drawn a chunk at a time, so none of
    these is held whole.
    """
    if cfg.experiment == "deconv2d":
        rows = cfg.image_size**2
        stream = 3 * rows + (cfg.image_size + cfg.kernel_size - 1) ** 2
    elif cfg.experiment == "adaptive":
        rows = cfg.n_samples
        stream = 3 * rows + cfg.n_dim - 1
    else:
        rows = cfg.n_samples
        stream = (cfg.n_dim + 1) * rows
    squares = 3 if cfg.strategy == "full-space" else 1
    step = cfg.n_dim * (cfg.block_size + 64 + squares * cfg.n_dim)
    return 8 * (stream + step + 7 * (rows // cfg.block_size))


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
    rows, cols = _coerce_dim(kernel_rows, "kernel_rows"), _coerce_dim(kernel_cols, "kernel_cols")
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
    return Regularizer(n, op, spec, 2, quad=tau)


def identity_blocks_regularizer(n_dim, spec: PenaltySpec, tau=0.0):
    """One scalar penalty block per coordinate: ``sum_s psi(|h_s|)``.

    The block operator is the identity, passed as the scalar 1 so that no
    matrix is built.
    """
    return Regularizer(n_dim, 1.0, spec, quad=tau)


# --- baseline and metrics -----------------------------------------------------


class SGDStepper:
    """Decreasing-step gradient baseline with :class:`MMEngine`'s ``step``, ``h`` and ``moments``.

    Block ``k`` steps along the gradient of its own penalized residual
    ``1/2 ||y - X' h||^2 + Psi(h)`` by ``scale / sqrt(k)``.  Its reports
    carry the pre-step objective and gradient norm from the engine's own
    pre-step evaluation, fed ``autocorr @ h`` by one product with the
    stored triangle (:func:`mmls.moments.autocorr_matvec`); that one
    penalty pass also gives the step's ``grad Psi(h)``.  The MM-only fields
    ``step_quadratic``, ``subspace_dim`` and ``rank`` are 0.  A step
    raises :class:`DivergenceError` under the engine's test, an iterate
    norm above ``DIVERGENCE_NORM`` or not finite, and keeps the previous
    iterate.
    """

    def __init__(self, reg: Regularizer, scale: float, forgetting: float = 1.0):
        if not 0.0 < scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.reg = reg
        self.scale = scale
        self.moments = MomentState.zeros(reg.n_dim, forgetting)
        self.h = np.zeros(reg.n_dim)

    def step(self, X, y) -> IterationReport:
        sample = Sample(X, y)
        stats = moments_mod.update(self.moments, sample)
        k = stats.count
        autocorr_h = moments_mod.autocorr_matvec(stats, self.h)
        _, reg_grad, _, grad_sq, objective = _pre_step(stats, self.reg, self.h, autocorr_h)
        g = sample.X @ (sample.X.T @ self.h - sample.y) + reg_grad
        h = self.h - (self.scale / np.sqrt(k)) * g
        # the engine's test, by the same warning-free BLAS ddot: false for a NaN entry too
        if not math.sqrt(ddot(h, h)) <= DIVERGENCE_NORM:
            raise DivergenceError(k, f"sgd iterate diverged at step {k}")
        self.h = h
        return IterationReport(objective, math.sqrt(grad_sq), step_quadratic=0.0, subspace_dim=0, rank=0)


def nrmse(estimate, truth) -> float:
    """Normalized error ``||estimate - truth|| / ||truth||``."""
    # 1-D float64 arrays are used as they are, the truth only if contiguous
    # (as ``np.linalg.norm`` makes it), so that the dot sums in its order
    if not (type(estimate) is np.ndarray and estimate.dtype == np.float64 and estimate.ndim == 1):
        estimate = np.asarray(estimate, dtype=float).reshape(-1)
    if not (type(truth) is np.ndarray and truth.dtype == np.float64 and truth.ndim == 1
            and truth.flags.c_contiguous):
        truth = np.asarray(truth, dtype=float).ravel()
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have equal length")
    scale = math.sqrt(truth.dot(truth))
    if scale == 0.0:
        raise ValueError("truth has zero norm")
    error = estimate - truth
    return math.sqrt(error.dot(error)) / scale


# --- trace -------------------------------------------------------------------


@dataclass
class RunTrace:
    """Per-iteration log of a run plus the final iterate.

    ``objective`` and ``grad_norm`` are evaluated at the pre-step iterate
    under the statistics including block ``n``; ``nrmse`` measures the
    post-step iterate against the truth in effect at block ``n``.
    ``step_quadratic``, ``subspace_dim`` and ``rank`` are each step's
    :class:`~mmls.engine.IterationReport` fields (0 for the SGD baseline).
    ``moments`` and ``regularizer`` are the final statistics and the
    penalty behind ``final_objective`` and ``final_grad_norm``, ``truth``
    the vector behind ``final_nrmse``.
    """

    n: np.ndarray
    objective: np.ndarray
    grad_norm: np.ndarray
    nrmse: np.ndarray
    wall_time: np.ndarray
    step_quadratic: np.ndarray
    subspace_dim: np.ndarray
    rank: np.ndarray
    h_final: np.ndarray
    final_objective: float
    final_nrmse: float
    moments: MomentState | None = None
    truth: np.ndarray | None = None
    regularizer: Regularizer | None = None

    def __len__(self) -> int:
        return self.n.shape[0]

    @functools.cached_property
    def final_grad_norm(self) -> float:
        """Norm of the direct gradient at ``h_final`` under the final statistics.

        Evaluated on first read and kept, so a run pays for it once, and
        only when its summary is asked for.
        """
        return float(np.linalg.norm(moments_mod.gradient(self.moments, self.regularizer, self.h_final)))

    def write_csv(self, path) -> None:
        table = np.column_stack(
            [self.n, self.objective, self.grad_norm, self.nrmse,
             self.nrmse**2, self.wall_time, self.step_quadratic, self.subspace_dim, self.rank]
        )
        np.savetxt(
            path, table, delimiter=",", fmt="%.17g", header=",".join(TRACE_COLUMNS), comments=""
        )

    def summary(self) -> dict:
        return {
            "iterations": int(len(self)),
            "final_nrmse": float(self.final_nrmse),
            "final_objective": float(self.final_objective),
            "final_grad_norm": self.final_grad_norm,
            "wall_time_s": float(self.wall_time[-1]) if len(self) else 0.0,
        }


def _write_meta(path, config: ExperimentConfig, trace: RunTrace) -> None:
    payload = {"config": dataclasses.asdict(config), "summary": trace.summary()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def meta_path(csv_path: str) -> str:
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"


def _check_writable(path: str) -> None:
    """Raise :class:`ConfigError` unless ``path`` opens for writing.

    The probe opens the file (through any symlink) for appending, so an
    existing file keeps its contents, and removes it again if it made it.
    """
    target = os.path.realpath(path)
    existed = os.path.exists(target)
    try:
        with open(target, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"out path {path!r} cannot be opened for writing: {exc.strerror}") from exc
    if not existed:
        os.remove(target)


# --- runner -------------------------------------------------------------------


def _build_problem(cfg: ExperimentConfig):
    """Instantiate (truth lookup, stream, regularizer) for a config.

    The regularizer is built first: it draws no random numbers, and a
    config it rejects is reported before any stream is generated.
    """
    reg = _regularizer_for(cfg)
    if cfg.experiment == "deconv2d":
        kernel, stream = gen_deconv2d(
            cfg.seed, image_size=cfg.image_size, kernel_size=cfg.kernel_size,
            sigma=cfg.noise_sigma,
        )
        truth = kernel.ravel()
        truth_at = lambda n: truth
    elif cfg.experiment == "adaptive":
        truth, stream = gen_adaptive(
            cfg.seed, n_taps=cfg.n_dim, n_samples=cfg.n_samples,
            noise_var=cfg.noise_sigma**2, change_point=cfg.change_point,
        )
        truth_at = truth.at
    else:
        truth, stream = gen_synthetic(
            cfg.seed, n_dim=cfg.n_dim, n_rows=cfg.n_samples, sigma=cfg.noise_sigma
        )
        truth_at = lambda n: truth
    return truth_at, stream, reg


def _regularizer_for(cfg: ExperimentConfig):
    if cfg.operator == "tv2d":
        if cfg.experiment != "deconv2d":
            raise ConfigError("operator 'tv2d' requires a 2-D coefficient grid")
        if cfg.penalty != "l2lkappa-power" or cfg.kappa != 1.0:
            raise ConfigError("operator 'tv2d' takes only penalty 'l2lkappa-power' with kappa 1")
        size = cfg.kernel_size
        return build_isotropic_tv_regularizer(size, size, cfg.lam, cfg.delta, tau=cfg.tau)
    if cfg.operator == "identity":
        if cfg.penalty in (None, "none"):
            raise ConfigError("operator 'identity' requires a penalty kind")
        spec = PenaltySpec(cfg.penalty, lam=cfg.lam, delta=cfg.delta, kappa=cfg.kappa)
        return identity_blocks_regularizer(cfg.n_dim, spec, tau=cfg.tau)
    if cfg.operator == "none":
        return Regularizer(cfg.n_dim, quad=cfg.tau)
    raise ConfigError(f"unknown operator {cfg.operator!r}; expected tv2d, identity or none")


def run_experiment(config: ExperimentConfig, measure_time: bool = True) -> RunTrace:
    """Stream the configured experiment and return its trace.

    With ``measure_time=False`` the wall-time column is all zeros and the
    CSV output of two identical runs is bit-identical.  If ``config.out``
    is set, writes the CSV trace and a JSON sidecar next to it; either
    path failing to open for writing is rejected before the stream starts,
    and neither file is touched unless the run completes.
    """
    cfg = resolve_config(config)
    if cfg.out:
        for path in (cfg.out, meta_path(cfg.out)):
            _check_writable(path)
    try:
        truth_at, stream, reg = _build_problem(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    q = cfg.block_size
    total = stream.n_blocks(q)
    if total < 1:
        raise ConfigError("stream shorter than one block")

    objective = np.zeros(total)
    grad_norm = np.zeros(total)
    errors = np.zeros(total)
    wall = np.zeros(total)
    step_quadratic = np.zeros(total)
    subspace_dim = np.zeros(total, dtype=int)
    rank = np.zeros(total, dtype=int)
    clock = time.perf_counter if measure_time else None
    started = clock() if clock else 0.0
    if cfg.strategy == "sgd":
        stepper = SGDStepper(reg, cfg.sgd_scale, forgetting=cfg.vartheta)
    else:
        stepper = MMEngine(reg, strategy=cfg.strategy, forgetting=cfg.vartheta)
    for i in range(total):
        # block i is cut only after block i - 1 is dropped
        sample = stream.block(i, q)
        report = stepper.step(sample.X, sample.y)
        del sample
        objective[i] = report.objective
        grad_norm[i] = report.grad_norm
        step_quadratic[i] = report.step_quadratic
        subspace_dim[i] = report.subspace_dim
        rank[i] = report.rank
        errors[i] = nrmse(stepper.h, truth_at((i + 1) * q))
        if clock:
            wall[i] = clock() - started

    trace = RunTrace(
        n=np.arange(1, total + 1),
        objective=objective,
        grad_norm=grad_norm,
        nrmse=errors,
        wall_time=wall,
        step_quadratic=step_quadratic,
        subspace_dim=subspace_dim,
        rank=rank,
        h_final=stepper.h,
        final_objective=moments_mod.objective(stepper.moments, reg, stepper.h),
        final_nrmse=float(errors[-1]),
        moments=stepper.moments,
        truth=truth_at(total * q),
        regularizer=reg,
    )
    if cfg.out:
        trace.write_csv(cfg.out)
        _write_meta(meta_path(cfg.out), cfg, trace)
    return trace
