"""Online penalized least-squares estimation via stochastic
majorize-minimize subspace iterations.

The solver streams regression blocks, maintains exponentially weighted
second-order statistics, and minimizes a half-quadratic surrogate of the
penalized objective over a small search subspace at every step.  Batch
reference solvers, data generators and an experiment harness round out
the package.
"""

from .datasets import (
    ArrayStream,
    gen_adaptive,
    gen_deconv2d,
    gen_synthetic,
    read_records,
    write_records,
)
from .engine import (
    DivergenceError,
    EngineState,
    IterationReport,
    MMEngine,
    SubspaceStrategy,
    build_subspace,
    majorant_value,
    reduced_matrix,
    reduced_solve,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    RunTrace,
    build_isotropic_tv_regularizer,
    build_sparsity_regularizer,
    identity_blocks_regularizer,
    instantaneous_gradient,
    nrmse,
    run_experiment,
    sgd_step,
)
from .moments import MomentState, Sample
from .oracle import (
    BatchSolution,
    HalfQuadraticError,
    batch_half_quadratic,
    quadratic_closed_form,
    subspace_mm_path,
)
from .penalties import PENALTY_KINDS, PenaltySpec, Regularizer

__version__ = "0.1.0"

__all__ = [
    "ArrayStream",
    "BatchSolution",
    "ConfigError",
    "DivergenceError",
    "EngineState",
    "ExperimentConfig",
    "HalfQuadraticError",
    "IterationReport",
    "MMEngine",
    "MomentState",
    "PENALTY_KINDS",
    "PenaltySpec",
    "Regularizer",
    "RunTrace",
    "Sample",
    "SubspaceStrategy",
    "batch_half_quadratic",
    "build_isotropic_tv_regularizer",
    "build_sparsity_regularizer",
    "build_subspace",
    "gen_adaptive",
    "gen_deconv2d",
    "gen_synthetic",
    "identity_blocks_regularizer",
    "instantaneous_gradient",
    "majorant_value",
    "nrmse",
    "quadratic_closed_form",
    "read_records",
    "reduced_matrix",
    "reduced_solve",
    "run_experiment",
    "sgd_step",
    "subspace_mm_path",
    "write_records",
]
