"""Batch reference solvers used as ground truth in tests and experiments.

These run on frozen statistics and never share code with the streaming
engine's recursive path, so agreement between the two is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import moments
from .engine import SubspaceStrategy
from .moments import MomentState
from .penalties import Regularizer

__all__ = [
    "BatchSolution",
    "HalfQuadraticError",
    "batch_half_quadratic",
    "quadratic_closed_form",
    "subspace_mm_path",
]


@dataclass
class BatchSolution:
    h_star: np.ndarray
    objective: float
    grad_norm: float
    iterations: int


class HalfQuadraticError(RuntimeError):
    """Iteration budget exhausted; ``solution`` holds the last iterate."""

    def __init__(self, solution: BatchSolution, tol: float):
        self.solution = solution
        super().__init__(
            f"half-quadratic solver stopped at gradient norm {solution.grad_norm:.3e} "
            f"after {solution.iterations} iterations (tol {tol:.1e})"
        )


def _require_positive_definite(state: MomentState, reg: Regularizer) -> None:
    base = state.autocorr + reg.quad.toarray()
    if float(np.linalg.eigvalsh(base).min()) <= 0.0:
        raise ValueError("autocorr + quad must be positive definite for a batch solve")


def batch_half_quadratic(state, reg, h0=None, tol=1e-10, max_iter=500) -> BatchSolution:
    """Minimize the frozen objective by full-space reweighted solves.

    Repeats ``h <- A(h)^-1 c(h)`` until the gradient norm drops below
    ``tol``.  Requires ``autocorr + quad`` positive definite; for convex
    potentials the returned point is the unique minimizer, otherwise it
    is a critical point reached from ``h0``.

    Raises
    ------
    ValueError
        If the positive-definiteness precondition fails.
    HalfQuadraticError
        If ``max_iter`` solves do not reach ``tol``; the exception
        carries the last iterate.
    """
    _require_positive_definite(state, reg)
    h = np.zeros(state.n_dim) if h0 is None else np.asarray(h0, dtype=float).reshape(-1).copy()
    grad_norm = float(np.linalg.norm(moments.gradient(state, reg, h)))
    iterations = 0
    while grad_norm > tol and iterations < max_iter:
        curv = moments.normal_matrix(state, reg, h)
        rhs = moments.normal_rhs(state, reg, h)
        h = scipy.linalg.solve(curv, rhs, assume_a="pos")
        grad_norm = float(np.linalg.norm(moments.gradient(state, reg, h)))
        iterations += 1
    solution = BatchSolution(
        h_star=h,
        objective=moments.objective(state, reg, h),
        grad_norm=grad_norm,
        iterations=iterations,
    )
    if grad_norm > tol:
        raise HalfQuadraticError(solution, tol)
    return solution


def quadratic_closed_form(state, quad=None, lin=None) -> np.ndarray:
    """Solve ``(autocorr + quad) h = cross + lin`` by a dense symmetric solve.

    The special case with no penalty blocks: the exponentially weighted
    regularized least-squares estimate.
    """
    n = state.n_dim
    if quad is None:
        quad = np.zeros((n, n))
    elif np.isscalar(quad):
        quad = float(quad) * np.eye(n)
    lin = np.zeros(n) if lin is None else np.asarray(lin, dtype=float).reshape(-1)
    mat = state.autocorr + np.asarray(quad, dtype=float)
    return scipy.linalg.solve(mat, state.cross + lin, assume_a="sym")


def subspace_mm_path(state, reg, h0, strategy=SubspaceStrategy.MEMORY_GRADIENT,
                     n_steps=25) -> list[np.ndarray]:
    """Subspace-restricted surrogate descent on frozen statistics.

    Direct (non-recursive) evaluation of the step rule the engine applies
    online, with its own basis and a ``pinvh`` solve of the normal
    equations; returns the iterates ``[h0, h1, ..., h_{n_steps}]``.
    """
    strategy = SubspaceStrategy(strategy)
    h = np.asarray(h0, dtype=float).reshape(-1).copy()
    h_prev = h.copy()
    path = [h.copy()]
    for step in range(1, n_steps + 1):
        grad = moments.gradient(state, reg, h)
        if strategy is SubspaceStrategy.FULL_SPACE:
            basis = np.eye(h.shape[0])
        elif strategy is SubspaceStrategy.MEMORY_GRADIENT and step > 1:
            basis = np.column_stack([-grad, h, h - h_prev])
        else:
            basis = np.column_stack([-grad, h])
        curv = moments.normal_matrix(state, reg, h)
        rhs = moments.normal_rhs(state, reg, h)
        reduced = basis.T @ (curv @ basis)
        coords = scipy.linalg.pinvh(reduced, rtol=1e-12) @ (basis.T @ rhs)
        h_prev, h = h, basis @ coords
        path.append(h.copy())
    return path
