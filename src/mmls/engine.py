"""Stochastic majorize-minimize subspace iteration.

Each incoming block updates the running statistics and then minimizes the
quadratic surrogate of the streamed objective over a small subspace that
contains the current iterate.  The iterate has coordinates ``anchor`` in
the new basis (``basis @ anchor == h``), and the step is taken straight
from the gradient:

    h_next = basis @ (anchor + u),   u = -pinv(B) @ basis' grad(h),
    B = basis' A(h) basis,

where ``A(h)`` is the surrogate curvature at ``h`` (see :mod:`mmls.moments`).
The memory-gradient subspace spans the negative gradient, the current
iterate, and the last step; gradient-only is the same subspace without the
step column.  For both the per-step cost stays at a few matrix-vector
products because every product of the basis with the curvature pieces is
carried recursively:

* the gradient ``autocorr h + quad h + op' W (op h - shift) - cross - lin``
  is assembled from the images of ``h`` under the three curvature pieces,
  folding the new block into the cached ``autocorr @ basis_prev`` product
  instead of touching the dense autocorrelation matrix;
* images of the iterate columns under ``op``, the quadratic matrix and the
  autocorrelation transfer from one iteration to the next, so only the
  fresh gradient column requires full products; the images are assembled
  by the same column recipe as the basis (:func:`build_subspace`).

The reduced system is solved by a symmetric eigendecomposition
pseudo-inverse (minimum-norm step ``u``; eigenvalues below 1e-12 of the
largest are treated as zero), so rank-deficient subspaces -- a zero
gradient column, a zero step, the zero initial iterate -- need no special
casing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import moments
from .moments import MomentState, Sample
from .penalties import Regularizer

__all__ = [
    "SubspaceStrategy",
    "EngineState",
    "IterationReport",
    "MMEngine",
    "DivergenceError",
    "build_subspace",
    "reduced_matrix",
    "reduced_solve",
    "majorant_value",
]

RANK_CUTOFF = 1e-12
DIVERGENCE_NORM = 1e12


class SubspaceStrategy(str, enum.Enum):
    """Search-subspace choices for the per-step surrogate minimization."""

    GRADIENT_ONLY = "gradient-only"
    MEMORY_GRADIENT = "memory-gradient"
    FULL_SPACE = "full-space"


class DivergenceError(RuntimeError):
    """Iterate grew unbounded or non-finite; carries the iteration index."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"divergence detected at iteration {iteration}")


@dataclass
class IterationReport:
    """Per-step diagnostics.

    ``objective`` and ``grad_norm`` refer to the iterate *before* the
    step, evaluated under the statistics that include the new block.
    ``step_quadratic`` is the squared step length in the surrogate
    metric, the quantity whose half is guaranteed not to exceed the
    objective decrease.
    """

    objective: float
    grad_norm: float
    step_quadratic: float
    subspace_dim: int
    rank: int


@dataclass
class EngineState:
    """Iterate, subspace basis and the recursive caches.

    After ``step`` iterations: ``h`` is the new iterate (in the range of
    ``basis``, with coordinates ``coords``), ``h_prev`` the previous one,
    ``grad`` the gradient at ``h_prev`` under the latest statistics.  The
    three basis caches hold ``autocorr @ basis``, ``quad @ basis`` and
    ``op @ basis``; in the low-dimensional subspaces column 1 of each
    is the image of ``h_prev`` and seeds the next step column.
    """

    step: int
    h: np.ndarray
    h_prev: np.ndarray
    coords: np.ndarray
    basis: np.ndarray
    autocorr_basis: np.ndarray
    quad_basis: np.ndarray
    op_basis: np.ndarray
    grad: np.ndarray

    @classmethod
    def initial(cls, reg: Regularizer, h1=None) -> "EngineState":
        """State before any block.

        The start ``h`` (zero by default) is encoded as the basis
        ``[0, h]`` with coordinates ``[0, 1]``, so column 1 holds the
        image of ``h_prev`` from the first step on and the first gradient
        reconstruction is exact.
        """
        n = reg.n_dim
        h = np.zeros(n) if h1 is None else np.asarray(h1, dtype=float).reshape(-1).copy()
        if h.shape[0] != n:
            raise ValueError(f"h1 must have length {n}")
        if not np.all(np.isfinite(h)):
            raise ValueError("h1 must be finite")
        basis = np.column_stack([np.zeros(n), h])
        return cls(
            step=0,
            h=h,
            h_prev=h.copy(),
            coords=np.array([0.0, 1.0]),
            basis=basis,
            autocorr_basis=np.zeros((n, 2)),
            quad_basis=reg.quad @ basis,
            op_basis=reg.op @ basis,
            grad=np.zeros(n),
        )


def build_subspace(strategy, grad, h, h_prev, step) -> np.ndarray:
    """Assemble the basis for iteration ``step`` (columns in fixed order).

    Memory gradient uses ``[-grad, h, h - h_prev]`` (two columns at the
    first step), gradient-only ``[-grad, h]``, full space the identity.
    Degenerate columns are kept; the pseudo-inverse absorbs them.

    The low-dimensional recipes are linear in ``(grad, h, h_prev)``, so
    the engine also builds the cached images with it: passing
    ``M @ grad``, ``M @ h`` and ``M @ h_prev`` yields ``M @ basis``.
    """
    strategy = SubspaceStrategy(strategy)
    if strategy is SubspaceStrategy.FULL_SPACE:
        return np.eye(h.shape[0])
    if strategy is SubspaceStrategy.MEMORY_GRADIENT and step > 1:
        return np.column_stack([-grad, h, h - h_prev])
    return np.column_stack([-grad, h])


def reduced_matrix(basis, autocorr_basis, quad_basis, op_basis, weights) -> np.ndarray:
    """Reduced surrogate curvature ``basis' A(h) basis`` from the caches."""
    mat = basis.T @ (autocorr_basis + quad_basis) + op_basis.T @ (weights[:, None] * op_basis)
    return 0.5 * (mat + mat.T)


def reduced_solve(mat, rhs) -> np.ndarray:
    """Minimum-norm solution of the reduced system ``mat @ u = rhs``.

    ``mat`` must be symmetric positive semidefinite up to roundoff; a
    larger asymmetry indicates a cache bug upstream and raises.
    """
    mat = np.asarray(mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 1.0)
    if mat.size and float(np.abs(mat - mat.T).max()) > 1e-8 * scale:
        raise np.linalg.LinAlgError("reduced matrix is not symmetric: incoherent caches")
    sol, _ = _pinv_psd_solve(0.5 * (mat + mat.T), rhs)
    return sol


def _pinv_psd_solve(mat, rhs):
    """Eigendecomposition pseudo-inverse solve; returns (solution, rank)."""
    vals, vecs = np.linalg.eigh(mat)
    top = float(vals[-1]) if vals.size else 0.0
    if top <= 0.0:
        return np.zeros_like(rhs), 0
    keep = vals > RANK_CUTOFF * top
    sub = vecs[:, keep]
    sol = sub @ ((sub.T @ rhs) / vals[keep])
    return sol, int(np.count_nonzero(keep))


def majorant_value(state: MomentState, reg: Regularizer, anchor, h) -> float:
    """Quadratic surrogate of the objective anchored at ``anchor``.

    Equals the objective at the anchor and dominates it everywhere;
    diagnostic/test path only.
    """
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    diff = h - anchor
    grad = moments.gradient(state, reg, anchor)
    curv = moments.normal_matrix(state, reg, anchor)
    return (
        moments.objective(state, reg, anchor)
        + float(grad @ diff)
        + 0.5 * float(diff @ (curv @ diff))
    )


class MMEngine:
    """Single-owner driver pairing an :class:`EngineState` with statistics.

    Parameters
    ----------
    reg : Regularizer
    strategy : SubspaceStrategy or str
    forgetting : float
        Forgetting factor in (0, 1].
    h1 : array, optional
        Starting iterate (defaults to zero).
    """

    def __init__(self, reg: Regularizer, strategy=SubspaceStrategy.MEMORY_GRADIENT,
                 forgetting: float = 1.0, h1=None):
        self.reg = reg
        self.strategy = SubspaceStrategy(strategy)
        self.moments = MomentState.zeros(reg.n_dim, forgetting)
        self.state = EngineState.initial(reg, h1)

    @property
    def h(self) -> np.ndarray:
        return self.state.h

    def step(self, X, y) -> IterationReport:
        """Consume one block and return its report.

        Folds the block into the statistics in place (see
        :func:`mmls.moments.update`), reconstructs the gradient at ``h``
        from the carried images, builds the basis and its cached images
        with :func:`build_subspace`, and solves the reduced system for the
        step.  A gradient that vanishes exactly gives a zero step
        (``rank = 0``), so stationary points are fixed points bit for bit.

        If the step at block ``k`` raises :class:`DivergenceError`,
        ``moments`` already includes block ``k`` (``moments.count == k``)
        while ``state`` is still the one after block ``k - 1``
        (``state.step == k - 1``); the engine should be discarded then.
        """
        state, reg, strategy = self.state, self.reg, self.strategy
        sample = Sample(X, y)
        stats = moments.update(self.moments, sample)
        X = sample.X
        step = stats.count
        inv_w = 1.0 / stats.weight_total

        # images of the current iterate, carried forward recursively
        op_h = state.op_basis @ state.coords
        quad_h = state.quad_basis @ state.coords
        XtD = X.T @ state.basis
        Xt_h = XtD @ state.coords
        autocorr_h = (1.0 - inv_w) * (state.autocorr_basis @ state.coords) + inv_w * (X @ Xt_h)

        # weights, penalty block norms and gradient at the current h
        residual = op_h - reg.shift
        norms = reg.block_norms(residual)
        weights = reg.weights_from_norms(norms)
        grad = autocorr_h + quad_h - stats.cross - reg.lin + reg.op.T @ (weights * residual)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(step, f"non-finite gradient at iteration {step}")

        basis = build_subspace(strategy, grad, state.h, state.h_prev, step)

        if strategy is SubspaceStrategy.FULL_SPACE:
            # a copy: the next update overwrites ``stats.autocorr`` in place
            autocorr_basis = stats.autocorr.copy()
            quad_basis = reg.quad.toarray()
            op_basis = reg.op.toarray()
            anchor = state.h
        else:
            # the recipe is linear: applied to the images of grad, h and
            # h_prev (column 1 of the old basis) it gives M @ basis
            autocorr_h_prev = (1.0 - inv_w) * state.autocorr_basis[:, 1] + inv_w * (X @ XtD[:, 1])
            autocorr_basis = build_subspace(
                strategy, moments.autocorr_matvec(stats, grad), autocorr_h, autocorr_h_prev, step
            )
            quad_basis = build_subspace(strategy, reg.quad @ grad, quad_h, state.quad_basis[:, 1], step)
            op_basis = build_subspace(strategy, reg.op @ grad, op_h, state.op_basis[:, 1], step)
            anchor = np.eye(basis.shape[1])[1]

        reduced = reduced_matrix(basis, autocorr_basis, quad_basis, op_basis, weights)

        if np.any(grad):
            shifted, rank = _pinv_psd_solve(reduced, -(basis.T @ grad))
        else:
            shifted, rank = np.zeros(basis.shape[1]), 0
        coords = anchor + shifted
        h_next = basis @ coords
        if not np.all(np.isfinite(h_next)) or float(np.linalg.norm(h_next)) > DIVERGENCE_NORM:
            raise DivergenceError(step)
        step_quadratic = float(shifted @ (reduced @ shifted))

        objective = (
            0.5 * stats.power
            - float(stats.cross @ state.h)
            + 0.5 * float(state.h @ autocorr_h)
            + 0.5 * float(state.h @ quad_h)
            - float(reg.lin @ state.h)
            + reg.penalty_sum(norms)
        )
        self.state = EngineState(
            step=step,
            h=h_next,
            h_prev=state.h,
            coords=coords,
            basis=basis,
            autocorr_basis=autocorr_basis,
            quad_basis=quad_basis,
            op_basis=op_basis,
            grad=grad,
        )
        return IterationReport(
            objective=objective,
            grad_norm=float(np.linalg.norm(grad)),
            step_quadratic=step_quadratic,
            subspace_dim=basis.shape[1],
            rank=rank,
        )
