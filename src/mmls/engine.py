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
products because the one dense piece of the curvature, the N x N
autocorrelation, reaches the iterates only through a recursion: the state
carries ``images = autocorr @ [h, h_prev]``, and each block is folded into
them by the same forgetting recursion as the statistics.  Column 0 gives
the gradient ``autocorr h - cross + grad Psi(h)``; with column 1 and one
product for the fresh gradient column, the column recipe that builds the
basis (:func:`build_subspace`) builds ``autocorr @ basis`` in the same
call, from each vector stacked on its image.  The state keeps the
iterates stacked on their images for that reason, and the step writes
the next state into a copy of that stack.

Full space minimizes the same surrogate over all of R^N, so it has no
basis: it forms ``A(h)`` once as a new dense matrix, the regularizer's
part from :meth:`Regularizer.curvature` with ``basis=None`` and the
autocorrelation read from the statistics (never written), solves
``A(h) u = -grad`` and steps to ``h + u``, whose image is one product with
the stored triangle (:func:`mmls.moments.autocorr_matvec`).  No N x N
array outlives the step.

The regularizer's share of the step is not recursive: its penalty
operator ``op`` and quadratic matrix are structured
:class:`mmls.penalties.Operator` instances whose products cost O(nnz)
per column.  One :meth:`Regularizer.evaluate` pass gives the penalty
weights, ``Psi(h)`` and ``grad Psi(h)``, and
:meth:`Regularizer.curvature` gives ``basis' (quad + op' W op) basis``;
both leave out the terms that are identically zero or the identity, so
the step pays only for the terms the regularizer has and never reads an
operator's storage form.

The reduced system, whose right side ``-basis' grad`` is the basis'
product with its own column 0, and full space's ``A(h) u = -grad`` are
factored (Cholesky) and solved by one LAPACK ``dposv`` call.  The
solution is kept when LAPACK's estimate of the reciprocal condition
number, from the same factor, exceeds 1e-8, the usual case.  Otherwise
-- the factorization fails, or the system is nearly singular -- a
symmetric eigendecomposition pseudo-inverse gives the minimum-norm step
``u`` (eigenvalues below 1e-12 of the largest are treated as zero), so
rank-deficient subspaces -- a zero gradient column, a zero step, the
zero initial iterate -- need no special casing.  The gate sits far above
that cutoff, so both paths report the same rank.
One dot product gives the gradient norm and its screen for non-finite
entries.  The step's vector and small-matrix products go through
``ndarray.dot``, which costs less per call than ``@``.  No array of an
old state is written.

This module is only that recursive path: the dense references it is
tested against, in :mod:`mmls.moments` and :mod:`mmls.oracle`, share
none of its code.  The SGD baseline (:class:`mmls.experiments.SGDStepper`)
shares its pre-step evaluation, fed ``autocorr @ h`` by a direct product.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from . import moments
from .moments import MomentState, Sample
from .penalties import Regularizer, _coerce_vector

__all__ = [
    "SubspaceStrategy",
    "EngineState",
    "IterationReport",
    "MMEngine",
    "DivergenceError",
    "build_subspace",
    "reduced_matrix",
]

RANK_CUTOFF = 1e-12
# reciprocal condition estimate above which the Cholesky solve is used
CHOLESKY_RCOND = 1e-8
DIVERGENCE_NORM = 1e12
_ANCHOR = np.array([0.0, 1.0, 0.0])  # coordinates of h in a low-dimensional basis
_ANCHOR.flags.writeable = False


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


@dataclass(slots=True)
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


@dataclass(slots=True)
class EngineState:
    """Iterate, previous iterate, gradient and their one recursive cache.

    After a step, ``h`` is the new iterate, ``h_prev`` the previous one
    and ``grad`` the gradient at ``h_prev`` under the latest statistics;
    ``images`` is the ``(N, 2)`` array ``autocorr @ [h, h_prev]`` under
    those statistics, which the next step folds its block into.  The step
    count is the statistics' ``count``.

    ``h``, ``h_prev`` and ``images`` are views of one C-ordered
    ``(2, 2, N)`` array, ``stack``: ``stack[0]`` is ``[h, h_prev]`` and
    ``stack[1]`` their images, so ``stack[:, 0]`` is ``h`` on its image.
    """

    stack: np.ndarray
    grad: np.ndarray

    @property
    def h(self) -> np.ndarray:
        return self.stack[0, 0]

    @property
    def h_prev(self) -> np.ndarray:
        return self.stack[0, 1]

    @property
    def images(self) -> np.ndarray:
        return self.stack[1].T

    @classmethod
    def initial(cls, reg: Regularizer, h1=None) -> "EngineState":
        """State before any block: the start ``h`` (zero by default) twice, and zero images."""
        n = reg.n_dim
        stack = np.zeros((2, 2, n))
        stack[0] = _coerce_vector(h1, n, "h1", finite=True)
        return cls(stack=stack, grad=np.zeros(n))


def build_subspace(strategy, grad, h, h_prev, step) -> np.ndarray:
    """Assemble the basis for iteration ``step`` (columns in fixed order).

    Memory gradient uses ``[-grad, h, h - h_prev]`` (two columns at the
    first step) and gradient-only ``[-grad, h]``, always as a new
    Fortran-ordered array, each column contiguous.  Degenerate columns
    are kept; the pseudo-inverse absorbs them.  Full space has no basis
    (its step solves the surrogate's normal equations) and raises
    ``ValueError``.

    Both recipes are linear in ``(grad, h, h_prev)``, so one call also
    builds an image of the basis: given stacks of shape
    ``(m, N)`` -- ``[grad, M @ grad]``, ``[h, M @ h]`` and
    ``[h_prev, M @ h_prev]`` -- it returns ``(m, N, dim)`` with the basis
    at ``[0]`` and ``M @ basis`` at ``[1]``, each Fortran-ordered.
    """
    if type(strategy) is not SubspaceStrategy:
        strategy = SubspaceStrategy(strategy)
    if strategy is SubspaceStrategy.FULL_SPACE:
        raise ValueError("full space has no basis: its step solves the normal equations")
    memory = strategy is SubspaceStrategy.MEMORY_GRADIENT and step > 1
    # rows of ``columns`` are the columns of the basis (of each stacked member)
    columns = np.empty(h.shape[:-1] + (3 if memory else 2, h.shape[-1]))
    by_column = columns.swapaxes(0, -2)
    np.negative(grad, out=by_column[0])
    by_column[1] = h
    if memory:
        np.subtract(h, h_prev, out=by_column[2])
    return columns.swapaxes(-1, -2)


def reduced_matrix(basis, autocorr_basis, curvature) -> np.ndarray:
    """Reduced surrogate curvature ``basis' A(h) basis``, exactly symmetric.

    The autocorrelation part is ``basis' autocorr_basis``, from the
    recursive cache; ``curvature`` is the regularizer's part
    ``basis' (quad + op' W op) basis`` (:meth:`Regularizer.curvature`).
    """
    mat = basis.T.dot(autocorr_basis) + curvature
    return 0.5 * (mat + mat.T)


def _pinv_psd_solve(mat, rhs):
    """Minimum-norm solution of ``mat @ u = rhs``, ``mat`` symmetric PSD; returns (u, rank).

    One ``dposv`` call factors ``mat`` (Cholesky) and solves the system;
    its solution is kept (rank ``dim``) when ``dpocon``, on the same
    factor, estimates the reciprocal condition number above
    :data:`CHOLESKY_RCOND`.  Otherwise, and when the factorization fails,
    the eigendecomposition pseudo-inverse drops eigenvalues below
    :data:`RANK_CUTOFF` of the largest.  A non-finite ``mat`` gives a NaN
    solution, which the engine's divergence guard rejects.
    """
    factor, sol, info = lapack.dposv(mat, rhs, lower=1)
    if info == 0:
        # dlange sums column j of ``mat.T`` (no copy for a C-ordered ``mat``) in
        # the order ``np.abs(mat).sum(axis=0)`` sums column j of the symmetric ``mat``
        rcond, info = lapack.dpocon(factor, lapack.dlange("1", mat.T), uplo="L")
        if info == 0 and rcond > CHOLESKY_RCOND:
            return sol, rhs.shape[0]
    del factor  # an N x N array in full space, not needed by the eigendecomposition
    if not np.isfinite(mat).all():
        return np.full_like(rhs, np.nan), 0
    vals, vecs = np.linalg.eigh(mat)
    top = float(vals[-1]) if vals.size else 0.0
    if top <= 0.0:
        return np.zeros_like(rhs), 0
    keep = vals > RANK_CUTOFF * top
    sub = vecs[:, keep]
    sol = sub @ ((sub.T @ rhs) / vals[keep])
    return sol, int(np.count_nonzero(keep))


def _pre_step(stats: MomentState, reg: Regularizer, h, autocorr_h):
    """The pre-step evaluation both steppers report and step from, in one penalty pass.

    Given ``autocorr_h = autocorr @ h`` under ``stats``, returns the
    penalty weights, ``grad Psi(h)``, ``grad F(h)``, ``||grad F(h)||^2``
    and ``F(h)``.  Non-finite entries pass through unscreened.
    """
    weights, reg_value, reg_grad = reg.evaluate(h)
    grad = autocorr_h - stats.cross + reg_grad
    grad_sq = float(grad.dot(grad))
    data = 0.5 * stats.power - float(stats.cross.dot(h)) + 0.5 * float(h.dot(autocorr_h))
    return weights, reg_grad, grad, grad_sq, data + reg_value


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
        :func:`mmls.moments.update`), evaluates the objective and gradient
        at ``h`` from the carried images and one regularizer pass
        (:func:`_pre_step`, which the SGD baseline shares), builds the
        basis and its image in one :func:`build_subspace` call, adds the
        regularizer's curvature on the basis, and solves the reduced
        system for the step; full space solves ``A(h) u = -grad``
        directly.  A gradient that vanishes exactly gives a zero step
        (``rank = 0``), so stationary points are fixed points bit for bit.

        If the step at block ``k`` raises :class:`DivergenceError`,
        ``moments`` already includes block ``k`` (``moments.count == k``)
        while ``state`` is still the object held after block ``k - 1``;
        the engine should be discarded then.
        """
        state, reg, strategy = self.state, self.reg, self.strategy
        sample = Sample(X, y)
        stats = moments.update(self.moments, sample)
        X = sample.X
        step = stats.count
        inv_w = 1.0 / stats.weight_total

        # the block folds into the images of h and h_prev as into the statistics,
        # (1 - 1/w) images + (1/w) X X' [h, h_prev], by one gemm in place on a
        # copy of the old stack; the copy becomes the next state's
        stack = state.stack.copy()
        Xt_hs = X.T.dot(stack[0].T)
        blas.dgemm(inv_w, X, Xt_hs, beta=1.0 - inv_w, c=stack[1].T, overwrite_c=1)

        weights, _, grad, grad_sq, objective = _pre_step(stats, reg, stack[0, 0], stack[1, 0])
        if not grad_sq < math.inf and not np.isfinite(grad).all():
            raise DivergenceError(step, f"non-finite gradient at iteration {step}")

        if strategy is SubspaceStrategy.FULL_SPACE:
            # no basis (None stands for the identity): A(h) itself as a new
            # matrix; the statistics' array is read, never written
            basis, reduced = None, reg.curvature(None, weights)
            reduced += stats.autocorr
        else:
            # the recipe is linear: on each vector stacked on its image it builds
            # the basis and autocorr @ basis together
            grads = np.array((grad, moments.autocorr_matvec(stats, grad)))
            basis, autocorr_basis = build_subspace(strategy, grads, stack[:, 0], stack[:, 1], step)
            reduced = reduced_matrix(basis, autocorr_basis, reg.curvature(basis, weights))

        # the sum of squares can underflow to 0 on a nonzero gradient
        if grad_sq > 0.0 or grad.any():
            # column 0 of a low-dimensional basis is -grad, so its product is
            # -basis' grad bit for bit
            rhs = -grad if basis is None else basis.T.dot(basis[:, 0])
            shifted, rank = _pinv_psd_solve(reduced, rhs)
        else:
            shifted, rank = np.zeros(reduced.shape[0]), 0
        # h and its image move to the h_prev slots, and h_next and its image fill h's
        stack[:, 1] = stack[:, 0]
        if basis is None:
            h_next = np.add(stack[0, 1], shifted, out=stack[0, 0])
            stack[1, 0] = moments.autocorr_matvec(stats, h_next)
        else:
            coords = _ANCHOR[: basis.shape[1]] + shifted
            h_next = basis.dot(coords, out=stack[0, 0])
            autocorr_basis.dot(coords, out=stack[1, 0])
        # false for a NaN entry too; an infinite one makes the norm infinite
        if not math.sqrt(float(h_next.dot(h_next))) <= DIVERGENCE_NORM:
            raise DivergenceError(step)
        step_quadratic = float(shifted.dot(reduced.dot(shifted)))
        self.state = EngineState(stack=stack, grad=grad)
        return IterationReport(objective, math.sqrt(grad_sq), step_quadratic,
                               reduced.shape[0], rank)
