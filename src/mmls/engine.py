"""Stochastic majorize-minimize subspace iteration.

Each incoming block updates the running statistics and then minimizes the
quadratic surrogate of the streamed objective over a small subspace that
contains the current iterate ``h``.  The step is taken straight from the
gradient:

    d = basis @ u,   u = -pinv(B) @ basis' grad(h),   h_next = h + d,
    B = basis' A(h) basis,

where ``A(h)`` is the surrogate curvature at ``h`` (see :mod:`mmls.moments`).
The memory-gradient subspace spans the negative gradient, the current
iterate and the last step ``d``; gradient-only is the same subspace without
the step column.  For both the per-step cost stays at a few matrix-vector
products because the one dense piece of the curvature, the N x N
autocorrelation ``R``, reaches the iterates only through a recursion.

The state carries the subspace itself: one ``(2, 3, N)`` stack
``[[-g, h, d], [-R g, R h, R d]]``, so that the basis and its image are
the views ``stack[0, :dim].T`` and ``stack[1, :dim].T``
(:func:`build_subspace`).  Each block is folded into ``[R h, R d]`` by the
same forgetting recursion as the statistics, one ``dgemm``; ``R h`` gives
the gradient ``R h - cross + grad Psi(h)``; ``-g`` is written into its
slot and one ``dsymv`` writes ``-R g`` into its own.  The step ends with
``d = basis @ u`` and ``h_next = h + d``, and the same two lines for the
images.  For a penalty operator ``op`` in CSR form the state carries
``op @ [-g, h, d]`` the same way, a ``(3, M)`` array: the penalty pass
reads ``op @ h`` from it, the regularizer's curvature gets ``op @ basis``
as a view, and a step applies ``op`` once forward, to the new gradient,
and once transposed, in the penalty's gradient.

Full space minimizes the same surrogate over all of R^N, so it has no
basis: it forms ``A(h)`` once as a new dense matrix, the regularizer's
part from :meth:`Regularizer.curvature` with ``basis=None`` and the
autocorrelation read from the statistics (never written), solves
``A(h) u = -grad`` and steps to ``h + u``, whose image is one product with
the stored triangle (:func:`mmls.moments.autocorr_matvec`).  It carries no
operator images and leaves the gradient's image slot at zero.  No N x N
array outlives the step.

The regularizer's share of the step is not recursive apart from those
operator images: its penalty operator ``op`` and quadratic matrix are
structured :class:`mmls.penalties.Operator` instances whose products cost
O(nnz) per column.  One :meth:`Regularizer.evaluate` pass gives the
penalty weights, ``Psi(h)`` and ``grad Psi(h)``, and
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

One BLAS ``ddot`` gives the gradient's squared norm and its screen for
non-finite entries, and another the new iterate's, for the divergence
test; the reduced matrix's autocorrelation part is one BLAS ``dgemm``.
A finite gradient whose squared norm overflows ends a low-dimensional
step at once, since the right side's first entry ``grad' grad`` is that
norm.  BLAS raises no floating-point warning, so an overflowing step
ends in :class:`DivergenceError` under warnings-as-errors too.  The other vector
and small-matrix products go through ``ndarray.dot``, which costs less
per call than ``@``.  No array of an old state is written.

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
    """The iterate, the last step and the gradient, stacked on their images.

    ``stack`` is one C-ordered ``(2, 3, N)`` array
    ``[[-g, h, d], [-R g, R h, R d]]``: after a step, ``h`` is the new
    iterate, ``d`` the step that reached it and ``g`` the gradient at
    ``h - d`` under the latest statistics, and row 1 holds their images
    under ``R``, the autocorrelation of those statistics.  The next step
    folds its block into ``[R h, R d]``.  Full space has no basis and
    leaves ``-R g`` at zero.  The step count is the statistics' ``count``.

    ``ops`` is ``op @ [-g, h, d]``, a C-ordered ``(3, M)`` array, for a
    low-dimensional strategy with a CSR penalty operator of ``M > 0`` rows,
    and ``None`` otherwise: a scaled identity's images are as cheap as the
    vectors, and with no blocks there is no penalty pass.

    ``h`` is a view of the stack; ``grad``, ``h_prev = h - d`` and the
    ``(N, 2)`` ``images = [R h, R h - R d]`` are derived from it as new
    arrays.
    """

    stack: np.ndarray
    ops: np.ndarray | None

    @property
    def h(self) -> np.ndarray:
        return self.stack[0, 1]

    @property
    def grad(self) -> np.ndarray:
        return -self.stack[0, 0]

    @property
    def h_prev(self) -> np.ndarray:
        return self.stack[0, 1] - self.stack[0, 2]

    @property
    def images(self) -> np.ndarray:
        images = self.stack[1, 1:].T.copy()
        images[:, 1] = images[:, 0] - images[:, 1]
        return images

    @classmethod
    def initial(cls, reg: Regularizer, h1=None,
                strategy=SubspaceStrategy.MEMORY_GRADIENT) -> "EngineState":
        """State before any block: the start ``h`` (zero by default), a zero step and zero images.

        Operator images are carried for ``strategy`` as :class:`EngineState` says.
        """
        n = reg.n_dim
        stack = np.zeros((2, 3, n))
        stack[0, 1] = _coerce_vector(h1, n, "h1", finite=True)
        ops = None
        if reg._sparse_op and SubspaceStrategy(strategy) is not SubspaceStrategy.FULL_SPACE:
            ops = np.zeros((3, reg.op.shape[0]))
            ops[1] = reg.op @ stack[0, 1]
        return cls(stack=stack, ops=ops)


def build_subspace(strategy, stack, step) -> np.ndarray:
    """The basis for iteration ``step``, as a view of ``stack`` (columns in fixed order).

    ``stack`` is a ``(3, N)`` array ``[-grad, h, d]``, with ``d`` the last
    step, or a ``(m, 3, N)`` stack of such arrays, such as
    :class:`EngineState`'s ``stack``.  Memory gradient uses the columns
    ``[-grad, h, d]`` (two columns at the first step, where ``d`` is zero)
    and gradient-only ``[-grad, h]``.  The result is the view
    ``stack[..., :dim, :]`` with its last two axes swapped: ``(N, dim)``,
    or ``(m, N, dim)`` whose member ``i`` is the basis built from
    ``stack[i]``; each member is Fortran-ordered when ``stack`` is
    C-ordered.  The recipe is linear, so on a stack of vectors over their
    images under ``M`` the second member is ``M @ basis``.  Degenerate
    columns are kept; the pseudo-inverse absorbs them.  Full space has no
    basis (its step solves the surrogate's normal equations) and raises
    ``ValueError``.
    """
    if type(strategy) is not SubspaceStrategy:
        strategy = SubspaceStrategy(strategy)
    if strategy is SubspaceStrategy.FULL_SPACE:
        raise ValueError("full space has no basis: its step solves the normal equations")
    dim = 3 if strategy is SubspaceStrategy.MEMORY_GRADIENT and step > 1 else 2
    return stack[..., :dim, :].swapaxes(-1, -2)


def reduced_matrix(basis, autocorr_basis, curvature) -> np.ndarray:
    """Reduced surrogate curvature ``basis' A(h) basis``, exactly symmetric.

    The autocorrelation part is ``basis' autocorr_basis``, from the
    recursive cache; ``curvature`` is the regularizer's part ``basis'
    (quad + op' W op) basis`` (:meth:`Regularizer.curvature`).  One BLAS
    ``dgemm`` adds the first to a copy of the second, with the bits of
    ``basis.T.dot(autocorr_basis) + curvature`` and no floating-point
    warning where ``ndarray.dot`` would warn of an overflow.
    """
    mat = blas.dgemm(1.0, basis, autocorr_basis, beta=1.0, c=curvature, trans_a=1)
    return 0.5 * (mat + mat.T)


def _pinv_psd_solve(mat, rhs):
    """Minimum-norm solution of ``mat @ u = rhs``, ``mat`` symmetric PSD; returns (u, rank).

    One ``dposv`` call factors ``mat`` (Cholesky) and solves the system;
    its solution is kept (rank ``dim``) when ``dpocon``, on the same
    factor, estimates the reciprocal condition number above
    :data:`CHOLESKY_RCOND`.  Otherwise, and when the factorization fails,
    the eigendecomposition pseudo-inverse drops eigenvalues below
    :data:`RANK_CUTOFF` of the largest; when it drops none it uses the
    eigenvectors as they are, with no copy of the kept columns.  A
    non-finite ``mat`` gives a NaN solution, which the engine's divergence
    guard rejects.
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
    rank = int(np.count_nonzero(keep))
    if rank < vals.size:
        vals, vecs = vals[keep], vecs[:, keep]
    return vecs @ ((vecs.T @ rhs) / vals), rank


def _pre_step(stats: MomentState, reg: Regularizer, h, autocorr_h, op_h=None, out=None):
    """The pre-step evaluation both steppers report and step from, in one penalty pass.

    Given ``autocorr_h = autocorr @ h`` under ``stats`` (and ``op_h = op @
    h`` when it is carried), returns the penalty weights, ``grad Psi(h)``,
    the negative gradient ``-grad F(h) = cross - autocorr_h - grad Psi(h)``
    (written into ``out`` if given; the negation of ``autocorr_h - cross +
    grad Psi(h)`` bit for bit), ``||grad F(h)||^2`` and ``F(h)``.  The dot
    products are BLAS ``ddot`` calls, with the bits of ``ndarray.dot``, so
    a sum that overflows is infinite with no warning.  Non-finite entries
    pass through unscreened.
    """
    weights, reg_value, reg_grad = reg.evaluate(h, op_h)
    neg_grad = np.subtract(stats.cross, autocorr_h, out=out)
    neg_grad -= reg_grad
    grad_sq = blas.ddot(neg_grad, neg_grad)
    data = 0.5 * stats.power - blas.ddot(stats.cross, h) + 0.5 * blas.ddot(h, autocorr_h)
    return weights, reg_grad, neg_grad, grad_sq, data + reg_value


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
        self.state = EngineState.initial(reg, h1, self.strategy)

    @property
    def h(self) -> np.ndarray:
        return self.state.h

    def step(self, X, y) -> IterationReport:
        """Consume one block and return its report.

        Folds the block into the statistics in place (see
        :func:`mmls.moments.update`) and into the carried images,
        evaluates the objective and gradient at ``h`` from them and one
        regularizer pass (:func:`_pre_step`, which the SGD baseline
        shares), writes the gradient column and its images, takes the
        basis and its images as views (:func:`build_subspace`), adds the
        regularizer's curvature on the basis, and solves the reduced
        system for the step; full space solves ``A(h) u = -grad``
        directly.  A gradient that vanishes exactly gives a zero step
        (``rank = 0``), so stationary points are fixed points.

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

        # the block folds into the images of h and d as into the statistics,
        # (1 - 1/w) images + (1/w) X X' [h, d], by one gemm in place on a copy
        # of the old stack; the copy becomes the next state's
        stack = state.stack.copy()
        Xt_hd = X.T.dot(stack[0, 1:].T)
        blas.dgemm(inv_w, X, Xt_hd, beta=1.0 - inv_w, c=stack[1, 1:].T, overwrite_c=1)
        ops = state.ops

        weights, _, neg_grad, grad_sq, objective = _pre_step(
            stats, reg, stack[0, 1], stack[1, 1], None if ops is None else ops[1], out=stack[0, 0]
        )
        if not grad_sq < math.inf:
            if not np.isfinite(neg_grad).all():
                raise DivergenceError(step, f"non-finite gradient at iteration {step}")
            if strategy is not SubspaceStrategy.FULL_SPACE:
                # the right side's first entry, grad' grad, overflows, so the step would not be finite
                raise DivergenceError(step)

        if strategy is SubspaceStrategy.FULL_SPACE:
            # no basis (None stands for the identity): A(h) itself as a new
            # matrix; the statistics' array is read, never written
            basis, reduced = None, reg.curvature(None, weights)
            reduced += stats.autocorr
        else:
            moments.autocorr_matvec(stats, neg_grad, out=stack[1, 0])
            basis, autocorr_basis = build_subspace(strategy, stack, step)
            op_basis = None
            if ops is not None:
                ops = ops.copy()
                ops[0] = reg.op @ neg_grad
                op_basis = ops[: basis.shape[1]].T
            reduced = reduced_matrix(basis, autocorr_basis, reg.curvature(basis, weights, op_basis))

        # the sum of squares can underflow to 0 on a nonzero gradient
        if grad_sq > 0.0 or neg_grad.any():
            # -basis' grad, the basis' product with its own column 0
            rhs = neg_grad if basis is None else basis.T.dot(neg_grad)
            shifted, rank = _pinv_psd_solve(reduced, rhs)
        else:
            shifted, rank = np.zeros(reduced.shape[0]), 0
        if basis is None:
            # h + u and its image by one product; d = u, whose image is the difference
            h_next = np.add(stack[0, 1], shifted, out=stack[0, 1])
            stack[0, 2] = shifted
            image = moments.autocorr_matvec(stats, h_next)
            np.subtract(image, stack[1, 1], out=stack[1, 2])
            stack[1, 1] = image
        else:
            # d = basis @ u over its images, then h + d over theirs; d is formed
            # apart, since the basis reads the old d's slot
            d = np.empty((2, stack.shape[2]))
            basis.dot(shifted, out=d[0])
            autocorr_basis.dot(shifted, out=d[1])
            stack[:, 2] = d
            np.add(stack[:, 1], d, out=stack[:, 1])
            h_next = stack[0, 1]
            if ops is not None:
                # numpy buffers this output, which overlaps its operand
                op_basis.dot(shifted, out=ops[2])
                np.add(ops[1], ops[2], out=ops[1])
        # false for a NaN entry too; an infinite one makes the norm infinite
        if not math.sqrt(blas.ddot(h_next, h_next)) <= DIVERGENCE_NORM:
            raise DivergenceError(step)
        step_quadratic = float(shifted.dot(reduced.dot(shifted)))
        self.state = EngineState(stack=stack, ops=ops)
        return IterationReport(objective, math.sqrt(grad_sq), step_quadratic,
                               reduced.shape[0], rank)
