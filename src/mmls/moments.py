"""Running second-order statistics of a regression stream.

A stream delivers blocks ``(X, y)`` with ``X`` of shape (n_dim, block)
and ``y`` of length ``block``.  The state tracks exponentially weighted
averages of ``||y||^2``, ``X y`` and ``X X'`` under a forgetting factor
in (0, 1]; factor 1 gives plain sample means.  These statistics define
the streamed objective

    F(h) = 1/2 power - cross' h + 1/2 h' autocorr h + Psi(h)

together with its gradient and the half-quadratic surrogate pieces: the
curvature matrix ``A(h) = autocorr + Q + op' Diag(b(h)) op`` and the
normal-equation right-hand side ``c(h) = cross + q + op' Diag(b(h)) shift``
so that ``grad F(h) = A(h) h - c(h)``.

The autocorrelation is kept as ``autocorr = scale * stored``, an
unnormalized sum with a running scale, so that ``update`` folds each
block into the upper triangle of ``stored`` in place with no pass over
the old entries: one BLAS ``dsyr`` for a one-column block, ``dsyrk``
otherwise, both adding to ``stored`` as it is.  The forgetting factor
and the running mean move only the scale.  The first block, and a scale
that has decayed below :data:`FOLD_BELOW` (2^-64, so that ``stored``
never exceeds ``autocorr`` by more than 2^64 and the statistics keep all
but that factor of the float64 range), take one ``dsyrk`` that scales
``stored`` as it adds, after which the scale is 1 again.  The fold
happens at a fixed block count -- every 8,850 blocks or so at forgetting
0.995 -- so reruns stay bit-identical.  No N x N temporary is formed.

The lower triangle is filled by an exact copy of the upper one on the
first read after an update.  Reading ``autocorr`` returns ``stored``
itself while the scale is 1 and a new scaled array otherwise; a read
never changes ``stored``'s upper triangle or the scale, so it changes
no later bit.  ``autocorr_matvec`` multiplies by the stored triangle,
with the scale as the BLAS ``alpha``, and needs no mirror.  A caller
that needs the statistics before a block must copy them first.

Apart from ``update`` and ``autocorr_matvec``, everything here is the
direct (dense) evaluation path; the engine module reproduces the
gradient and curvature products through low-rank recursions and is
tested against these references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot, dgemv, dsymv, dsyr, dsyrk

from .penalties import Regularizer, _coerce_vector

__all__ = [
    "Sample",
    "MomentState",
    "update",
    "autocorr_matvec",
    "objective",
    "normal_rhs",
    "normal_matrix",
    "gradient",
]

# a running scale below this is folded into the stored sum: 2**-64 keeps
# ``stored`` within 2**64 (about 1.8e19) of ``autocorr``, so the statistics
# hold all but that factor of float64's range; at forgetting 0.995 it folds
# once every 8,850 blocks or so (first at block 7,795)
FOLD_BELOW = 2.0**-64


@dataclass(slots=True)
class Sample:
    """One stream block: regressors ``X`` (n_dim, block) and targets ``y``.

    Both arrays are screened for non-finite entries by one sum of squares
    each, a BLAS ``ddot`` of the array raveled in memory order (a view for
    stream blocks): squares are never negative, so a finite sum means
    every entry is finite.  A sum that is not finite -- from a NaN or
    infinite entry, or from finite entries whose squares overflow, above
    about 1.3e154 -- falls back to the elementwise ``np.isfinite`` screen,
    which decides.  ``ddot`` raises no floating-point warning where
    ``ndarray.dot`` would warn of the overflow.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # the arrays of another ``Sample`` pass through as they are
        if not (type(self.X) is np.ndarray and self.X.dtype == np.float64 and self.X.ndim == 2):
            self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if not (type(self.y) is np.ndarray and self.y.dtype == np.float64 and self.y.ndim == 1):
            self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.X.shape[1] != self.y.shape[0]:
            raise ValueError(
                f"block mismatch: X has {self.X.shape[1]} columns, y has {self.y.shape[0]} entries"
            )
        if self.y.shape[0] < 1:
            raise ValueError("block size must be at least 1")
        x = self.X.ravel(order="K")
        # ``ddot`` takes no empty array; the elementwise screen passes one
        if not (x.size and ddot(x, x) < math.inf and ddot(self.y, self.y) < math.inf):
            # the reduction ``ndarray.all`` makes, without its Python frame
            if not (np.logical_and.reduce(np.isfinite(self.X), axis=None)
                    and np.logical_and.reduce(np.isfinite(self.y))):
                raise ValueError("sample entries must be finite")

    @property
    def n_dim(self) -> int:
        return self.X.shape[0]

    @property
    def block_size(self) -> int:
        return self.X.shape[1]


class MomentState:
    """Exponentially weighted statistics after ``count`` blocks.

    ``weight_total`` is the effective number of blocks seen: ``count``
    when ``forgetting == 1`` and ``(1 - forgetting**count) / (1 - forgetting)``
    otherwise.  It is carried by the running recursion
    ``weight_total <- 1 + forgetting * weight_total`` so no power of the
    forgetting factor is ever formed.

    The constructor rejects a forgetting factor outside (0, 1].  The
    state owns ``cross`` and the stored autocorrelation: the constructor
    copies them into fresh C-contiguous float64 arrays, the layout
    ``update`` writes into in place (BLAS would silently work on a copy
    of any other), and starts at scale 1.  ``autocorr`` is
    ``scale * stored``; reading it returns ``stored`` itself (after an
    update with the upper triangle first mirrored in place) while the
    scale is 1, and a new scaled array otherwise.
    """

    def __init__(self, power: float, cross, autocorr, count: int, forgetting: float,
                 weight_total: float, block_size: int | None = None):
        if not (0.0 < forgetting <= 1.0):
            raise ValueError(f"forgetting factor must lie in (0, 1], got {forgetting}")
        self.power = power
        self.cross = np.array(cross, dtype=np.float64, order="C")
        self._stored = np.array(autocorr, dtype=np.float64, order="C")
        self._scale = 1.0
        self._mirrored = True
        self.count = count
        self.forgetting = forgetting
        self.weight_total = weight_total
        self.block_size = block_size
        n = self.cross.shape[0] if self.cross.ndim == 1 else -1
        if self._stored.shape != (n, n):
            raise ValueError(
                f"autocorr shape {self._stored.shape} does not match cross shape {self.cross.shape}"
            )

    @property
    def autocorr(self) -> np.ndarray:
        """The full autocorrelation matrix, exactly symmetric after an update.

        The stored array itself at scale 1, otherwise a new one.
        """
        stored = self._full_stored()
        return stored if self._scale == 1.0 else self._scale * stored

    def _full_stored(self) -> np.ndarray:
        """``stored`` with its lower triangle mirrored from the upper one."""
        if not self._mirrored:
            _mirror_upper(self._stored)
            self._mirrored = True
        return self._stored

    @classmethod
    def zeros(cls, n_dim: int, forgetting: float = 1.0) -> "MomentState":
        # a zero-byte view: the constructor's copy is the one N x N allocation
        return cls(
            power=0.0,
            cross=np.zeros(n_dim),
            autocorr=np.broadcast_to(0.0, (n_dim, n_dim)),
            count=0,
            forgetting=float(forgetting),
            weight_total=0.0,
        )

    @property
    def n_dim(self) -> int:
        return self.cross.shape[0]


def update(state: MomentState, sample: Sample) -> MomentState:
    """Fold one block into ``state`` in place and return ``state``.

    With ``w`` the new ``weight_total``, ``autocorr <- (1 - 1/w) autocorr
    + (1/w) X X'`` becomes ``scale <- (1 - 1/w) scale`` and ``stored <-
    stored + (1/w) / scale X X'`` on the upper triangle: one ``dsyr`` for
    a one-column block, one ``dsyrk`` otherwise.  When the new scale is
    below :data:`FOLD_BELOW` -- always at the first block, from
    ``weight_total`` 0, where it is 0 -- one ``dsyrk`` forms ``scale * stored + (1/w) X X'`` and the scale
    returns to 1, so the first block's ``autocorr`` is ``X X'`` bit for
    bit.  The lower triangle is left stale until ``autocorr`` is next
    read, which mirrors it.  ``cross <- (1 - 1/w) cross + (1/w) X y`` is
    one ``dgemv`` in place, and ``power`` moves toward the block's ``y'y``
    (a BLAS ``ddot``, infinite with no warning on overflow) by ``1/w`` of
    the difference.  A rejected
    block (dimension mismatch or block-size change) raises before any
    field changes.
    """
    X = sample.X
    n_dim, block_size = X.shape
    if n_dim != state.cross.shape[0]:
        raise ValueError(f"sample dimension {n_dim} != state dimension {state.n_dim}")
    if state.block_size is not None and block_size != state.block_size:
        raise ValueError(f"block size changed mid-stream: {block_size} != {state.block_size}")
    weight_total = 1.0 + state.forgetting * state.weight_total
    inv_w = 1.0 / weight_total
    scale = (1.0 - inv_w) * state._scale
    dgemv(inv_w, X, sample.y, beta=1.0 - inv_w, y=state.cross, overwrite_y=1)
    # ``stored.T`` is the Fortran-order view BLAS writes through; its lower
    # triangle is the upper triangle of ``stored`` and, mirrored, equals
    # numpy's ``X @ X.T`` bit for bit after the first block.  Stream blocks
    # are Fortran-ordered row slices, so f2py copies only ``X`` of other layouts.
    stored = state._stored.T
    if scale < FOLD_BELOW:
        dsyrk(inv_w, X, beta=scale, c=stored, lower=1, overwrite_c=1)
        scale = 1.0
    elif block_size == 1:
        dsyr(inv_w / scale, X[:, 0], lower=1, a=stored, overwrite_a=1)
    else:
        dsyrk(inv_w / scale, X, beta=1.0, c=stored, lower=1, overwrite_c=1)
    state._scale = scale
    state._mirrored = False
    state.power += (ddot(sample.y, sample.y) - state.power) / weight_total
    state.count += 1
    state.weight_total = weight_total
    state.block_size = block_size
    return state


def autocorr_matvec(state: MomentState, vec, out=None) -> np.ndarray:
    """``autocorr @ vec`` from the stored upper triangle alone, by one BLAS ``dsymv``.

    The scale is ``dsymv``'s ``alpha``, so it needs no mirror and forms
    no scaled copy.  Agrees with ``state.autocorr @ vec`` up to roundoff.
    With ``out``, a contiguous float64 vector that does not overlap
    ``vec``, the product is written into it, with the same bits, and
    ``out`` is returned.
    """
    if out is None:
        return dsymv(state._scale, state._stored.T, vec, lower=1)
    dsymv(state._scale, state._stored.T, vec, y=out, overwrite_y=1, lower=1)
    return out


_TILE = 64
_TILE_LOWER = np.tri(_TILE, k=-1, dtype=bool)


def _mirror_upper(mat: np.ndarray) -> None:
    """Copy the upper triangle of square ``mat`` onto its lower one, exactly.

    Works in 64-wide column panels so that each transposed read stays in
    cache; the panel below a diagonal tile never overlaps its source, so
    only the diagonal tiles are copied through a temporary.
    """
    for lo in range(0, mat.shape[0], _TILE):
        hi = lo + _TILE
        tile = mat[lo:hi, lo:hi]
        np.copyto(tile, tile.T, where=_TILE_LOWER[: tile.shape[0], : tile.shape[0]])
        mat[hi:, lo:hi] = mat[lo:hi, hi:].T


def objective(state: MomentState, reg: Regularizer, h) -> float:
    """Streamed objective ``F(h)`` under the current statistics."""
    h = _check_vec(state, reg, h)
    data = 0.5 * state.power - float(state.cross @ h) + 0.5 * float(h @ _autocorr_times(state, h))
    return data + reg.evaluate(h)[1]


def normal_rhs(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    """Right-hand side ``c(h)`` of the reweighted normal equations."""
    h = _check_vec(state, reg, h)
    b = reg.evaluate(h)[0]
    return state.cross + reg.lin + reg.op.T @ (b * reg.shift)


def normal_matrix(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    """Surrogate curvature ``A(h)``, dense and exactly symmetric.

    Reference/diagnostic path only: the engine never materializes this
    matrix while iterating.
    """
    h = _check_vec(state, reg, h)
    b = reg.evaluate(h)[0]
    op = reg.op.toarray()
    mat = state.autocorr + reg.quad.toarray() + (op * b[:, None]).T @ op
    return 0.5 * (mat + mat.T)


def gradient(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    """Gradient ``A(h) h - c(h)`` assembled from matrix-vector products."""
    h = _check_vec(state, reg, h)
    res = reg.residual(h)
    b = reg.weights_and_penalty(reg.block_norms(res))[0]
    return _autocorr_times(state, h) + reg.quad @ h - state.cross - reg.lin + reg.op.T @ (b * res)


def _autocorr_times(state: MomentState, h) -> np.ndarray:
    """``autocorr @ h`` as the scale times the product with the mirrored stored array (no N x N copy)."""
    return state._scale * (state._full_stored() @ h)


def _check_vec(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    if reg.n_dim != state.n_dim:
        raise ValueError(f"dimension mismatch: state {state.n_dim}, regularizer {reg.n_dim}")
    return _coerce_vector(h, state.n_dim, "h")
