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

``update`` folds each block into the state's own buffers in place: one
BLAS ``dsyrk`` blends ``X X'`` into the upper triangle of ``autocorr``,
and no N x N temporary is formed.  The lower triangle is filled by an
exact copy of the upper one on the first read of ``autocorr`` after an
update, so every reader still sees a full, exactly symmetric array;
``autocorr_matvec`` multiplies by the stored triangle without that
copy.  A caller that needs the statistics before a block must copy them
first.

Apart from ``update`` and ``autocorr_matvec``, everything here is the
direct (dense) evaluation path; the engine module reproduces the
gradient and curvature products through low-rank recursions and is
tested against these references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv, dsyrk

from .penalties import Regularizer

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


@dataclass
class Sample:
    """One stream block: regressors ``X`` (n_dim, block) and targets ``y``."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.X.shape[1] != self.y.shape[0]:
            raise ValueError(
                f"block mismatch: X has {self.X.shape[1]} columns, y has {self.y.shape[0]} entries"
            )
        if self.y.shape[0] < 1:
            raise ValueError("block size must be at least 1")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
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

    The state owns ``cross`` and ``autocorr``: the constructor copies them
    into fresh C-contiguous float64 arrays, the layout ``update`` writes
    into in place (BLAS would silently work on a copy of any other).
    Reading ``autocorr`` returns the array given to the constructor, or,
    after an update, mirrors the upper triangle in place first.
    """

    def __init__(self, power: float, cross, autocorr, count: int, forgetting: float,
                 weight_total: float, block_size: int | None = None):
        self.power = power
        self.cross = np.array(cross, dtype=np.float64, order="C")
        self._autocorr = np.array(autocorr, dtype=np.float64, order="C")
        self._mirrored = True
        self.count = count
        self.forgetting = forgetting
        self.weight_total = weight_total
        self.block_size = block_size
        n = self.cross.shape[0] if self.cross.ndim == 1 else -1
        if self._autocorr.shape != (n, n):
            raise ValueError(
                f"autocorr shape {self._autocorr.shape} does not match cross shape {self.cross.shape}"
            )

    @property
    def autocorr(self) -> np.ndarray:
        """The full autocorrelation matrix, exactly symmetric after an update (owned, not a copy)."""
        if not self._mirrored:
            _mirror_upper(self._autocorr)
            self._mirrored = True
        return self._autocorr

    @classmethod
    def zeros(cls, n_dim: int, forgetting: float = 1.0) -> "MomentState":
        if not (0.0 < forgetting <= 1.0):
            raise ValueError(f"forgetting factor must lie in (0, 1], got {forgetting}")
        return cls(
            power=0.0,
            cross=np.zeros(n_dim),
            autocorr=np.zeros((n_dim, n_dim)),
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
    + (1/w) X X'`` is one ``dsyrk`` on the upper triangle; the lower one
    is left stale until ``autocorr`` is next read, which mirrors it.
    ``cross`` and ``power`` move toward the block's ``X y`` and ``y'y`` by
    ``1/w`` of the difference.  A rejected block (dimension mismatch or
    block-size change) raises before any field changes.
    """
    if sample.n_dim != state.n_dim:
        raise ValueError(f"sample dimension {sample.n_dim} != state dimension {state.n_dim}")
    if state.block_size is not None and sample.block_size != state.block_size:
        raise ValueError(
            f"block size changed mid-stream: {sample.block_size} != {state.block_size}"
        )
    weight_total = 1.0 + state.forgetting * state.weight_total
    inv_w = 1.0 / weight_total
    X = sample.X
    state.cross += (X @ sample.y - state.cross) / weight_total
    # ``autocorr.T`` is the Fortran-order view BLAS writes through; its lower
    # triangle is the upper triangle of ``autocorr`` and, mirrored, equals
    # numpy's ``X @ X.T`` bit for bit.  Stream blocks are Fortran-ordered
    # row slices, so f2py copies only ``X`` of other layouts.
    dsyrk(inv_w, X, beta=1.0 - inv_w, c=state._autocorr.T, lower=1, overwrite_c=1)
    state._mirrored = False
    state.power += (float(sample.y @ sample.y) - state.power) / weight_total
    state.count += 1
    state.weight_total = weight_total
    state.block_size = sample.block_size
    return state


def autocorr_matvec(state: MomentState, vec) -> np.ndarray:
    """``autocorr @ vec`` from the upper triangle alone, by one BLAS ``dsymv``.

    Reads the stored triangle directly, so it needs no mirror after an
    update.  Agrees with ``state.autocorr @ vec`` up to roundoff.
    """
    return dsymv(1.0, state._autocorr.T, vec, lower=1)


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
    data = 0.5 * state.power - float(state.cross @ h) + 0.5 * float(h @ (state.autocorr @ h))
    return data + reg.value(h)


def normal_rhs(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    """Right-hand side ``c(h)`` of the reweighted normal equations."""
    h = _check_vec(state, reg, h)
    b = reg.weights(h)
    return state.cross + reg.lin + reg.op.T @ (b * reg.shift)


def normal_matrix(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    """Surrogate curvature ``A(h)``, dense and exactly symmetric.

    Reference/diagnostic path only: the engine never materializes this
    matrix while iterating.
    """
    h = _check_vec(state, reg, h)
    b = reg.weights(h)
    op = reg.op.toarray()
    mat = state.autocorr + reg.quad.toarray() + (op * b[:, None]).T @ op
    return 0.5 * (mat + mat.T)


def gradient(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    """Gradient ``A(h) h - c(h)`` assembled from matrix-vector products."""
    h = _check_vec(state, reg, h)
    res = reg.residual(h)
    b = reg.weights_from_norms(reg.block_norms(res))
    return state.autocorr @ h + reg.quad @ h - state.cross - reg.lin + reg.op.T @ (b * res)


def _check_vec(state: MomentState, reg: Regularizer, h) -> np.ndarray:
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != state.n_dim or reg.n_dim != state.n_dim:
        raise ValueError(
            f"dimension mismatch: h has {h.shape[0]}, state {state.n_dim}, regularizer {reg.n_dim}"
        )
    return h
