"""Smooth penalty potentials and the composite regularizer built from them.

The regularizer has the form

    Psi(h) = 1/2 h' Q h - q' h + sum_s psi_s(||V_s h - v_s||),

an elastic-net quadratic part plus a sum of smooth, even potentials applied
to norms of affine block residuals.  Each potential ``psi`` comes with a
weighting function ``nu(t) = psi'(t) / t`` (extended by continuity at 0)
that supplies the curvature of its half-quadratic surrogate: for every
anchor t,

    psi(t') <= psi(t) + psi'(t) (t' - t) + 1/2 nu(|t|) (t' - t)^2.

The catalog covers the classical robust/sparsity-promoting families.  All
potentials are even, vanish at 0, have ``psi(sqrt(.))`` concave, and have
``nu`` nonnegative, bounded, and maximal at 0.  Each entry yields ``psi``
and ``nu`` together; ``Regularizer.weights_and_penalty``, the engine's
per-step call, evaluates both for every block in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

__all__ = ["PENALTY_KINDS", "PenaltySpec", "Operator", "Regularizer"]

_LOG2 = float(np.log(2.0))
_SQRT6 = float(np.sqrt(6.0))


# --- potential catalog -------------------------------------------------
#
# Each entry maps a kind tag to one callable returning (value, weight) at
# a = |t| >= 0, *without* the overall multiplier lam; a subexpression both
# need is computed once.  ``kappa`` is only meaningful for the two
# power-law families and ignored elsewhere.


def _l2l1_log(a, d, k):
    return a - d * np.log1p(a / d), 1.0 / (a + d)


def _huber(a, d, k):
    # quadratic core, linear tails; the seam |t| = d belongs to the core
    core = a <= d
    return np.where(core, a * a, 2.0 * d * a - d * d), np.where(core, 2.0, 2.0 * d / np.maximum(a, d))


def _green(a, d, k):
    # log(cosh(a)) written to survive large a where cosh overflows
    positive = a > 0.0
    safe = np.where(positive, a, 1.0)
    return a - _LOG2 + np.log1p(np.exp(-2.0 * a)), np.where(positive, np.tanh(a) / safe, 1.0)


def _power(a, d, k):
    base = 1.0 + (a / d) ** 2
    return np.power(base, 0.5 * k) - 1.0, (k / d**2) * np.power(base, 0.5 * k - 1.0)


def _welsch(a, d, k):
    kernel = np.exp(-(a * a) / (2.0 * d * d))
    return 1.0 - kernel, kernel / (d * d)


def _geman_mcclure(a, d, k):
    core = a <= _SQRT6 * d
    rest = 1.0 - a * a / (6.0 * d * d)
    return np.where(core, 1.0 - rest**3, 1.0), np.where(core, rest**2 / (d * d), 0.0)


def _tukey(a, d, k):
    # the weight is sech(x)^2 / d^2 with x >= 0, written against exp overflow
    x = a * a / (2.0 * d * d)
    sech = 2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))
    return np.tanh(x), sech * sech / (d * d)


def _hyperbolic_log(a, d, k):
    return np.log1p((a / d) ** 2), 2.0 / (a * a + d * d)


def _cauchy(a, d, k):
    base = 1.0 + a * a / (2.0 * d * d)
    tail = np.exp(1.0 - np.power(base, 0.5 * k))
    return 1.0 - tail, (k / (2.0 * d * d)) * np.power(base, 0.5 * k - 1.0) * tail


_CATALOG = {
    "l2l1-log": _l2l1_log,
    "huber": _huber,
    "green": _green,
    "l2lkappa-power": _power,
    "welsch": _welsch,
    "gemanmcclure": _geman_mcclure,
    "tukeybiweight": _tukey,
    "hyperboliclog": _hyperbolic_log,
    "cauchy": _cauchy,
}

PENALTY_KINDS = tuple(_CATALOG)

_KAPPA_KINDS = ("l2lkappa-power", "cauchy")


@dataclass(frozen=True)
class PenaltySpec:
    """One potential from the catalog: a kind tag plus its parameters.

    Parameters
    ----------
    kind : str
        One of :data:`PENALTY_KINDS`.
    lam : float
        Overall positive multiplier of the potential.
    delta : float
        Positive scale (knee) parameter.  ``green`` has no scale and
        ignores it.
    kappa : float
        Exponent in [1, 2]; used only by ``l2lkappa-power`` and
        ``cauchy``.
    """

    kind: str
    lam: float
    delta: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in _CATALOG:
            raise ValueError(
                f"unknown penalty kind {self.kind!r}; expected one of {PENALTY_KINDS}"
            )
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.kind in _KAPPA_KINDS and not (1.0 <= self.kappa <= 2.0):
            raise ValueError(f"kappa must lie in [1, 2], got {self.kappa}")

    def value_and_weight(self, t):
        """``(value(t), weight(t))`` from one catalog call."""
        a = _abs_checked(t)
        value, weight = _CATALOG[self.kind](a, self.delta, self.kappa)
        return _unwrap(self.lam * value), _unwrap(self.lam * weight)

    def value(self, t):
        """Evaluate the potential at ``t`` (scalar or array, any sign)."""
        return self.value_and_weight(t)[0]

    def weight(self, t):
        """Half-quadratic weight ``lam * nu(|t|)``, continuous at 0."""
        return self.value_and_weight(t)[1]

    def derivative(self, t):
        """Derivative of the potential, recovered as ``weight(|t|) * t``."""
        return _unwrap(self.weight(t) * np.asarray(t, dtype=float))


def _abs_checked(t):
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("penalty argument must be finite")
    return np.abs(arr)


def _unwrap(out):
    arr = np.asarray(out)
    return float(arr) if arr.ndim == 0 else arr


class Operator:
    """A fixed matrix stored as a scaled identity ``s * I`` or in CSR form.

    The form is picked from the matrix given: a dense square matrix with
    a constant diagonal and a zero off-diagonal becomes ``s * I``, whose
    product ``s * x`` is a fresh array (bit-exact for ``s = 1``); any
    other dense matrix is converted to CSR once, and a scipy sparse
    matrix is taken in CSR form without densifying it.  The transpose is
    built from the CSR copy.  Supports ``@`` on 1-D and 2-D right sides,
    ``.T``, ``.shape`` and ``toarray()``; dense array arithmetic on an
    operator raises ``TypeError``.  ``scale`` is ``s`` for the scaled
    identity and ``None`` for CSR.
    """

    __array_ufunc__ = None

    def __init__(self, mat):
        if not scipy.sparse.issparse(mat):
            mat = np.asarray(mat, dtype=float)
            diag = np.diagonal(mat)
            if (mat.shape[0] == mat.shape[1] and np.all(diag == diag[0])
                    and np.count_nonzero(mat) == np.count_nonzero(diag)):
                self.shape = mat.shape
                self.scale, self._csr, self.T = float(diag[0]), None, self
                return
        self.shape = mat.shape
        self.scale, self._csr = None, scipy.sparse.csr_array(mat, dtype=float)
        transpose = object.__new__(Operator)
        transpose.shape, transpose.scale = self.shape[::-1], None
        transpose._csr, transpose.T = self._csr.T.tocsr(), self
        self.T = transpose

    def __matmul__(self, x):
        if self._csr is not None:
            return self._csr @ x
        if np.shape(x)[:1] != self.shape[1:]:
            raise ValueError(f"operand of shape {np.shape(x)} does not match operator {self.shape}")
        return self.scale * x

    def toarray(self) -> np.ndarray:
        """The matrix as a dense array."""
        if self._csr is None:
            return self.scale * np.eye(self.shape[0])
        return self._csr.toarray()


class Regularizer:
    """Elastic-net quadratic plus penalty blocks on affine residuals.

    Parameters
    ----------
    n_dim : int
        Dimension of the estimated vector.
    blocks : iterable of (op, shift, spec)
        Each block contributes ``spec.value(||op @ h - shift||)``.
        ``op`` is a (rows, n_dim) array, ``shift`` a length-``rows``
        vector (``None`` means zero), ``spec`` a :class:`PenaltySpec`.
    quad : None, float or (n_dim, n_dim) array
        Quadratic part.  ``None`` is zero, a scalar ``tau`` means
        ``tau * I``; otherwise a dense symmetric positive-semidefinite
        matrix.
    lin : None or (n_dim,) array
        Linear part ``q`` in ``-q' h``.

    Every entry of the block operators, shifts, ``quad`` and ``lin`` must
    be finite.  The stacked block operator ``op`` (``total_rows`` by
    ``n_dim``) and ``quad`` are :class:`Operator` instances: they support
    ``@``, ``.T @``, ``toarray()`` and ``shape``.  :meth:`stacked` takes
    the blocks already stacked, as a dense or sparse operator.
    """

    def __init__(self, n_dim, blocks=(), quad=None, lin=None):
        n_dim = _coerce_dim(n_dim)
        ops, shifts, specs = [], [], []
        for op, shift, spec in blocks:
            op = np.atleast_2d(np.asarray(op, dtype=float))
            if op.shape[1] != n_dim or op.shape[0] < 1:
                raise ValueError(f"block operator shape {op.shape} incompatible with n_dim={n_dim}")
            ops.append(op)
            shifts.append(_coerce_vector(shift, op.shape[0], "shift"))
            specs.append(spec)
        stacked = np.vstack(ops) if ops else np.zeros((0, n_dim))
        shift = np.concatenate(shifts) if ops else None
        self._assemble(n_dim, stacked, [op.shape[0] for op in ops], specs, shift, quad, lin)

    @classmethod
    def stacked(cls, n_dim, op, block_sizes, specs, shift=None, quad=None, lin=None):
        """Regularizer whose block ``s`` is rows ``offsets[s]:offsets[s+1]`` of ``op``.

        ``op`` is a dense array or a scipy sparse matrix of
        ``sum(block_sizes)`` rows and ``n_dim`` columns; a sparse one is
        kept sparse.  ``specs`` holds one :class:`PenaltySpec` per block
        and ``shift`` (``None`` means zero) one value per row.
        """
        n_dim = _coerce_dim(n_dim)
        reg = object.__new__(cls)
        op = op if scipy.sparse.issparse(op) else np.atleast_2d(np.asarray(op, dtype=float))
        sizes = np.asarray(block_sizes, dtype=int)
        if op.shape != (int(sizes.sum()), n_dim) or np.any(sizes < 1):
            raise ValueError(f"block operator shape {op.shape} incompatible with "
                             f"n_dim={n_dim} and block sizes summing to {sizes.sum()}")
        reg._assemble(n_dim, op, sizes, list(specs), shift, quad, lin)
        return reg

    def _assemble(self, n_dim, op, block_sizes, specs, shift, quad, lin):
        self.n_dim = n_dim
        self.quad = Operator(_coerce_quad(quad, n_dim))
        self.lin = _coerce_vector(lin, n_dim, "lin")
        if not all(isinstance(spec, PenaltySpec) for spec in specs):
            raise TypeError("block spec must be a PenaltySpec")
        if len(specs) != len(block_sizes):
            raise ValueError(f"{len(specs)} specs for {len(block_sizes)} blocks")
        self.specs = tuple(specs)
        self.block_sizes = np.asarray(block_sizes, dtype=int)
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)]).astype(int)
        self.shift = _coerce_vector(shift, op.shape[0], "shift")
        entries = op.data if scipy.sparse.issparse(op) else op
        for name, arr in (("block op", entries), ("shift", self.shift), ("lin", self.lin)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        self.op = Operator(op)

        # group blocks sharing a spec so weights evaluate vectorized
        groups: dict[PenaltySpec, list[int]] = {}
        for i, spec in enumerate(self.specs):
            groups.setdefault(spec, []).append(i)
        self._groups = [(spec, np.asarray(idx, dtype=int)) for spec, idx in groups.items()]
        self._row_block = np.repeat(np.arange(self.n_blocks), self.block_sizes)  # block of each row

    @property
    def n_blocks(self) -> int:
        return len(self.specs)

    @property
    def total_rows(self) -> int:
        return self.op.shape[0]

    def residual(self, h):
        """Stacked block residual ``op @ h - shift``."""
        return self.op @ h - self.shift

    def block_norms(self, residual):
        """Euclidean norm of each block slice of a stacked residual."""
        if self.n_blocks == 0:
            return np.zeros(0)
        sums = np.add.reduceat(residual * residual, self.offsets[:-1])
        return np.sqrt(sums)

    def weights_from_norms(self, norms):
        """Per-row half-quadratic weights, one value repeated per block."""
        per_block = np.empty(self.n_blocks)
        for spec, idx in self._groups:
            per_block[idx] = spec.weight(norms[idx])
        return np.repeat(per_block, self.block_sizes)

    def weights(self, h):
        """Weight vector at ``h``: ``nu_s(||op_s h - shift_s||)`` per row."""
        return self.weights_from_norms(self.block_norms(self.residual(h)))

    def penalty_sum(self, norms):
        """Sum of the block potentials evaluated at the given norms."""
        total = 0.0
        for spec, idx in self._groups:
            total += float(np.sum(spec.value(norms[idx])))
        return total

    def weights_and_penalty(self, norms):
        """``(weights_from_norms(norms), penalty_sum(norms))``, bit for bit, from one catalog pass."""
        per_block = np.empty(self.n_blocks)
        total = 0.0
        for spec, idx in self._groups:
            value, per_block[idx] = spec.value_and_weight(norms[idx])
            total += float(value.sum())
        return per_block[self._row_block], total

    def value(self, h):
        """Evaluate the full regularizer at ``h``."""
        h = np.asarray(h, dtype=float)
        quad_part = 0.5 * float(h @ (self.quad @ h)) - float(self.lin @ h)
        return quad_part + self.penalty_sum(self.block_norms(self.residual(h)))

    def gradient(self, h):
        """Gradient of the regularizer at ``h``."""
        h = np.asarray(h, dtype=float)
        res = self.residual(h)
        b = self.weights_from_norms(self.block_norms(res))
        return self.quad @ h - self.lin + self.op.T @ (b * res)


def _coerce_dim(n_dim):
    n_dim = int(n_dim)
    if n_dim < 1:
        raise ValueError("n_dim must be at least 1")
    return n_dim


def _coerce_quad(quad, n_dim):
    if quad is None:
        return np.zeros((n_dim, n_dim))
    if np.isscalar(quad):
        tau = float(quad)
        if not 0.0 <= tau < np.inf:
            raise ValueError(f"scalar quad must be finite and nonnegative, got {tau}")
        return tau * np.eye(n_dim)
    quad = np.asarray(quad, dtype=float)
    if quad.shape != (n_dim, n_dim):
        raise ValueError(f"quad must be ({n_dim}, {n_dim}), got {quad.shape}")
    if not np.all(np.isfinite(quad)):
        raise ValueError("quad must be finite")
    if not np.allclose(quad, quad.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(quad).max())):
        raise ValueError("quad must be symmetric")
    quad = 0.5 * (quad + quad.T)
    eigvals = np.linalg.eigvalsh(quad)
    floor = -1e-10 * max(1.0, float(np.abs(eigvals).max()))
    if eigvals.min() < floor:
        raise ValueError("quad must be positive semidefinite")
    return quad


def _coerce_vector(vec, size, name):
    if vec is None:
        return np.zeros(size)
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if vec.shape != (size,):
        raise ValueError(f"{name} must have length {size}, got {vec.shape}")
    return vec
