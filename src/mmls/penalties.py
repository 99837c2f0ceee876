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
``nu`` nonnegative, bounded, and maximal at 0.
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
# Each entry maps a kind tag to (value, weight) callables evaluated at
# a = |t| >= 0, *without* the overall multiplier lam.  ``kappa`` is only
# meaningful for the two power-law families and ignored elsewhere.


def _value_l2l1_log(a, d, k):
    return a - d * np.log1p(a / d)


def _weight_l2l1_log(a, d, k):
    return 1.0 / (a + d)


def _value_huber(a, d, k):
    # quadratic core, linear tails; the seam |t| = d belongs to the core
    return np.where(a <= d, a * a, 2.0 * d * a - d * d)


def _weight_huber(a, d, k):
    return np.where(a <= d, 2.0, 2.0 * d / np.maximum(a, d))


def _value_green(a, d, k):
    # log(cosh(a)) written to survive large a where cosh overflows
    return a - _LOG2 + np.log1p(np.exp(-2.0 * a))


def _weight_green(a, d, k):
    safe = np.where(a > 0.0, a, 1.0)
    return np.where(a > 0.0, np.tanh(a) / safe, 1.0)


def _value_power(a, d, k):
    return np.power(1.0 + (a / d) ** 2, 0.5 * k) - 1.0


def _weight_power(a, d, k):
    return (k / d**2) * np.power(1.0 + (a / d) ** 2, 0.5 * k - 1.0)


def _value_welsch(a, d, k):
    return 1.0 - np.exp(-(a * a) / (2.0 * d * d))


def _weight_welsch(a, d, k):
    return np.exp(-(a * a) / (2.0 * d * d)) / (d * d)


def _value_geman_mcclure(a, d, k):
    u = a * a / (6.0 * d * d)
    return np.where(a <= _SQRT6 * d, 1.0 - (1.0 - u) ** 3, 1.0)


def _weight_geman_mcclure(a, d, k):
    u = a * a / (6.0 * d * d)
    return np.where(a <= _SQRT6 * d, (1.0 - u) ** 2 / (d * d), 0.0)


def _value_tukey(a, d, k):
    return np.tanh(a * a / (2.0 * d * d))


def _weight_tukey(a, d, k):
    # sech(x)^2 / d^2 with x >= 0, written against exp overflow
    x = a * a / (2.0 * d * d)
    sech = 2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))
    return sech * sech / (d * d)


def _value_hyperbolic_log(a, d, k):
    return np.log1p((a / d) ** 2)


def _weight_hyperbolic_log(a, d, k):
    return 2.0 / (a * a + d * d)


def _value_cauchy(a, d, k):
    p = np.power(1.0 + a * a / (2.0 * d * d), 0.5 * k)
    return 1.0 - np.exp(1.0 - p)


def _weight_cauchy(a, d, k):
    base = 1.0 + a * a / (2.0 * d * d)
    p = np.power(base, 0.5 * k)
    return (k / (2.0 * d * d)) * np.power(base, 0.5 * k - 1.0) * np.exp(1.0 - p)


_CATALOG = {
    "l2l1-log": (_value_l2l1_log, _weight_l2l1_log),
    "huber": (_value_huber, _weight_huber),
    "green": (_value_green, _weight_green),
    "l2lkappa-power": (_value_power, _weight_power),
    "welsch": (_value_welsch, _weight_welsch),
    "gemanmcclure": (_value_geman_mcclure, _weight_geman_mcclure),
    "tukeybiweight": (_value_tukey, _weight_tukey),
    "hyperboliclog": (_value_hyperbolic_log, _weight_hyperbolic_log),
    "cauchy": (_value_cauchy, _weight_cauchy),
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

    def value(self, t):
        """Evaluate the potential at ``t`` (scalar or array, any sign)."""
        a = _abs_checked(t)
        fn = _CATALOG[self.kind][0]
        return _unwrap(self.lam * fn(a, self.delta, self.kappa))

    def weight(self, t):
        """Half-quadratic weight ``lam * nu(|t|)``, continuous at 0."""
        a = _abs_checked(t)
        fn = _CATALOG[self.kind][1]
        return _unwrap(self.lam * fn(a, self.delta, self.kappa))

    def derivative(self, t):
        """Derivative of the potential, recovered as ``weight(|t|) * t``."""
        a = _abs_checked(t)
        fn = _CATALOG[self.kind][1]
        return _unwrap(self.lam * fn(a, self.delta, self.kappa) * np.asarray(t, dtype=float))


def _abs_checked(t):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("penalty argument must be finite")
    return np.abs(arr)


def _unwrap(out):
    arr = np.asarray(out)
    return float(arr) if arr.ndim == 0 else arr


class Operator:
    """A fixed matrix stored as a scaled identity ``s * I`` or in CSR form.

    The form is picked from the dense matrix given: a square matrix with
    a constant diagonal and a zero off-diagonal becomes ``s * I``, whose
    product ``s * x`` is a fresh array (bit-exact for ``s = 1``); any
    other matrix is converted to CSR once, and its transpose is built
    from that CSR copy.  Supports ``@`` on 1-D and 2-D right sides,
    ``.T``, ``.shape`` and ``toarray()``; dense array arithmetic on an
    operator raises ``TypeError``.  ``scale`` is ``s`` for the scaled
    identity and ``None`` for CSR.
    """

    __array_ufunc__ = None

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        self.shape = mat.shape
        diag = np.diagonal(mat)
        if (mat.shape[0] == mat.shape[1] and np.all(diag == diag[0])
                and np.count_nonzero(mat) == np.count_nonzero(diag)):
            self.scale, self._csr, self.T = float(diag[0]), None, self
        else:
            self.scale, self._csr = None, scipy.sparse.csr_array(mat)
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
    ``@``, ``.T @``, ``toarray()`` and ``shape``.
    """

    def __init__(self, n_dim, blocks=(), quad=None, lin=None):
        self.n_dim = int(n_dim)
        if self.n_dim < 1:
            raise ValueError("n_dim must be at least 1")
        self.quad = Operator(_coerce_quad(quad, self.n_dim))
        self.lin = _coerce_vector(lin, self.n_dim, "lin")

        ops, shifts, specs, sizes = [], [], [], []
        for op, shift, spec in blocks:
            op = np.atleast_2d(np.asarray(op, dtype=float))
            if op.shape[1] != self.n_dim or op.shape[0] < 1:
                raise ValueError(f"block operator shape {op.shape} incompatible with n_dim={self.n_dim}")
            shift = _coerce_vector(shift, op.shape[0], "shift")
            if not isinstance(spec, PenaltySpec):
                raise TypeError("block spec must be a PenaltySpec")
            ops.append(op)
            shifts.append(shift)
            specs.append(spec)
            sizes.append(op.shape[0])

        self.specs = tuple(specs)
        self.block_sizes = np.asarray(sizes, dtype=int)
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)]).astype(int)
        if specs:
            op = np.vstack(ops)
            self.shift = np.concatenate(shifts)
        else:
            op = np.zeros((0, self.n_dim))
            self.shift = np.zeros(0)
        for name, arr in (("block op", op), ("shift", self.shift), ("lin", self.lin)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        self.op = Operator(op)

        # group blocks sharing a spec so weights evaluate vectorized
        groups: dict[PenaltySpec, list[int]] = {}
        for i, spec in enumerate(self.specs):
            groups.setdefault(spec, []).append(i)
        self._groups = [(spec, np.asarray(idx, dtype=int)) for spec, idx in groups.items()]

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
