"""Smooth penalty potentials and the composite regularizer built from them.

The regularizer has the form

    Psi(h) = 1/2 h' Q h - q' h + sum_s psi(||V_s h - v_s||),

an elastic-net quadratic part plus one smooth, even potential applied to
the norms of affine block residuals, each block ``V_s`` the same number of
consecutive rows of the stacked operator ``V``.  Each potential ``psi``
comes with a weighting function ``nu(t) = psi'(t) / t`` (extended by
continuity at 0) that supplies the curvature of its half-quadratic
surrogate: for every anchor t,

    psi(t') <= psi(t) + psi'(t) (t' - t) + 1/2 nu(|t|) (t' - t)^2.

The catalog covers the classical robust/sparsity-promoting families.  All
potentials are even, vanish at 0, have ``psi(sqrt(.))`` concave, and have
``nu`` nonnegative, bounded, and maximal at 0.  Each entry yields ``psi``
and ``nu`` together; ``Regularizer.weights_and_penalty`` evaluates both
for every block in one catalog call.  The engine's per-step calls,
``Regularizer.evaluate`` (weights, value and gradient at ``h``) and
``Regularizer.curvature`` (the regularizer's part of the reduced
surrogate matrix), leave out every term that is identically zero or the
identity.
"""

from __future__ import annotations

import operator
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
    # the negation rides on the scalar divisor: the same bits as -(a * a) / (2 d^2)
    kernel = np.exp((a * a) / (-2.0 * d * d))
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
        """``(lam * psi(t), lam * nu(|t|))`` from one catalog call.

        ``t`` is a scalar or array of any sign; the weight is continuous at 0.
        A scalar ``t`` gives two ``np.float64`` values.  A non-finite ``t``
        raises ``ValueError``.
        """
        arr = np.asarray(t, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("penalty argument must be finite")
        return self._at_abs(np.abs(arr))

    def _at_abs(self, a):
        """``(lam * psi(a), lam * nu(a))`` at ``a >= 0``, with no screen."""
        value, weight = _CATALOG[self.kind](a, self.delta, self.kappa)
        return self.lam * value, self.lam * weight


class Operator:
    """A fixed matrix in the form it is given: a scaled identity ``s * I`` or CSR.

    A scalar ``s`` becomes ``s * I`` through :func:`_scaled_identity`, with
    no matrix built; it is its own transpose, and its product ``s * x`` is
    a fresh array (bit-exact for ``s = 1``).  Every matrix, dense or scipy
    sparse, is taken in CSR form, without densifying a sparse one, and its
    transpose is built from the CSR copy.  Supports ``@`` on 1-D and 2-D
    right sides (arrays or nested sequences), ``.T``, ``.shape`` and
    ``toarray()``; dense array arithmetic on an operator raises
    ``TypeError``.
    """

    __array_ufunc__ = None

    def __init__(self, mat):
        self._scale, self._csr = None, scipy.sparse.csr_array(mat, dtype=float)
        self.shape = self._csr.shape
        transpose = object.__new__(Operator)
        transpose.shape, transpose._scale = self.shape[::-1], None
        transpose._csr, transpose.T = self._csr.T.tocsr(), self
        self.T = transpose

    def __matmul__(self, x):
        if self._csr is not None:
            return self._csr @ x
        if not isinstance(x, np.ndarray):
            x = np.asarray(x, dtype=float)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"operand of shape {x.shape} does not match operator {self.shape}")
        return self._scale * x

    def toarray(self) -> np.ndarray:
        """The matrix as a dense array."""
        if self._csr is None:
            return self._scale * np.eye(self.shape[0])
        return self._csr.toarray()


class Regularizer:
    """Elastic-net quadratic plus one potential on equal-size blocks of affine residuals.

    Parameters
    ----------
    n_dim : int
        Dimension of the estimated vector.
    op, spec, block_size, shift
        Every ``block_size >= 1`` consecutive rows of the stacked
        operator ``op`` (a scalar ``s`` for ``s * I``, a dense array, or
        a scipy sparse matrix kept sparse; ``None`` means no blocks) and
        of ``shift`` (``None`` means zero) form one block ``s``, which
        contributes the potential of the :class:`PenaltySpec` ``spec``
        at ``||op_s @ h - shift_s||``.  ``spec`` may be ``None`` only
        without blocks.
    quad : None, float or (n_dim, n_dim) array
        Quadratic part.  ``None`` is zero, a scalar ``tau`` means
        ``tau * I``; otherwise a dense symmetric positive-semidefinite
        matrix.
    lin : None or (n_dim,) array
        Linear part ``q`` in ``-q' h``.

    Every entry of ``op``, ``shift``, ``quad`` and ``lin`` must be
    finite.  ``op`` and ``quad`` are kept as :class:`Operator` instances
    in the form they are given: a scalar as ``s * I``, a matrix as CSR,
    an identity matrix included.  They support ``@``, ``.T @``,
    ``toarray()`` and ``shape``.
    """

    def __init__(self, n_dim, op=None, spec=None, block_size=1, shift=None, quad=None, lin=None):
        n_dim = _coerce_dim(n_dim)
        block_size = _coerce_dim(block_size, "block size")
        if op is None:
            op = np.zeros((0, n_dim))
        if np.isscalar(op):
            self.op = _scaled_identity(n_dim, op)
        else:
            self.op = Operator(op if scipy.sparse.issparse(op) else np.atleast_2d(op))
        shape = self.op.shape
        if shape[1] != n_dim or shape[0] % block_size:
            raise ValueError(f"block operator shape {shape} incompatible with "
                             f"n_dim={n_dim} and block size {block_size}")
        if not isinstance(spec, PenaltySpec) and (spec is not None or shape[0]):
            raise TypeError(f"block spec must be a PenaltySpec, got {spec!r}")
        self.n_dim = n_dim
        self.quad = _coerce_quad(quad, n_dim)
        self.lin = _coerce_vector(lin, n_dim, "lin", finite=True)
        self.spec = spec
        self.block_size = block_size
        self.shift = _coerce_vector(shift, shape[0], "shift", finite=True)
        entries = self.op._scale if self.op._csr is None else self.op._csr.data
        if not np.all(np.isfinite(entries)):
            raise ValueError("block op must be finite")
        # terms that ``evaluate`` and ``curvature`` leave out: a zero ridge (0 * I, or
        # a CSR ``quad`` with no stored entry), ``lin`` or ``shift``, and a unit
        # identity ``op`` (whose image is its operand)
        quad_csr = self.quad._csr
        self._ridge = bool(self.quad._scale) if quad_csr is None else quad_csr.nnz > 0
        self._lin = bool(np.any(self.lin))
        self._shift = bool(np.any(self.shift))
        self._unit_op = self.op._scale == 1.0
        # a regularizer with no blocks has no penalty pass; a CSR ``op`` with rows is
        # the one whose images the engine carries
        self._blocks = shape[0] > 0
        self._sparse_op = self._blocks and self.op._csr is not None

    @property
    def n_blocks(self) -> int:
        return self.op.shape[0] // self.block_size

    def residual(self, h):
        """Stacked block residual ``op @ h - shift``."""
        return self.op @ h - self.shift

    def block_norms(self, residual):
        """Euclidean norm of each block of a stacked residual, its squares added left to right."""
        squares = residual * residual
        if self.block_size == 1:
            return np.sqrt(squares)
        # row j of every block is the strided slice squares[j::block_size]
        sums = squares[:: self.block_size]
        for j in range(1, self.block_size):
            sums = sums + squares[j :: self.block_size]
        return np.sqrt(sums)

    def weights_and_penalty(self, norms):
        """Per-row weights (a block's repeated over its rows) and the penalty sum at block norms.

        One catalog call for all blocks, with no screen: the norms are
        nonnegative, and a NaN among them gives NaN weights and penalty.
        One-row blocks take the catalog's weights as they are.
        """
        if self.spec is None:  # no blocks
            return norms, 0.0
        value, weights = self.spec._at_abs(norms)
        if self.block_size > 1:
            weights = weights.repeat(self.block_size)
        return weights, float(np.add.reduce(value))

    def weights_from_norms(self, norms):
        """Weights of :meth:`weights_and_penalty`; kept while perfbench traces it by name."""
        return self.weights_and_penalty(norms)[0]

    def penalty_sum(self, norms):
        """Penalty of :meth:`weights_and_penalty`; kept while perfbench traces it by name."""
        return self.weights_and_penalty(norms)[1]

    def evaluate(self, h, op_h=None):
        """``(weights, value, gradient)`` at ``h`` from one penalty pass.

        ``op_h``, if given, is ``op @ h``, which is then not formed.  The
        value sums as ``1/2 h' Q h - q' h``, then the penalty; the gradient
        as ``Q h - q``, then ``op' (weights * residual)``.  A zero ridge,
        ``lin`` or ``shift`` is left out, a unit identity ``op`` is not
        applied, and with no blocks there is no penalty pass (empty
        weights, a zero penalty and a zero penalty gradient), which changes
        no bit of either sum.  A NaN in ``h`` gives NaN entries, with no
        error.
        """
        h = np.asarray(h, dtype=float)
        if self._blocks:
            res = h if self._unit_op else (self.op @ h if op_h is None else op_h)
            if self._shift:
                res = res - self.shift
            weights, penalty = self.weights_and_penalty(self.block_norms(res))
            grad = weights * res
            if not self._unit_op:
                grad = self.op.T @ grad
        else:
            weights, penalty, grad = _NO_WEIGHTS, 0.0, np.zeros(self.n_dim)
        value = 0.0
        if self._ridge:
            quad_h = self.quad @ h
            value = 0.5 * float(h.dot(quad_h))
            if self._lin:
                quad_h -= self.lin
            grad += quad_h
        elif self._lin:
            grad -= self.lin
        if self._lin:
            value -= float(self.lin.dot(h))
        return weights, value + penalty, grad

    def curvature(self, basis, weights, op_basis=None):
        """``basis' (quad + op' diag(weights) op) basis``, leaving out a zero ridge and a unit ``op``.

        ``op_basis``, if given, is ``op @ basis``, which is then not formed.
        With no blocks the penalty part is zeros, with no product.

        ``basis=None`` stands for the identity and gives the dense
        ``quad + op' diag(weights) op`` as a new array, with no identity
        built: ``s^2 weights`` on the diagonal for ``op = s I``, zeros with
        no blocks, and otherwise one sparse product ``op' (weights * op)``,
        the weighted CSR built from ``op``'s own index arrays; then a
        scaled identity ridge added to the diagonal or a CSR ``quad``
        densified and added.
        """
        if basis is None:
            op, quad = self.op, self.quad
            csr = op._csr
            if csr is None:
                mat = np.diag(op._scale * op._scale * weights)
            elif not self._blocks:
                mat = np.zeros((self.n_dim, self.n_dim))
            else:
                # row i of ``op`` scaled by weights[i], the bits of ``csr.multiply(weights[:, None])``
                weighted = scipy.sparse.csr_array(
                    (csr.data * weights.repeat(np.diff(csr.indptr)), csr.indices, csr.indptr),
                    shape=csr.shape,
                )
                mat = (op.T._csr @ weighted).toarray()
            if quad._csr is None:
                mat.flat[:: self.n_dim + 1] += quad._scale
            else:
                mat += quad.toarray()
            return mat
        if not self._blocks:
            dim = basis.shape[1]
            mat = np.zeros((dim, dim))
        else:
            if op_basis is None:
                op_basis = basis if self._unit_op else self.op @ basis
            mat = op_basis.T.dot(weights[:, None] * op_basis)
        if self._ridge:
            mat += basis.T.dot(self.quad @ basis)
        return mat

    def weights(self, h):
        """Weights of :meth:`evaluate`; kept while perfbench traces it by name."""
        return self.evaluate(h)[0]

    def value(self, h):
        """Value of :meth:`evaluate`; kept while perfbench traces it by name."""
        return self.evaluate(h)[1]

    def gradient(self, h):
        """Gradient of :meth:`evaluate`; kept while perfbench traces it by name."""
        return self.evaluate(h)[2]


# the weights of a regularizer with no blocks
_NO_WEIGHTS = np.zeros(0)
_NO_WEIGHTS.flags.writeable = False


def _coerce_dim(value, name="n_dim", minimum=1):
    """``value`` as an ``int``; ``TypeError`` unless it is an integer, ``ValueError`` below ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _scaled_identity(n_dim, scale):
    """The operator ``scale * I`` of size ``n_dim``, built without a matrix."""
    op = object.__new__(Operator)
    op.shape, op._scale, op._csr, op.T = (n_dim, n_dim), float(scale), None, op
    return op


def _coerce_quad(quad, n_dim):
    if quad is None or np.isscalar(quad):
        tau = 0.0 if quad is None else float(quad)
        if not 0.0 <= tau < np.inf:
            raise ValueError(f"scalar quad must be finite and nonnegative, got {tau}")
        return _scaled_identity(n_dim, tau)
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
    return Operator(quad)


def _coerce_vector(vec, size, name, finite=False):
    """``vec`` as a 1-D float64 array of length ``size``; ``None`` is zeros.

    A wrong length raises ``ValueError``, and so, with ``finite``, does a
    non-finite entry.  The one vector coercion of the package, shared by
    the engine and the references as input validation only.
    """
    if vec is None:
        return np.zeros(size)
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if vec.shape != (size,):
        raise ValueError(f"{name} must have length {size}, got {vec.shape}")
    if finite and not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite")
    return vec
