"""Potential catalog and composite regularizer tests."""

import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import traced_peak
from mmls import PENALTY_KINDS, PenaltySpec, Regularizer, build_isotropic_tv_regularizer

ALL_SPECS = [
    PenaltySpec(kind, lam=0.7, delta=0.4, kappa=1.5) for kind in PENALTY_KINDS
]


def spec_ids(specs):
    return [s.kind for s in specs]


# --- pinned values -----------------------------------------------------


@pytest.mark.parametrize(
    "kind,lam,delta,t,expected",
    [
        ("welsch", 1.0, 1.0, 0.0, 0.0),
        ("huber", 1.0, 1.0, 0.5, 0.25),
        ("huber", 1.0, 1.0, 3.0, 5.0),
        ("huber", 2.0, 1.0, 3.0, 10.0),
        ("l2lkappa-power", 1.0, 2.0, 0.0, 0.0),
        ("green", 1.0, 1.0, 0.0, 0.0),
    ],
)
def test_value_pinned(kind, lam, delta, t, expected):
    spec = PenaltySpec(kind, lam=lam, delta=delta)
    assert spec.value_and_weight(t)[0] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "kind,lam,delta,t,expected",
    [
        ("huber", 1.0, 1.0, 0.0, 2.0),
        ("welsch", 1.0, 2.0, 0.0, 0.25),
        ("green", 1.0, 1.0, 0.0, 1.0),
        ("hyperboliclog", 1.0, 1.0, 1.0, 1.0),
        ("l2l1-log", 1.0, 0.5, 0.0, 2.0),
        ("cauchy", 1.0, 1.0, 0.0, 0.5),
    ],
)
def test_weight_pinned(kind, lam, delta, t, expected):
    spec = PenaltySpec(kind, lam=lam, delta=delta)
    assert spec.value_and_weight(t)[1] == pytest.approx(expected, rel=1e-12)


def test_huber_weight_beyond_knee():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    assert spec.value_and_weight(5.0)[1] == pytest.approx(2.0 / 5.0)


def derivative(spec, t):
    """The potential's derivative, ``weight(t) * t``."""
    return spec.value_and_weight(t)[1] * np.asarray(t, dtype=float)


def test_welsch_derivative_value():
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    assert derivative(spec, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-9)


def test_huber_derivative_in_quadratic_core():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    assert derivative(spec, 0.5) == pytest.approx(1.0)


def test_power_kappa_two_is_quadratic():
    spec = PenaltySpec("l2lkappa-power", lam=1.0, delta=2.0, kappa=2.0)
    t = np.linspace(-30, 30, 101)
    assert_allclose(spec.value_and_weight(t)[0], (t / 2.0) ** 2, rtol=1e-13)
    assert_allclose(spec.value_and_weight(t)[1], np.full_like(t, 0.5), rtol=1e-13)


def test_geman_mcclure_saturates():
    spec = PenaltySpec("gemanmcclure", lam=1.3, delta=0.5)
    cut = np.sqrt(6.0) * 0.5
    assert spec.value_and_weight(cut)[0] == pytest.approx(1.3, rel=1e-12)
    assert spec.value_and_weight(10.0)[0] == pytest.approx(1.3)
    assert spec.value_and_weight(cut + 1e-9)[1] == 0.0


# --- structural properties over the whole catalog ----------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_even_and_zero_at_origin(spec):
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 10 * spec.delta, 500)
    plus, minus = spec.value_and_weight(t)[0], spec.value_and_weight(-t)[0]
    assert np.all(np.abs(plus - minus) <= 1e-12 * (1.0 + np.abs(plus)))
    assert spec.value_and_weight(0.0)[0] == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_weight_nonnegative_bounded_peaks_at_zero(spec):
    grid = np.concatenate([[0.0], np.logspace(-8, 6, 400) * spec.delta])
    w = spec.value_and_weight(grid)[1]
    assert np.all(w >= 0.0)
    assert np.all(w <= spec.value_and_weight(0.0)[1] + 1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_quadratic_majorization_inequality(spec):
    # psi(t2) <= psi(t) + psi'(t)(t2 - t) + 1/2 nu(|t|)(t2 - t)^2
    rng = np.random.default_rng(7)
    span = 10 * spec.delta
    t = rng.uniform(-span, span, 10_000)
    t2 = rng.uniform(-span, span, 10_000)
    lhs = spec.value_and_weight(t2)[0]
    value, weight = spec.value_and_weight(t)
    rhs = value + derivative(spec, t) * (t2 - t) + 0.5 * weight * (t2 - t) ** 2
    assert np.all(rhs - lhs >= -1e-10 * (1.0 + np.abs(rhs)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_concave_in_squared_argument(spec):
    rng = np.random.default_rng(11)
    span = (10 * spec.delta) ** 2
    a = rng.uniform(0.0, span, 1000)
    b = rng.uniform(0.0, span, 1000)
    mid = spec.value_and_weight(np.sqrt(0.5 * (a + b)))[0]
    ends = 0.5 * spec.value_and_weight(np.sqrt(a))[0] + 0.5 * spec.value_and_weight(np.sqrt(b))[0]
    assert np.all(mid >= ends - 1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_derivative_matches_finite_differences(spec):
    rng = np.random.default_rng(5)
    t = rng.uniform(-8 * spec.delta, 8 * spec.delta, 1000)
    # stay away from the curvature seams of the piecewise kinds
    if spec.kind == "huber":
        t = t[np.abs(np.abs(t) - spec.delta) > 1e-4 * spec.delta]
    if spec.kind == "gemanmcclure":
        t = t[np.abs(np.abs(t) - np.sqrt(6.0) * spec.delta) > 1e-4 * spec.delta]
    h = 1e-6 * spec.delta
    numeric = (spec.value_and_weight(t + h)[0] - spec.value_and_weight(t - h)[0]) / (2 * h)
    analytic = derivative(spec, t)
    assert np.all(np.abs(numeric - analytic) <= 1e-6 * (1.0 + np.abs(analytic)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_derivative_is_odd_and_zero_at_origin(spec):
    t = np.linspace(0.1, 5 * spec.delta, 50)
    assert_allclose(derivative(spec, -t), -derivative(spec, t), rtol=1e-12)
    assert derivative(spec, 0.0) == 0.0


@settings(max_examples=200)
@given(t=st.floats(min_value=-1e6, max_value=1e6))
def test_hypothesis_evenness_and_bounded_weight(t):
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    assert spec.value_and_weight(t)[0] == spec.value_and_weight(-t)[0]
    assert 0.0 <= spec.value_and_weight(t)[1] <= spec.value_and_weight(0.0)[1] + 1e-12


def test_non_finite_argument_rejected():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    with pytest.raises(ValueError):
        spec.value_and_weight(np.nan)
    with pytest.raises(ValueError):
        spec.value_and_weight(np.inf)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="nope", lam=1.0),
        dict(kind="huber", lam=0.0),
        dict(kind="huber", lam=1.0, delta=-1.0),
        dict(kind="l2lkappa-power", lam=1.0, kappa=0.5),
        dict(kind="cauchy", lam=1.0, kappa=2.5),
    ],
)
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        PenaltySpec(**kwargs)


# --- Regularizer --------------------------------------------------------


@pytest.mark.parametrize("block_size", [1, 2])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_block_pass_is_reduceat_then_one_catalog_call(spec, block_size):
    delta = spec.delta
    # the origin, a square that underflows, the Huber and Geman-McClure seams, a far tail
    probes = np.array([0.0, 1e-300, delta, np.sqrt(6.0) * delta, 1e6 * delta])
    values = np.concatenate([probes, -probes])
    # each value alone in a block's first row, alone in its last row, and in all its rows
    rows = np.zeros((3 * values.size, block_size))
    rows[: values.size, 0] = values
    rows[values.size : 2 * values.size, -1] = values
    rows[2 * values.size :] = values[:, None]
    residual = rows.ravel()
    reg = Regularizer(residual.size, np.eye(residual.size), spec, block_size)
    norms = np.sqrt(np.add.reduceat(residual * residual, np.arange(0, residual.size, block_size)))
    np.testing.assert_array_equal(reg.block_norms(residual), norms)
    value, weight = spec.value_and_weight(norms)
    weights, total = reg.weights_and_penalty(norms)
    np.testing.assert_array_equal(weights, np.repeat(weight, block_size))
    assert total == float(value.sum())


def test_weights_all_ones_for_unit_welsch_at_zero():
    n = 5
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    reg = Regularizer(n, np.eye(n), spec, n)
    assert_allclose(reg.weights(np.zeros(n)), np.ones(n))


def test_weights_replicated_per_block():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    rng = np.random.default_rng(3)
    op = np.vstack([rng.standard_normal((2, 4)), rng.standard_normal((2, 4))])
    reg = Regularizer(4, op, spec, 2)
    b = reg.weights(rng.standard_normal(4))
    assert b.shape == (4,)
    assert b[0] == b[1] and b[2] == b[3]


def test_weights_huber_beyond_knee_vector():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    reg = Regularizer(2, np.eye(2), spec, 2)
    assert_allclose(reg.weights(np.array([3.0, 4.0])), [0.4, 0.4])


def test_weights_unchanged_by_kernel_perturbation():
    # directions annihilated by a block operator cannot change its weight
    spec = PenaltySpec("cauchy", lam=0.8, delta=0.3, kappa=1.2)
    op = np.array([[1.0, -1.0, 0.0]])
    reg = Regularizer(3, op, spec)
    h = np.array([0.3, -0.2, 0.9])
    d = np.array([1.0, 1.0, -5.0])  # op @ d == 0
    assert reg.weights(h)[0] == reg.weights(h + d)[0]


def test_value_zero_at_origin_without_offsets():
    rng = np.random.default_rng(8)
    spec = PenaltySpec("green", lam=1.0)
    reg = Regularizer(6, rng.standard_normal((2, 6)), spec, 2)
    assert reg.value(np.zeros(6)) == 0.0


def test_value_pure_quadratic():
    reg = Regularizer(1, quad=np.array([[2.0]]), lin=np.array([3.0]))
    assert reg.value(np.array([1.0])) == pytest.approx(-2.0)


def test_value_composes_from_potential(rng):
    # one identity block penalizes the whole-vector norm
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    n = 4
    reg = Regularizer(n, np.eye(n), spec, n, quad=0.5)
    h = rng.standard_normal(n)
    expected = 0.25 * float(h @ h) + spec.value_and_weight(float(np.linalg.norm(h)))[0]
    assert reg.value(h) == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences(rng):
    from conftest import random_regularizer

    reg = random_regularizer(rng, 6, kind="hyperboliclog")
    h = rng.standard_normal(6)
    grad = reg.gradient(h)
    eps = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = eps
        fd = (reg.value(h + e) - reg.value(h - e)) / (2 * eps)
        assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-8)


def test_blocks_stack_in_declaration_order(rng):
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    first = rng.standard_normal((2, 4))
    second = rng.standard_normal((2, 4))
    shifts = (rng.standard_normal(2), rng.standard_normal(2))
    reg = Regularizer(4, np.vstack([first, second]), spec, 2, shift=np.concatenate(shifts))
    assert_allclose(reg.op.toarray(), np.vstack([first, second]))
    assert_allclose(reg.shift, np.concatenate(shifts))
    assert reg.n_blocks == 2


def test_operator_form_follows_the_input(rng):
    n = 5
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    h, hs = rng.standard_normal(n), rng.standard_normal((n, 2))
    # a scalar s is s I, block operator or ridge: its own transpose, with the
    # bit-exact product s * x, a fresh array
    for scale in (1.0, 2.5, 0.0):
        for form in (Regularizer(n, scale, spec).op, Regularizer(n, quad=scale).quad):
            assert form.T is form and form.shape == (n, n)
            for x in (h, hs):
                product = form @ x
                assert np.array_equal(product, scale * x) and product is not x
            assert np.array_equal(form.toarray(), scale * np.eye(n))
    with pytest.raises(ValueError):
        Regularizer(n, quad=0.3).quad @ np.ones(n + 1)
    with pytest.raises(ValueError, match="^block op must be finite$"):
        Regularizer(n, np.inf, spec)
    # every matrix is CSR, an identity too, with the scalar form's products and
    # regularizer passes bit for bit
    sparse_eye = scipy.sparse.identity(n, format="csr")
    weights = rng.uniform(0.5, 2.0, n)
    for mat, scale in ((np.eye(n), 1.0), (2.5 * np.eye(n), 2.5), (sparse_eye, 1.0)):
        matrix = Regularizer(n, mat, spec, quad=scale * np.eye(n))
        scalar = Regularizer(n, scale, spec, quad=scale)
        for got, expected in ((matrix.op, scalar.op), (matrix.quad, scalar.quad)):
            assert got.T is not got and got._csr.format == "csr"
            assert np.array_equal(got.toarray(), expected.toarray())
            for x in (h, hs):
                assert np.array_equal(got @ x, expected @ x)
                assert np.array_equal(got.T @ x, expected.T @ x)
        for got, expected in zip(matrix.evaluate(h), scalar.evaluate(h)):
            assert np.array_equal(got, expected)
        assert np.array_equal(matrix.curvature(hs, weights), scalar.curvature(hs, weights))
    # CSR, with a transpose of its own: dense blocks, a banded quad, finite
    # differences, and no blocks; no quad is 0 I
    stacked = rng.standard_normal((5, n))
    quad = 2.0 * np.eye(n) + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    dense = Regularizer(n, stacked, spec, 5, quad=quad)
    assert dense.op.T is not dense.op and dense.quad.T is not dense.quad
    assert np.array_equal(dense.op.toarray(), stacked)
    assert np.array_equal(dense.op.T.toarray(), stacked.T)
    assert np.array_equal(dense.quad.toarray(), quad)
    assert dense.op.shape == (5, n) and dense.op.T.shape == (n, 5)
    assert_allclose(dense.op @ hs, stacked @ hs, rtol=1e-12, atol=1e-13)
    residual = rng.standard_normal(5)
    assert_allclose(dense.op.T @ residual, stacked.T @ residual, rtol=1e-12, atol=1e-13)
    tv = build_isotropic_tv_regularizer(3, 4, lam=1.0, delta=1.0)
    assert tv.op.T is not tv.op
    x = rng.standard_normal(tv.n_dim)
    assert tv.quad.T is tv.quad and np.array_equal(tv.quad @ x, 1e-10 * x)
    bare = Regularizer(n)
    assert bare.quad.T is bare.quad and np.array_equal(bare.quad.toarray(), np.zeros((n, n)))
    assert bare.op.T is not bare.op and bare.op.shape == (0, n)
    assert (bare.op @ h).shape == (0,)
    assert np.array_equal(bare.op.T @ np.zeros(0), np.zeros(n))
    with pytest.raises(TypeError):
        np.eye(n) + bare.quad


class _Refuse:
    def __matmul__(self, x):
        raise AssertionError("a refused operator or pass was applied")


@pytest.mark.parametrize("quad", [None, 0.0, "dense-zero"])
def test_zero_quad_adds_no_ridge_term(rng, quad):
    # no quad, 0 I and a dense zero matrix (CSR with no stored entry) are never applied
    n = 4
    if quad == "dense-zero":
        quad = np.zeros((n, n))
    reg = Regularizer(n, rng.standard_normal((2, n)), PenaltySpec("huber", lam=1.0, delta=1.0),
                      quad=quad, lin=rng.standard_normal(n))
    reg.quad = _Refuse()
    reg.evaluate(rng.standard_normal(n))
    reg.curvature(rng.standard_normal((n, 2)), np.ones(2))


def _dense_tv_operator(rows, cols):
    """The isotropic TV operator as dense 2 x n blocks, one per pixel, stacked."""
    n = rows * cols
    blocks = []
    for i in range(rows):
        for j in range(cols):
            idx = i * cols + j
            op = np.zeros((2, n))
            if j + 1 < cols:
                op[0, idx], op[0, idx + 1] = -1.0, 1.0
            if i + 1 < rows:
                op[1, idx], op[1, idx + cols] = -1.0, 1.0
            blocks.append(op)
    return np.vstack(blocks)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (4, 1), (3, 4), (21, 21)])
def test_tv_operator_is_the_csr_of_its_dense_blocks(rows, cols):
    tv = build_isotropic_tv_regularizer(rows, cols, lam=0.3, delta=0.1)
    reference = scipy.sparse.csr_array(_dense_tv_operator(rows, cols))
    for got, expected in ((tv.op._csr, reference), (tv.op.T._csr, reference.T.tocsr())):
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(got, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert tv.block_size == 2 and tv.n_blocks == rows * cols
    rng = np.random.default_rng(5)
    h, r = rng.standard_normal(rows * cols), rng.standard_normal(2 * rows * cols)
    assert np.array_equal(tv.op @ h, reference @ h)
    assert np.array_equal(tv.op.T @ r, reference.T.tocsr() @ r)


@pytest.mark.parametrize("blocks", ["dense-and-csr", "none-and-empty"])
def test_one_constructor_for_every_operator_form(rng, blocks):
    # the same blocks as a dense array and a CSR matrix, or no blocks as ``None``
    # and an empty array, build the same regularizer, bit for bit
    n = 5
    if blocks == "dense-and-csr":
        op = rng.standard_normal((4, n))
        op[np.abs(op) < 0.5] = 0.0
        spec, block_size = ALL_SPECS[4], 2
        shift = rng.standard_normal(4)
        forms = (op, scipy.sparse.csr_array(op))
    else:
        spec, block_size, shift = None, 1, None
        forms = (None, np.zeros((0, n)))
    first, second = (Regularizer(n, form, spec, block_size, shift=shift, quad=0.2,
                                 lin=np.linspace(-1.0, 1.0, n)) for form in forms)
    assert np.array_equal(first.op.toarray(), second.op.toarray())
    assert np.array_equal(first.shift, second.shift)
    assert first.spec is second.spec is spec
    assert first.n_blocks == second.n_blocks
    h = rng.standard_normal(n)
    for got, expected in zip(first.evaluate(h), second.evaluate(h)):
        assert np.array_equal(got, expected)


_HUBER = PenaltySpec("huber", lam=1.0, delta=1.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        pytest.param(
            {"op": np.array([[np.nan, 1.0]]), "spec": _HUBER}, "block op", id="op"
        ),
        pytest.param(
            {"op": scipy.sparse.csr_array(np.array([[np.nan, 1.0]])), "spec": _HUBER},
            "block op", id="csr-op",
        ),
        pytest.param(
            {"op": np.array([[1.0, 0.0]]), "spec": _HUBER, "shift": np.array([np.inf])},
            "shift", id="shift",
        ),
        pytest.param({"lin": np.array([0.0, np.nan])}, "lin", id="lin"),
        pytest.param({"quad": np.array([[1.0, np.nan], [np.nan, 1.0]])}, "quad", id="quad"),
    ],
)
def test_non_finite_inputs_rejected(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        Regularizer(2, **kwargs)


def test_empty_block_list_degenerates_to_quadratic():
    reg = Regularizer(3, quad=2.0)
    h = np.array([1.0, 2.0, 3.0])
    assert reg.n_blocks == 0
    assert reg.op.shape[0] == 0
    assert reg.value(h) == pytest.approx(float(h @ h))
    assert reg.weights(h).shape == (0,)


@pytest.mark.parametrize("quad, lin", [(1e-6, None), (None, "random"), ("dense", "random"), (None, None)])
def test_no_blocks_skips_the_penalty_pass(rng, monkeypatch, quad, lin):
    # without blocks neither pass multiplies the (0, n) operator or runs the
    # penalty catalog, and both give the bits of the sums with every term
    n = 5
    if quad == "dense":
        root = rng.standard_normal((n, n))
        quad = root @ root.T
    reg = Regularizer(n, quad=quad, lin=None if lin is None else rng.standard_normal(n))
    h, basis = rng.standard_normal(n), rng.standard_normal((n, 3))
    res = reg.op @ h - reg.shift
    weights, penalty = reg.weights_and_penalty(reg.block_norms(res))
    value = 0.5 * float(h @ (reg.quad @ h)) - float(reg.lin @ h) + penalty
    grad = reg.quad @ h - reg.lin + reg.op.T @ (weights * res)
    op_basis = reg.op @ basis
    curvature = op_basis.T @ (weights[:, None] * op_basis) + basis.T @ (reg.quad @ basis)
    reg.op = _Refuse()
    for name in ("block_norms", "weights_and_penalty"):
        monkeypatch.setattr(Regularizer, name, _Refuse.__matmul__)
    got_weights, got_value, got_grad = reg.evaluate(h)
    assert got_weights.shape == (0,) and got_value == value
    assert got_grad.tobytes() == grad.tobytes()
    assert reg.curvature(basis, got_weights).tobytes() == curvature.tobytes()


@pytest.mark.parametrize("quad", [None, 1e-10])
def test_scalar_ridge_builds_no_dense_identity(quad):
    # a dense 2048-square identity alone is 32 MiB
    assert traced_peak(lambda: Regularizer(2048, quad=quad)) < 2**20


def test_quadratic_of_another_dimension_rejected():
    with pytest.raises(ValueError, match=re.escape("quad must be (3, 3), got (2, 2)")):
        Regularizer(3, quad=np.eye(2))


def test_indefinite_quadratic_rejected():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        Regularizer(2, quad=bad)


def test_dimension_mismatch_rejected():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    op = np.ones((4, 3))
    # a wrong column count, then rows that are not a multiple of the block size
    for bad_op, block_size in ((np.eye(2), 2), (op, 3)):
        shape = re.escape(str(bad_op.shape))
        with pytest.raises(ValueError, match=f"^block operator shape {shape} incompatible "
                                             f"with n_dim=3 and block size {block_size}$"):
            Regularizer(3, bad_op, spec, block_size)
    for block_size in (0, -2):
        with pytest.raises(ValueError, match=f"^block size must be at least 1, got {block_size}$"):
            Regularizer(3, op, spec, block_size)
    # a block size that is not an integer; a numpy integer is one
    for block_size in (1.5, 2.0, "2"):
        with pytest.raises(TypeError, match=f"^block size must be an integer, got {block_size!r}$"):
            Regularizer(3, op, spec, block_size)
    assert Regularizer(3, op, spec, np.int64(2)).n_blocks == 2
    # a dimension that is not an integer is rejected, not truncated; one below 1 too
    for n_dim in (2.5, 3.0, "3"):
        with pytest.raises(TypeError, match=f"^n_dim must be an integer, got {n_dim!r}$"):
            Regularizer(n_dim, quad=1.0)
    for n_dim in (0, -1):
        with pytest.raises(ValueError, match=f"^n_dim must be at least 1, got {n_dim}$"):
            Regularizer(n_dim, quad=1.0)
    assert Regularizer(np.int64(3), quad=1.0).n_dim == 3
    # blocks without a spec, and a spec that is not a PenaltySpec
    for bad_op, bad_spec in ((op, None), (op, "huber"), (None, "huber")):
        with pytest.raises(TypeError, match="^block spec must be a PenaltySpec"):
            Regularizer(3, bad_op, bad_spec)


def _multiply_curvature(reg, weights):
    """``op' (weights * op)`` by ``csr.multiply``, which goes through COO, densified."""
    csr = reg.op._csr
    return (reg.op.T._csr @ csr.multiply(weights[:, None])).toarray()


@pytest.mark.parametrize("size", [3, 5, 21])
def test_full_space_tv_curvature_is_the_multiply_formula_bit_for_bit(size):
    reg = build_isotropic_tv_regularizer(size, size, lam=1e-4, delta=1e-2, tau=0.0)
    gen = np.random.default_rng(size)
    for scale in (1e-8, 1.0, 1e8):
        weights = scale * gen.uniform(0.0, 1.0, reg.op.shape[0])
        assert np.array_equal(reg.curvature(None, weights), _multiply_curvature(reg, weights))


def test_full_space_random_curvature_is_the_multiply_formula_bit_for_bit():
    # random CSR operators with empty rows and blocks of 1 to 3 rows, weights spanning 16 decades;
    # no ridge, so the dense result is the product alone
    gen = np.random.default_rng(7)
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    for trial in range(15):
        n, block = int(gen.integers(1, 30)), int(gen.integers(1, 4))
        rows = block * int(gen.integers(1, 20))
        op = scipy.sparse.random(rows, n, density=gen.uniform(0.05, 0.6), format="csr",
                                 random_state=trial, data_rvs=gen.standard_normal)
        reg = Regularizer(n, op, spec, block)
        for _ in range(20):
            weights = 10.0 ** gen.uniform(-8, 8) * gen.uniform(0.0, 1.0, rows)
            assert np.array_equal(reg.curvature(None, weights), _multiply_curvature(reg, weights))
