"""Potential catalog and composite regularizer tests."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
    assert spec.value(t) == pytest.approx(expected, abs=1e-14)


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
    assert spec.weight(t) == pytest.approx(expected, rel=1e-12)


def test_huber_weight_beyond_knee():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    assert spec.weight(5.0) == pytest.approx(2.0 / 5.0)


def test_welsch_derivative_value():
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    assert spec.derivative(1.0) == pytest.approx(np.exp(-0.5), rel=1e-9)


def test_huber_derivative_in_quadratic_core():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    assert spec.derivative(0.5) == pytest.approx(1.0)


def test_power_kappa_two_is_quadratic():
    spec = PenaltySpec("l2lkappa-power", lam=1.0, delta=2.0, kappa=2.0)
    t = np.linspace(-30, 30, 101)
    assert_allclose(spec.value(t), (t / 2.0) ** 2, rtol=1e-13)
    assert_allclose(spec.weight(t), np.full_like(t, 0.5), rtol=1e-13)


def test_geman_mcclure_saturates():
    spec = PenaltySpec("gemanmcclure", lam=1.3, delta=0.5)
    cut = np.sqrt(6.0) * 0.5
    assert spec.value(cut) == pytest.approx(1.3, rel=1e-12)
    assert spec.value(10.0) == pytest.approx(1.3)
    assert spec.weight(cut + 1e-9) == 0.0


# --- structural properties over the whole catalog ----------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_even_and_zero_at_origin(spec):
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 10 * spec.delta, 500)
    plus, minus = spec.value(t), spec.value(-t)
    assert np.all(np.abs(plus - minus) <= 1e-12 * (1.0 + np.abs(plus)))
    assert spec.value(0.0) == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_weight_nonnegative_bounded_peaks_at_zero(spec):
    grid = np.concatenate([[0.0], np.logspace(-8, 6, 400) * spec.delta])
    w = spec.weight(grid)
    assert np.all(w >= 0.0)
    assert np.all(w <= spec.weight(0.0) + 1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_quadratic_majorization_inequality(spec):
    # psi(t2) <= psi(t) + psi'(t)(t2 - t) + 1/2 nu(|t|)(t2 - t)^2
    rng = np.random.default_rng(7)
    span = 10 * spec.delta
    t = rng.uniform(-span, span, 10_000)
    t2 = rng.uniform(-span, span, 10_000)
    lhs = spec.value(t2)
    rhs = spec.value(t) + spec.derivative(t) * (t2 - t) + 0.5 * spec.weight(t) * (t2 - t) ** 2
    assert np.all(rhs - lhs >= -1e-10 * (1.0 + np.abs(rhs)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_concave_in_squared_argument(spec):
    rng = np.random.default_rng(11)
    span = (10 * spec.delta) ** 2
    a = rng.uniform(0.0, span, 1000)
    b = rng.uniform(0.0, span, 1000)
    mid = spec.value(np.sqrt(0.5 * (a + b)))
    assert np.all(mid >= 0.5 * spec.value(np.sqrt(a)) + 0.5 * spec.value(np.sqrt(b)) - 1e-10)


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
    numeric = (spec.value(t + h) - spec.value(t - h)) / (2 * h)
    analytic = spec.derivative(t)
    assert np.all(np.abs(numeric - analytic) <= 1e-6 * (1.0 + np.abs(analytic)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids(ALL_SPECS))
def test_derivative_is_odd_and_zero_at_origin(spec):
    t = np.linspace(0.1, 5 * spec.delta, 50)
    assert_allclose(spec.derivative(-t), -spec.derivative(t), rtol=1e-12)
    assert spec.derivative(0.0) == 0.0


@settings(max_examples=200)
@given(t=st.floats(min_value=-1e6, max_value=1e6))
def test_hypothesis_evenness_and_bounded_weight(t):
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    assert spec.value(t) == spec.value(-t)
    assert 0.0 <= spec.weight(t) <= spec.weight(0.0) + 1e-12


def test_non_finite_argument_rejected():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    with pytest.raises(ValueError):
        spec.value(np.nan)
    with pytest.raises(ValueError):
        spec.weight(np.inf)


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


def test_weights_and_penalty_equal_the_separate_passes(rng):
    delta = ALL_SPECS[0].delta
    # the origin, a norm whose square underflows, the Huber and Geman-McClure seams, a far tail
    probes = [0.0, 1e-300, delta, np.sqrt(6.0) * delta, 1e3 * delta]
    # every kind in one regularizer, kinds interleaved, one- and two-row blocks
    specs = ALL_SPECS * len(probes)
    reg = Regularizer(3, [(rng.standard_normal((1 + i % 2, 3)), None, spec) for i, spec in enumerate(specs)])
    norms = np.repeat(probes, len(ALL_SPECS))
    weights, total = reg.weights_and_penalty(norms)
    np.testing.assert_array_equal(weights, reg.weights_from_norms(norms))
    assert total == reg.penalty_sum(norms)
    assert weights.shape == (reg.total_rows,)


def test_weights_all_ones_for_unit_welsch_at_zero():
    n = 5
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    reg = Regularizer(n, [(np.eye(n), None, spec)])
    assert_allclose(reg.weights(np.zeros(n)), np.ones(n))


def test_weights_replicated_per_block():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    rng = np.random.default_rng(3)
    blocks = [(rng.standard_normal((2, 4)), None, spec), (rng.standard_normal((1, 4)), None, spec)]
    reg = Regularizer(4, blocks)
    b = reg.weights(rng.standard_normal(4))
    assert b.shape == (3,)
    assert b[0] == b[1]


def test_weights_huber_beyond_knee_vector():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    reg = Regularizer(2, [(np.eye(2), None, spec)])
    assert_allclose(reg.weights(np.array([3.0, 4.0])), [0.4, 0.4])


def test_weights_unchanged_by_kernel_perturbation():
    # directions annihilated by a block operator cannot change its weight
    spec = PenaltySpec("cauchy", lam=0.8, delta=0.3, kappa=1.2)
    op = np.array([[1.0, -1.0, 0.0]])
    reg = Regularizer(3, [(op, None, spec)])
    h = np.array([0.3, -0.2, 0.9])
    d = np.array([1.0, 1.0, -5.0])  # op @ d == 0
    assert reg.weights(h)[0] == reg.weights(h + d)[0]


def test_value_zero_at_origin_without_offsets():
    rng = np.random.default_rng(8)
    spec = PenaltySpec("green", lam=1.0)
    reg = Regularizer(6, [(rng.standard_normal((2, 6)), None, spec)])
    assert reg.value(np.zeros(6)) == 0.0


def test_value_pure_quadratic():
    reg = Regularizer(1, quad=np.array([[2.0]]), lin=np.array([3.0]))
    assert reg.value(np.array([1.0])) == pytest.approx(-2.0)


def test_value_composes_from_potential(rng):
    # one identity block penalizes the whole-vector norm
    spec = PenaltySpec("welsch", lam=1.0, delta=1.0)
    n = 4
    reg = Regularizer(n, [(np.eye(n), None, spec)], quad=0.5)
    h = rng.standard_normal(n)
    expected = 0.25 * float(h @ h) + spec.value(float(np.linalg.norm(h)))
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
    second = rng.standard_normal((3, 4))
    shifts = (rng.standard_normal(2), rng.standard_normal(3))
    reg = Regularizer(4, [(first, shifts[0], spec), (second, shifts[1], spec)])
    assert_allclose(reg.op.toarray(), np.vstack([first, second]))
    assert_allclose(reg.shift, np.concatenate(shifts))
    assert list(reg.offsets) == [0, 2, 5]


def test_operator_form_follows_the_matrix(rng):
    n = 5
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    h, hs = rng.standard_normal(n), rng.standard_normal((n, 2))
    eye = np.eye(n)
    # scaled identity: identity blocks, a scalar ridge, a dense 2 I, no quad
    ident = Regularizer(n, [(eye[s : s + 1], None, spec) for s in range(n)], quad=0.3)
    assert (ident.op.scale, ident.quad.scale) == (1.0, 0.3)
    assert Regularizer(n, quad=2.0 * eye).quad.scale == 2.0
    assert np.array_equal(ident.op.toarray(), eye)
    assert np.array_equal(ident.quad.toarray(), 0.3 * np.eye(n))
    product = ident.op @ h
    assert np.array_equal(product, h) and product is not h
    assert np.array_equal(ident.quad @ hs, 0.3 * hs)
    with pytest.raises(ValueError):
        ident.quad @ np.ones(n + 1)
    bare = Regularizer(n)
    assert bare.quad.scale == 0.0
    assert np.array_equal(bare.quad.toarray(), np.zeros((n, n)))
    assert bare.op.scale is None and bare.op.shape == (0, n)
    assert (bare.op @ h).shape == (0,)
    assert np.array_equal(bare.op.T @ np.zeros(0), np.zeros(n))
    # CSR: dense blocks, a constant diagonal with off-diagonal entries, a
    # non-constant diagonal, finite differences
    ops = [rng.standard_normal((2, n)), rng.standard_normal((3, n))]
    quad = 2.0 * eye + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    dense = Regularizer(n, [(op, None, spec) for op in ops], quad=quad)
    assert Regularizer(n, quad=np.diag(np.arange(1.0, n + 1))).quad.scale is None
    stacked = np.vstack(ops)
    assert dense.op.scale is None and dense.quad.scale is None
    assert np.array_equal(dense.op.toarray(), stacked)
    assert np.array_equal(dense.op.T.toarray(), stacked.T)
    assert np.array_equal(dense.quad.toarray(), quad)
    assert dense.op.shape == (5, n) and dense.op.T.shape == (n, 5)
    assert_allclose(dense.op @ hs, stacked @ hs, rtol=1e-12, atol=1e-13)
    residual = rng.standard_normal(5)
    assert_allclose(dense.op.T @ residual, stacked.T @ residual, rtol=1e-12, atol=1e-13)
    tv = build_isotropic_tv_regularizer(3, 4, lam=1.0, delta=1.0)
    assert tv.op.scale is None and tv.quad.scale == 1e-10
    with pytest.raises(TypeError):
        eye + ident.quad


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
    assert np.array_equal(tv.block_sizes, np.full(rows * cols, 2))
    rng = np.random.default_rng(5)
    h, r = rng.standard_normal(rows * cols), rng.standard_normal(2 * rows * cols)
    assert np.array_equal(tv.op @ h, reference @ h)
    assert np.array_equal(tv.op.T @ r, reference.T.tocsr() @ r)


def test_stacked_blocks_match_block_list():
    rng = np.random.default_rng(6)
    spec, other = PenaltySpec("huber", lam=1.0, delta=0.5), PenaltySpec("welsch", lam=0.2, delta=1.0)
    ops = [rng.standard_normal((2, 4)), rng.standard_normal((1, 4))]
    shift = rng.standard_normal(3)
    listed = Regularizer(4, [(ops[0], shift[:2], spec), (ops[1], shift[2:], other)], quad=0.1)
    for op in (np.vstack(ops), scipy.sparse.csr_array(np.vstack(ops))):
        stacked = Regularizer.stacked(4, op, [2, 1], [spec, other], shift=shift, quad=0.1)
        assert np.array_equal(stacked.op.toarray(), listed.op.toarray())
        h = rng.standard_normal(4)
        assert stacked.value(h) == pytest.approx(listed.value(h), rel=1e-14)
        assert_allclose(stacked.gradient(h), listed.gradient(h), rtol=1e-14)
    with pytest.raises(ValueError, match="incompatible"):
        Regularizer.stacked(4, np.vstack(ops), [2, 2], [spec, other])
    with pytest.raises(ValueError, match="specs"):
        Regularizer.stacked(4, np.vstack(ops), [2, 1], [spec])
    with pytest.raises(ValueError, match="^block op must be finite"):
        Regularizer.stacked(2, scipy.sparse.csr_array(np.array([[np.nan, 1.0]])), [1], [spec])


_HUBER = PenaltySpec("huber", lam=1.0, delta=1.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        pytest.param({"blocks": [(np.array([[np.nan, 1.0]]), None, _HUBER)]}, "block op", id="op"),
        pytest.param(
            {"blocks": [(np.array([[1.0, 0.0]]), np.array([np.inf]), _HUBER)]}, "shift", id="shift"
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
    assert reg.total_rows == 0
    assert reg.value(h) == pytest.approx(float(h @ h))
    assert reg.weights(h).shape == (0,)


def test_indefinite_quadratic_rejected():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        Regularizer(2, quad=bad)


def test_dimension_mismatch_rejected():
    spec = PenaltySpec("huber", lam=1.0, delta=1.0)
    with pytest.raises(ValueError):
        Regularizer(3, [(np.eye(2), None, spec)])
