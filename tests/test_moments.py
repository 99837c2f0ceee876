"""Running statistics and direct objective/gradient evaluation."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import brute_force_moments, make_sample_log, random_regularizer, stream_moments
from mmls import ArrayStream, Regularizer
from mmls.moments import (
    MomentState,
    Sample,
    autocorr_matvec,
    gradient,
    normal_matrix,
    normal_rhs,
    objective,
    update,
)


def test_first_block_reproduces_raw_products(rng):
    X = rng.standard_normal((4, 2))
    y = rng.standard_normal(2)
    state = update(MomentState.zeros(4), Sample(X, y))
    assert state.count == 1
    assert state.weight_total == 1.0
    assert_allclose(state.cross, X @ y)
    assert_allclose(state.autocorr, X @ X.T)
    assert state.power == pytest.approx(float(y @ y))


def test_two_blocks_unit_forgetting_is_mean(rng):
    samples = make_sample_log(rng, 3, 2, 2)
    state = stream_moments(samples, 1.0)
    expected = 0.5 * (samples[0].X @ samples[0].y + samples[1].X @ samples[1].y)
    assert_allclose(state.cross, expected, rtol=1e-14)
    assert state.weight_total == 2.0


def test_two_blocks_half_forgetting(rng):
    samples = make_sample_log(rng, 3, 2, 2)
    state = stream_moments(samples, 0.5)
    expected = (0.5 * samples[0].X @ samples[0].y + samples[1].X @ samples[1].y) / 1.5
    assert_allclose(state.cross, expected, rtol=1e-14)
    assert state.weight_total == pytest.approx(1.5)


@pytest.mark.parametrize("forgetting", [1.0, 0.99, 0.5])
def test_streaming_matches_closed_forms(rng, forgetting):
    samples = make_sample_log(rng, 5, 3, 40)
    state = stream_moments(samples, forgetting)
    power, cross, autocorr, total = brute_force_moments(samples, forgetting)
    assert state.power == pytest.approx(power, rel=1e-10)
    assert_allclose(state.cross, cross, rtol=1e-10, atol=1e-12)
    assert_allclose(state.autocorr, autocorr, rtol=1e-10, atol=1e-12)
    assert state.weight_total == pytest.approx(total, rel=1e-12)


def test_weight_total_closed_form():
    state = MomentState.zeros(2, 0.9)
    for k in range(1, 30):
        state = update(state, Sample(np.ones((2, 1)), np.ones(1)))
        assert state.weight_total == pytest.approx((1 - 0.9**k) / (1 - 0.9), rel=1e-12)


def _stream_blocks(rng, q):
    """Blocks as ``ArrayStream`` yields them: transposed row slices."""
    stream = ArrayStream(rng.standard_normal((3 * q, 100)), rng.standard_normal(3 * q))
    return list(stream.blocks(q))


# At n_dim 100 numpy multiplies the two strided views without BLAS and the
# product comes out asymmetric by a few ulps; the update must still leave
# an exactly symmetric matrix.
_BLOCK_LAYOUTS = {
    "c-ordered": lambda rng: make_sample_log(rng, 6, 2, 25),
    "stream-q1": lambda rng: _stream_blocks(rng, 1),
    "stream-q7": lambda rng: _stream_blocks(rng, 7),
    "stream-q64": lambda rng: _stream_blocks(rng, 64),
    "column-step-2": lambda rng: [
        Sample(rng.standard_normal((100, 128))[:, ::2], rng.standard_normal(64)) for _ in range(3)
    ],
    "negative-stride": lambda rng: [
        Sample(rng.standard_normal((100, 64))[:, ::-1], rng.standard_normal(64)) for _ in range(3)
    ],
}


@pytest.mark.parametrize("layout", list(_BLOCK_LAYOUTS))
def test_autocorr_exactly_symmetric_and_psd(rng, layout):
    samples = _BLOCK_LAYOUTS[layout](rng)
    if layout.startswith("stream"):
        X = samples[0].X
        assert np.array_equal(update(MomentState.zeros(X.shape[0]), samples[0]).autocorr, X @ X.T)
    state = stream_moments(samples, 0.95)
    assert np.array_equal(state.autocorr, state.autocorr.T)
    z = rng.standard_normal((100, state.n_dim))
    quad = np.einsum("ij,jk,ik->i", z, state.autocorr, z)
    assert np.all(quad >= -1e-10 * np.linalg.norm(state.autocorr) * (z * z).sum(axis=1))


def test_block_size_change_rejected(rng):
    state = update(MomentState.zeros(3), Sample(rng.standard_normal((3, 2)), rng.standard_normal(2)))
    with pytest.raises(ValueError):
        update(state, Sample(rng.standard_normal((3, 4)), rng.standard_normal(4)))


def test_dimension_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        update(MomentState.zeros(3), Sample(rng.standard_normal((4, 1)), rng.standard_normal(1)))


def test_rejected_update_leaves_state_untouched(rng):
    state = stream_moments(make_sample_log(rng, 4, 3, 5), 0.9)
    before = (state.power, state.cross.copy(), state.autocorr.copy())
    counters = (state.count, state.weight_total, state.block_size)
    for n_dim, block in ((5, 3), (4, 2)):  # dimension mismatch, block-size change
        with pytest.raises(ValueError):
            update(state, Sample(rng.standard_normal((n_dim, block)), rng.standard_normal(block)))
        assert state.power == before[0]
        assert np.array_equal(state.cross, before[1])
        assert np.array_equal(state.autocorr, before[2])
        assert (state.count, state.weight_total, state.block_size) == counters


@pytest.mark.parametrize("layout", ["fortran", "integer"])
def test_update_lands_in_coerced_buffers(rng, layout):
    # BLAS works on a copy of a buffer that is not Fortran-ordered float64
    # (autocorr.T here), so the constructor must hand it an owned C array
    n_dim = 6
    if layout == "fortran":
        cross, autocorr = np.zeros(n_dim), np.zeros((n_dim, n_dim), order="F")
    else:
        cross, autocorr = np.zeros(n_dim, dtype=int), np.zeros((n_dim, n_dim), dtype=int)
    state = MomentState(power=0.0, cross=cross, autocorr=autocorr, count=0,
                        forgetting=0.97, weight_total=0.0)
    samples = make_sample_log(rng, n_dim, 3, 20)
    for sample in samples:
        assert update(state, sample) is state
    power, cross, autocorr, total = brute_force_moments(samples, 0.97)
    assert state.power == pytest.approx(power, rel=1e-10)
    assert_allclose(state.cross, cross, rtol=1e-10)
    assert_allclose(state.autocorr, autocorr, rtol=1e-10)
    assert state.weight_total == pytest.approx(total, rel=1e-12)


def test_state_rejects_mismatched_buffers():
    with pytest.raises(ValueError):
        MomentState(power=0.0, cross=np.zeros(3), autocorr=np.zeros((3, 4)), count=0,
                    forgetting=1.0, weight_total=0.0)


def test_update_allocates_no_square_temporary(rng):
    n_dim, block = 300, 16
    state = MomentState.zeros(n_dim, 0.99)
    samples = make_sample_log(rng, n_dim, block, 2)
    update(state, samples[0])
    tracemalloc.start()
    try:
        update(state, samples[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_dim * n_dim * 8 / 4


def test_lazy_mirror_matches_reading_after_every_update(rng):
    # n_dim 130 spans a partial 64-wide mirror panel
    samples = make_sample_log(rng, 130, 5, 3)
    lazy, eager = MomentState.zeros(130, 0.9), MomentState.zeros(130, 0.9)
    for sample in samples:
        update(eager, sample)
        eager.autocorr  # each read mirrors the triangle written since the last one
    update(lazy, samples[0])
    lazy.autocorr
    update(lazy, samples[1])
    update(lazy, samples[2])
    assert np.array_equal(lazy.autocorr, eager.autocorr)
    assert np.array_equal(lazy.autocorr, lazy.autocorr.T)


@pytest.mark.parametrize("n_dim", [3, 441])
def test_autocorr_matvec_reads_the_stored_triangle(rng, n_dim):
    state = stream_moments(make_sample_log(rng, n_dim, 8, 3), 0.95)
    vec = rng.standard_normal(n_dim)
    product = autocorr_matvec(state, vec)  # before any read mirrors the triangle
    expected = state.autocorr @ vec
    assert np.linalg.norm(product - expected) <= 1e-13 * np.linalg.norm(expected)


def test_constructed_autocorr_reads_back_exactly(rng):
    autocorr = rng.standard_normal((5, 5))
    state = MomentState(power=0.0, cross=np.zeros(5), autocorr=autocorr, count=0,
                        forgetting=1.0, weight_total=0.0)
    assert np.array_equal(state.autocorr, autocorr)


def test_non_finite_sample_rejected():
    with pytest.raises(ValueError):
        Sample(np.array([[np.inf]]), np.array([1.0]))


def test_invalid_forgetting_rejected():
    with pytest.raises(ValueError):
        MomentState.zeros(2, 0.0)
    with pytest.raises(ValueError):
        MomentState.zeros(2, 1.5)


# --- objective -----------------------------------------------------------


def test_objective_at_origin_is_half_power(rng):
    samples = make_sample_log(rng, 4, 2, 5)
    state = stream_moments(samples, 1.0)
    reg = Regularizer(4)
    assert objective(state, reg, np.zeros(4)) == pytest.approx(0.5 * state.power)


def test_objective_single_block_is_half_residual(rng):
    X = rng.standard_normal((4, 3))
    y = rng.standard_normal(3)
    state = update(MomentState.zeros(4), Sample(X, y))
    reg = Regularizer(4)
    h = rng.standard_normal(4)
    expected = 0.5 * float(np.sum((y - X.T @ h) ** 2))
    assert objective(state, reg, h) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("forgetting", [1.0, 0.9])
def test_objective_matches_raw_stream_form(rng, forgetting):
    samples = make_sample_log(rng, 5, 2, 15)
    state = stream_moments(samples, forgetting)
    reg = random_regularizer(rng, 5, kind="huber")
    h = rng.standard_normal(5)
    n = len(samples)
    weights = np.array([forgetting ** (n - k) for k in range(1, n + 1)])
    residuals = [float(np.sum((s.y - s.X.T @ h) ** 2)) for s in samples]
    expected = 0.5 * float(weights @ residuals) / weights.sum() + reg.value(h)
    assert objective(state, reg, h) == pytest.approx(expected, rel=1e-10)


# --- normal equations ------------------------------------------------------


def test_rhs_reduces_to_cross_when_shifts_vanish(rng):
    samples = make_sample_log(rng, 4, 1, 6)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 4, with_shift=False)
    reg.lin[:] = 0.0
    assert_allclose(normal_rhs(state, reg, rng.standard_normal(4)), state.cross)


def test_rhs_without_blocks(rng):
    samples = make_sample_log(rng, 4, 1, 6)
    state = stream_moments(samples, 1.0)
    lin = rng.standard_normal(4)
    reg = Regularizer(4, quad=1.0, lin=lin)
    assert_allclose(normal_rhs(state, reg, np.zeros(4)), state.cross + lin)


def test_rhs_matches_dense_assembly(rng):
    samples = make_sample_log(rng, 6, 2, 8)
    state = stream_moments(samples, 0.97)
    reg = random_regularizer(rng, 6, kind="l2l1-log")
    h = rng.standard_normal(6)
    b = reg.weights(h)
    expected = state.cross + reg.lin + reg.op.T @ np.diag(b) @ reg.shift
    assert_allclose(normal_rhs(state, reg, h), expected, rtol=1e-12)


def test_curvature_without_blocks_is_autocorr(rng):
    samples = make_sample_log(rng, 4, 2, 6)
    state = stream_moments(samples, 1.0)
    reg = Regularizer(4)
    assert_allclose(normal_matrix(state, reg, np.zeros(4)), state.autocorr)


def test_curvature_with_dead_weights(rng):
    # saturated blocks contribute nothing beyond autocorr + quad
    from mmls import PenaltySpec

    spec = PenaltySpec("gemanmcclure", lam=1.0, delta=0.1)
    quad = np.diag(rng.uniform(0.5, 1.0, 3))
    reg = Regularizer(3, [(np.eye(3), None, spec)], quad=quad)
    samples = make_sample_log(rng, 3, 1, 4)
    state = stream_moments(samples, 1.0)
    h = np.full(3, 10.0)  # far beyond the cutoff, all weights zero
    assert_allclose(normal_matrix(state, reg, h), state.autocorr + quad)


def test_curvature_psd_and_dominates_base(rng):
    samples = make_sample_log(rng, 5, 2, 10)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 5, kind="tukeybiweight")
    h = rng.standard_normal(5)
    mat = normal_matrix(state, reg, h)
    assert np.array_equal(mat, mat.T)
    extra = mat - state.autocorr - reg.quad.toarray()
    vals = np.linalg.eigvalsh(extra)
    assert vals.min() >= -1e-10 * max(1.0, vals.max())


# --- gradient -----------------------------------------------------------------


def test_gradient_at_origin_without_offsets(rng):
    samples = make_sample_log(rng, 4, 2, 5)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 4, with_shift=False)
    reg.lin[:] = 0.0
    assert_allclose(gradient(state, reg, np.zeros(4)), -state.cross, atol=1e-14)


def test_gradient_quadratic_case(rng):
    samples = make_sample_log(rng, 4, 2, 5)
    state = stream_moments(samples, 1.0)
    lin = rng.standard_normal(4)
    quad = np.diag(rng.uniform(0.1, 1.0, 4))
    reg = Regularizer(4, quad=quad, lin=lin)
    h = rng.standard_normal(4)
    assert_allclose(
        gradient(state, reg, h), state.autocorr @ h + quad @ h - state.cross - lin, rtol=1e-12
    )


@pytest.mark.parametrize("kind", ["huber", "welsch", "green", "l2lkappa-power",
                                  "gemanmcclure", "tukeybiweight", "hyperboliclog",
                                  "cauchy", "l2l1-log"])
def test_gradient_matches_finite_differences(rng, kind):
    samples = make_sample_log(rng, 5, 2, 8)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 5, kind=kind)
    h = 0.3 * rng.standard_normal(5)
    grad = gradient(state, reg, h)
    eps = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = eps
        fd = (objective(state, reg, h + e) - objective(state, reg, h - e)) / (2 * eps)
        assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-7)
