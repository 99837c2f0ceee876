"""Running statistics and direct objective/gradient evaluation."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    brute_force_moments, make_sample_log, random_regularizer, stream_blocks, stream_moments,
    traced_peak,
)
from mmls import ArrayStream, Regularizer
from mmls.moments import (
    FOLD_BELOW,
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
    return stream_blocks(stream, q)


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


def _count_folds(state, samples):
    """Update ``state`` with ``samples``; the number of times the scale was folded into the sum."""
    folds = 0
    for sample in samples:
        scale = state._scale
        update(state, sample)
        folds += state.count > 1 and state._scale > scale
        assert FOLD_BELOW <= state._scale <= 1.0
    return folds


def test_lazy_mirror_matches_reading_after_every_update(rng):
    # n_dim 130 spans a partial 64-wide mirror panel; at forgetting 0.6 the
    # scale falls below FOLD_BELOW every 87 blocks, so 800 cross nine folds
    samples = make_sample_log(rng, 130, 5, 800)
    lazy, eager = MomentState.zeros(130, 0.6), MomentState.zeros(130, 0.6)
    folds = 0
    for k, sample in enumerate(samples):
        update(eager, sample)
        eager.autocorr  # each read mirrors the triangle written since the last one
        folds += _count_folds(lazy, [sample])
        if k in (0, 1, 400):
            lazy.autocorr
    assert folds == 9 and lazy._scale < 1.0
    assert np.array_equal(lazy.autocorr, eager.autocorr)
    assert np.array_equal(lazy.autocorr, lazy.autocorr.T)


@pytest.mark.parametrize(("block", "count"), [(1, 5000), (4, 4000)])
def test_scaled_statistics_match_closed_forms_across_folds(rng, block, count):
    # at forgetting 0.9 the scale falls below FOLD_BELOW about every 420 blocks
    samples = make_sample_log(rng, 6, block, count)
    state = MomentState.zeros(6, 0.9)
    assert _count_folds(state, samples) >= 2
    power, cross, autocorr, total = brute_force_moments(samples, 0.9)
    assert state.power == pytest.approx(power, rel=1e-10)
    assert_allclose(state.cross, cross, rtol=1e-10)
    assert_allclose(state.autocorr, autocorr, rtol=1e-10)
    assert state.weight_total == pytest.approx(total, rel=1e-12)
    vec = rng.standard_normal(6)
    expected = autocorr @ vec
    assert np.linalg.norm(autocorr_matvec(state, vec) - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("x", [1e120, 1e140])
def test_scaled_statistics_keep_large_entries_finite(x):
    # at forgetting 0.5 the scale halves every block, so ``stored`` grows to
    # 2**64 times ``autocorr`` (x**2, up to 1e280) before each fold
    state = MomentState.zeros(2, 0.5)
    sample = Sample(np.full((2, 1), x), np.ones(1))
    for _ in range(300):
        update(state, sample)
    assert_allclose(state.autocorr, np.full((2, 2), x * x), rtol=1e-15)


def test_reading_autocorr_leaves_the_stored_sum_alone(rng):
    state = stream_moments(make_sample_log(rng, 5, 2, 4), 0.9)
    assert state._scale < 1.0
    stored = state._stored.copy()
    first = state.autocorr
    assert not np.shares_memory(first, state._stored)
    assert np.array_equal(np.triu(state._stored), np.triu(stored))
    assert np.array_equal(state.autocorr, first)


@pytest.mark.parametrize("n_dim", [3, 441])
def test_autocorr_matvec_reads_the_stored_triangle(rng, n_dim):
    state = stream_moments(make_sample_log(rng, n_dim, 8, 3), 0.95)
    vec = rng.standard_normal(n_dim)
    product = autocorr_matvec(state, vec)  # before any read mirrors the triangle
    expected = state.autocorr @ vec
    assert np.linalg.norm(product - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("n_dim", [1, 7, 200])
def test_autocorr_matvec_writes_into_out_bit_for_bit(rng, n_dim):
    # into a row of a stack, the product the engine writes into its state
    state = stream_moments(make_sample_log(rng, n_dim, 8, 3), 0.95)
    stack = rng.standard_normal((2, 3, n_dim))
    stack[1, 0] = np.nan  # never read
    product = autocorr_matvec(state, stack[0, 0], out=stack[1, 0])
    assert np.shares_memory(product, stack) and np.array_equal(product, stack[1, 0])
    assert stack[1, 0].tobytes() == autocorr_matvec(state, stack[0, 0].copy()).tobytes()


def test_constructed_autocorr_reads_back_exactly(rng):
    autocorr = rng.standard_normal((5, 5))
    state = MomentState(power=0.0, cross=np.zeros(5), autocorr=autocorr, count=0,
                        forgetting=1.0, weight_total=0.0)
    assert np.array_equal(state.autocorr, autocorr)


def test_non_finite_sample_rejected():
    with pytest.raises(ValueError):
        Sample(np.array([[np.inf]]), np.array([1.0]))


@pytest.mark.parametrize(
    "layout", ["list", "integer", "1-d", "fortran-view", "negative-stride", "stream", "column-y"]
)
def test_sample_coerces_as_defined(rng, layout):
    base = rng.standard_normal((6, 8))
    X, y = {
        "list": (base[:3, :4].tolist(), base[4, :4].tolist()),
        "integer": (np.arange(12).reshape(3, 4), np.arange(4)),
        "1-d": (base[0, :5], base[1, :5]),
        "fortran-view": (np.asfortranarray(base)[1:4, 2:6], np.asfortranarray(base)[1:4, 2:6][0]),
        "negative-stride": (base[::-1, ::-2], base[0, ::-2]),
        "stream": (base[2:5].T, base[0, 2:5]),
        "column-y": (base[:3, :4], base[:4, 5:6]),
    }[layout]
    sample = Sample(X, y)
    # the coercion every Sample applies, written out
    for got, given, want in ((sample.X, X, np.atleast_2d(np.asarray(X, dtype=float))),
                             (sample.y, y, np.asarray(y, dtype=float).reshape(-1))):
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        assert np.shares_memory(got, given) == np.shares_memory(want, given)


@pytest.mark.parametrize(
    "X, y",
    [([[1.0, np.nan]], [0.0, 1.0]), (np.ones((2, 2)), np.array([np.inf, 0.0])),
     (np.array([[-np.inf, 1.0]]), [1, 2])],
    ids=["list-X", "array-y", "array-X"],
)
def test_non_finite_sample_entries_rejected(X, y):
    with pytest.raises(ValueError, match="finite"):
        Sample(X, y)


def test_invalid_forgetting_rejected():
    with pytest.raises(ValueError):
        MomentState.zeros(2, 0.0)
    with pytest.raises(ValueError):
        MomentState.zeros(2, 1.5)


@pytest.mark.parametrize("forgetting", [-1.0, np.nan])
def test_constructor_rejects_invalid_forgetting(forgetting):
    # unchecked, -1 makes the second update divide by a zero weight total and NaN poisons the statistics
    with pytest.raises(ValueError, match=r"^forgetting factor must lie in \(0, 1\], got "):
        MomentState(0.0, [0.0], [[0.0]], 0, forgetting=forgetting, weight_total=0.0)


def test_zeros_allocates_one_square():
    n_dim = 1024
    assert traced_peak(lambda: MomentState.zeros(n_dim)) < 1.05 * 8 * n_dim * n_dim
    autocorr = MomentState.zeros(n_dim).autocorr
    assert autocorr.flags.c_contiguous and autocorr.flags.owndata and autocorr.flags.writeable
    assert not autocorr.any()


@pytest.mark.parametrize("X, y, message", [
    ([[1.0, 2.0]], [1.0], "block mismatch: X has 2 columns, y has 1 entries"),
    (np.zeros((2, 0)), [], "block size must be at least 1"),
], ids=["mismatch", "empty"])
def test_malformed_sample_rejected(X, y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Sample(X, y)


# --- objective -----------------------------------------------------------


def test_references_reject_a_regularizer_of_another_dimension():
    with pytest.raises(ValueError, match="^dimension mismatch: state 2, regularizer 3$"):
        objective(MomentState.zeros(2), Regularizer(3), [0, 0])


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
    reg = Regularizer(3, np.eye(3), spec, 3, quad=quad)
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


def _sample_layouts(rng):
    """``(X, y)`` pairs of every layout a ``Sample`` screens: name -> builder."""
    base = rng.standard_normal((6, 8))
    signal = rng.standard_normal(12)
    return {
        "c-ordered": lambda: (base[:3, :4].copy(), base[4, :4].copy()),
        "fortran": lambda: (np.asfortranarray(base[:3, :4]), base[4, :4].copy()),
        "strided": lambda: (base.copy()[::2, ::-2], base.copy()[5, ::2]),
        "window-view": lambda: (
            np.lib.stride_tricks.sliding_window_view(signal.copy(), 4, writeable=True)[2:5].T,
            base[4, :3].copy(),
        ),
    }


@pytest.mark.parametrize("value", [1e200, -1e200, 1e300])
@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("layout", ["c-ordered", "fortran", "strided", "window-view", "resample"])
def test_sample_accepts_entries_whose_squares_overflow(rng, layout, where, value):
    # the one-pass sum of squares is infinite here; the elementwise screen
    # then passes the finite entries, with no floating-point warning
    X, y = _sample_layouts(rng)["window-view" if layout == "resample" else layout]()
    (X if where == "X" else y)[(0, 0) if where == "X" else 0] = value
    sample = Sample(X, y)
    if layout == "resample":
        sample = Sample(sample.X, sample.y)
    assert np.shares_memory(sample.X, X) and np.shares_memory(sample.y, y)
    assert (sample.X if where == "X" else sample.y).flat[0] == value


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("layout", ["c-ordered", "fortran", "strided", "window-view", "resample"])
def test_sample_rejects_non_finite_entries_of_every_layout(rng, layout, where, value):
    X, y = _sample_layouts(rng)["c-ordered" if layout == "resample" else layout]()
    if layout == "resample":
        # another Sample's arrays pass through unconverted, and are screened again
        first = Sample(X, y)
        X, y = first.X, first.y
    target = X if where == "X" else y
    target[(target.shape[0] - 1, 1) if where == "X" else -1] = value
    with pytest.raises(ValueError, match="^sample entries must be finite$"):
        Sample(X, y)


def test_sample_screens_a_block_with_no_coordinates():
    # an (0, q) block has an empty sum of squares; its targets are still screened
    assert Sample(np.zeros((0, 2)), [1.0, 2.0]).X.shape == (0, 2)
    with pytest.raises(ValueError, match="^sample entries must be finite$"):
        Sample(np.zeros((0, 2)), [1.0, np.nan])
