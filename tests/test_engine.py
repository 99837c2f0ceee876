"""Subspace engine: recursions, descent, optimality, edge cases."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_sample_log, random_regularizer
from mmls import (
    DivergenceError,
    MMEngine,
    PenaltySpec,
    Regularizer,
    SubspaceStrategy,
    build_isotropic_tv_regularizer,
    build_subspace,
    identity_blocks_regularizer,
    majorant_value,
    quadratic_closed_form,
    reduced_matrix,
    reduced_solve,
    subspace_mm_path,
)
from mmls import moments as mom


def anchor_coords(strategy, state):
    if SubspaceStrategy(strategy) is SubspaceStrategy.FULL_SPACE:
        return state.h_prev
    unit = np.zeros(state.basis.shape[1])
    unit[1] = 1.0
    return unit


class TestBuildSubspace:
    def test_memory_gradient_first_step(self):
        g = np.array([1.0, 2.0])
        h = np.array([3.0, 4.0])
        basis = build_subspace("memory-gradient", g, h, h, 1)
        assert basis.shape == (2, 2)
        assert_allclose(basis[:, 0], -g)
        assert_allclose(basis[:, 1], h)

    def test_memory_gradient_later_steps(self):
        g = np.array([1.0, 0.0])
        h = np.array([1.0, 1.0])
        h_prev = np.array([0.5, 1.0])
        basis = build_subspace("memory-gradient", g, h, h_prev, 5)
        assert basis.shape == (2, 3)
        assert_allclose(basis[:, 2], h - h_prev)

    def test_stationary_step_column_is_zero(self):
        h = np.array([1.0, -1.0])
        basis = build_subspace("memory-gradient", np.zeros(2), h, h, 3)
        assert_allclose(basis[:, 0], 0.0)
        assert_allclose(basis[:, 2], 0.0)

    def test_gradient_only(self):
        basis = build_subspace("gradient-only", np.ones(3), np.zeros(3), np.zeros(3), 9)
        assert basis.shape == (3, 2)

    def test_full_space_is_identity(self):
        basis = build_subspace("full-space", np.ones(3), np.zeros(3), np.zeros(3), 2)
        assert_allclose(basis, np.eye(3))


class TestReducedSolve:
    def test_rank_deficient_minimum_norm(self):
        u = reduced_solve(np.diag([4.0, 0.0]), np.array([4.0, 0.0]))
        assert_allclose(u, [1.0, 0.0])

    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        assert_allclose(reduced_solve(np.eye(3), rhs), rhs)

    def test_full_rank_residual(self, rng):
        m = rng.standard_normal((4, 4))
        mat = m @ m.T + 0.1 * np.eye(4)
        rhs = rng.standard_normal(4)
        u = reduced_solve(mat, rhs)
        assert np.linalg.norm(mat @ u - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_asymmetric_input_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            reduced_solve(bad, np.ones(2))


def test_scalar_worked_example():
    # single observation (X, y) = (1, 2): the step lands on the exact
    # least-squares minimizer and the reduced system is rank one
    reg = Regularizer(1)
    engine = MMEngine(reg, strategy="memory-gradient")
    report = engine.step(np.array([[1.0]]), np.array([2.0]))
    assert engine.state.grad == pytest.approx(-2.0)
    assert_allclose(engine.state.basis, np.array([[2.0, 0.0]]))
    assert engine.h[0] == pytest.approx(2.0)
    assert report.subspace_dim == 2
    assert report.rank == 1


def test_first_step_gradient_is_negative_rhs(rng):
    reg = random_regularizer(rng, 6, kind="welsch")
    engine = MMEngine(reg, strategy="memory-gradient")
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(2)
    engine.step(X, y)
    rhs = mom.normal_rhs(engine.moments, reg, np.zeros(6))
    assert_allclose(engine.state.grad, -rhs, rtol=1e-12)


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space"])
def test_user_initial_iterate(rng, strategy):
    reg = random_regularizer(rng, 5)
    h1 = rng.standard_normal(5)
    engine = MMEngine(reg, strategy=strategy, h1=h1)
    X = rng.standard_normal((5, 2))
    y = rng.standard_normal(2)
    engine.step(X, y)
    assert_allclose(engine.state.grad, mom.gradient(engine.moments, reg, h1), rtol=1e-10)


def _dense_quad_regularizer(rng):
    spec = PenaltySpec("huber", lam=0.2, delta=0.3)
    root = rng.standard_normal((8, 8))
    blocks = [(rng.standard_normal((2, 8)), None, spec) for _ in range(3)]
    return Regularizer(8, blocks, quad=0.05 * root @ root.T, lin=0.01 * rng.standard_normal(8))


# one regularizer per operator form: CSR blocks and s I ridge, s I blocks
# and ridge, CSR finite differences with all-zero boundary rows, CSR quad
_STRUCTURES = {
    "dense-blocks": lambda rng: random_regularizer(
        rng, 8, kind="huber", n_blocks=3, lam=0.2, delta=0.3
    ),
    "identity-ridge": lambda rng: identity_blocks_regularizer(
        8, PenaltySpec("huber", lam=0.2, delta=0.3), tau=1e-2
    ),
    "tv2d": lambda rng: build_isotropic_tv_regularizer(3, 4, lam=0.2, delta=0.3),
    "dense-quad": _dense_quad_regularizer,
}


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space"])
@pytest.mark.parametrize(
    "structure, forgetting",
    [
        # the dense-block case keeps the ids it had before structures were added
        pytest.param(
            name, forgetting, id=str(forgetting) if name == "dense-blocks" else f"{name}-{forgetting}"
        )
        for name in _STRUCTURES
        for forgetting in (1.0, 0.99)
    ],
)
def test_recursive_gradient_and_caches_match_direct(rng, strategy, structure, forgetting):
    reg = _STRUCTURES[structure](rng)
    n_dim = reg.n_dim
    engine = MMEngine(reg, strategy=strategy, forgetting=forgetting)
    for _ in range(120):
        X = rng.standard_normal((n_dim, 2))
        y = rng.standard_normal(2)
        h_before = engine.h.copy()
        engine.step(X, y)
        state, stats = engine.state, engine.moments
        direct = mom.gradient(stats, reg, h_before)
        assert np.linalg.norm(state.grad - direct) <= 1e-9 * (1.0 + np.linalg.norm(direct))
        for cache, mat in (
            (state.autocorr_basis, stats.autocorr),
            (state.quad_basis, reg.quad),
            (state.op_basis, reg.op),
        ):
            ref = mat @ state.basis
            assert np.linalg.norm(cache - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space"])
def test_replayed_block_follows_frozen_reference_path(rng, strategy):
    # at unit forgetting a replayed block freezes the statistics at its own
    # moments, so the online iterates must retrace the direct reference path
    reg = random_regularizer(rng, 6, kind="huber", lam=0.3, delta=0.2, tau=1e-2)
    sample = mom.Sample(rng.standard_normal((6, 8)), rng.standard_normal(8))
    frozen = mom.update(mom.MomentState.zeros(6), sample)
    path = subspace_mm_path(frozen, reg, np.zeros(6), strategy, 30)
    engine = MMEngine(reg, strategy=strategy, forgetting=1.0)
    for expected in path[1:]:
        engine.step(sample.X, sample.y)
        assert np.linalg.norm(engine.h - expected) <= 1e-8 * np.linalg.norm(expected)


def test_gradient_only_shares_memory_gradient_refresh(rng):
    # at the first step both subspaces are [-grad, h]; one refresh recipe
    # must then yield the same state bit for bit
    reg = random_regularizer(rng, 12, kind="huber")
    h1 = rng.standard_normal(12)
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal(4)
    states = []
    for strategy in ("gradient-only", "memory-gradient"):
        engine = MMEngine(reg, strategy=strategy, forgetting=0.99, h1=h1)
        engine.step(X, y)
        states.append(engine.state)
    for field in dataclasses.fields(states[0]):
        name = field.name
        assert np.array_equal(getattr(states[0], name), getattr(states[1], name)), name


def test_recursive_gradient_quadratic_closed_form_second_step(rng):
    # with a purely quadratic regularizer the reconstructed gradient has
    # the explicit form autocorr h + quad h - cross - lin
    quad = np.diag(rng.uniform(0.1, 1.0, 5))
    lin = rng.standard_normal(5)
    reg = Regularizer(5, quad=quad, lin=lin)
    engine = MMEngine(reg, strategy="memory-gradient", forgetting=1.0)
    engine.step(rng.standard_normal((5, 2)), rng.standard_normal(2))
    h2 = engine.h.copy()
    engine.step(rng.standard_normal((5, 2)), rng.standard_normal(2))
    stats = engine.moments
    expected = stats.autocorr @ h2 + quad @ h2 - stats.cross - lin
    assert_allclose(engine.state.grad, expected, rtol=1e-10, atol=1e-12)


def test_reduced_matrix_matches_dense_congruence(rng):
    reg = random_regularizer(rng, 6, kind="welsch")
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(8):
        engine.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
    state = engine.state
    weights = reg.weights(state.h_prev)
    reduced = reduced_matrix(
        state.basis, state.autocorr_basis, state.quad_basis, state.op_basis, weights
    )
    dense = state.basis.T @ mom.normal_matrix(engine.moments, reg, state.h_prev) @ state.basis
    assert_allclose(reduced, dense, rtol=1e-10, atol=1e-12)


def test_identity_operator_cache_equals_basis_exactly(rng):
    # with op = I the operator cache must reproduce the basis bit for bit
    from mmls import PenaltySpec, identity_blocks_regularizer

    reg = identity_blocks_regularizer(5, PenaltySpec("welsch", lam=0.1, delta=0.5))
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(25):
        engine.step(rng.standard_normal((5, 1)), rng.standard_normal(1))
        assert np.array_equal(engine.state.op_basis, engine.state.basis)


def test_reduced_matrix_full_space_is_curvature(rng):
    reg = random_regularizer(rng, 5, kind="huber")
    engine = MMEngine(reg, strategy="full-space")
    for _ in range(6):
        engine.step(rng.standard_normal((5, 2)), rng.standard_normal(2))
    state = engine.state
    weights = reg.weights(state.h_prev)
    reduced = reduced_matrix(
        state.basis, state.autocorr_basis, state.quad_basis, state.op_basis, weights
    )
    assert_allclose(reduced, mom.normal_matrix(engine.moments, reg, state.h_prev), rtol=1e-10)


def test_reduced_matrix_without_blocks(rng):
    reg = Regularizer(4, quad=0.2)
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(5):
        engine.step(rng.standard_normal((4, 2)), rng.standard_normal(2))
    state = engine.state
    reduced = reduced_matrix(
        state.basis, state.autocorr_basis, state.quad_basis, state.op_basis, np.zeros(0)
    )
    expected = state.basis.T @ ((engine.moments.autocorr + reg.quad.toarray()) @ state.basis)
    assert_allclose(reduced, 0.5 * (expected + expected.T), rtol=1e-9, atol=1e-12)


def test_gradient_norms_vanish_on_replayed_dataset():
    # replaying a fixed dataset at unit forgetting, the gradient norms are
    # square-summable: the tail contributes almost nothing and the norm
    # itself drops below 1e-6 within the run
    from mmls import ArrayStream, PenaltySpec, identity_blocks_regularizer

    gen = np.random.default_rng(31)
    reg = identity_blocks_regularizer(8, PenaltySpec("huber", lam=1e-3, delta=0.3), tau=1e-3)
    rows = 0.2 * gen.standard_normal((200, 8))
    truth = gen.standard_normal(8)
    stream = ArrayStream(rows, rows @ truth + 1e-3 * gen.standard_normal(200))
    engine = MMEngine(reg, strategy="memory-gradient", forgetting=1.0)
    norms = []
    for _ in range(25):
        for sample in stream.blocks(1):
            norms.append(engine.step(sample.X, sample.y).grad_norm)
    squares = np.square(norms)
    total = squares.sum()
    assert np.isfinite(total)
    assert squares[-1000:].sum() <= 1e-3 * total
    assert min(norms) <= 1e-6


def test_iterate_stays_in_basis_range(rng):
    reg = random_regularizer(rng, 6)
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(30):
        engine.step(rng.standard_normal((6, 1)), rng.standard_normal(1))
        state = engine.state
        coeffs, *_ = np.linalg.lstsq(state.basis, state.h, rcond=None)
        residual = np.linalg.norm(state.basis @ coeffs - state.h)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(state.h))


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space"])
def test_descent_inequality_every_step(rng, strategy):
    reg = random_regularizer(rng, 7, kind="cauchy", lam=0.4, delta=0.3)
    engine = MMEngine(reg, strategy=strategy, forgetting=0.995)
    for _ in range(150):
        X = rng.standard_normal((7, 3))
        y = rng.standard_normal(3)
        h_before = engine.h.copy()
        report = engine.step(X, y)
        before = mom.objective(engine.moments, reg, h_before)
        after = mom.objective(engine.moments, reg, engine.h)
        assert report.step_quadratic >= -1e-10 * max(1.0, abs(before))
        assert after + 0.5 * report.step_quadratic <= before + 1e-9 * max(1.0, abs(before))


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space"])
def test_subspace_optimality_after_each_step(rng, strategy):
    reg = random_regularizer(rng, 6, kind="welsch", tau=1e-2)
    engine = MMEngine(reg, strategy=strategy)
    for _ in range(80):
        engine.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
        state = engine.state
        weights = reg.weights(state.h_prev)
        reduced = reduced_matrix(
            state.basis, state.autocorr_basis, state.quad_basis, state.op_basis, weights
        )
        shifted = state.coords - anchor_coords(strategy, state)
        residual = state.basis.T @ state.grad + reduced @ shifted
        scale = max(1.0, np.linalg.norm(state.basis.T @ state.grad))
        assert np.linalg.norm(residual) <= 1e-8 * scale


def test_full_space_quadratic_matches_closed_form(rng):
    tau = 1e-6
    reg = Regularizer(8, quad=tau)
    engine = MMEngine(reg, strategy="full-space")
    for i in range(40):
        engine.step(rng.standard_normal((8, 2)), rng.standard_normal(2))
        if i + 1 >= 8:
            closed = quadratic_closed_form(engine.moments, quad=tau)
            assert_allclose(engine.h, closed, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space"])
def test_stationary_point_is_exact_fixed_point(strategy):
    # a consistent scalar system is solved after one step; replaying the
    # same block makes the gradient exactly zero and the iterate must not move
    reg = Regularizer(1)
    engine = MMEngine(reg, strategy=strategy)
    engine.step([[1.0]], [2.0])
    assert engine.h[0] == 2.0
    report = engine.step([[1.0]], [2.0])
    assert report.grad_norm == 0.0
    assert report.rank == 0
    assert engine.h[0] == 2.0
    assert report.step_quadratic == 0.0


def test_divergence_guard_raises_with_iteration():
    reg = Regularizer(1)
    engine = MMEngine(reg, strategy="memory-gradient")
    with pytest.raises(DivergenceError) as info:
        engine.step([[1.0]], [1e13])
    assert info.value.iteration == 1


def test_divergence_leaves_statistics_one_block_ahead():
    reg = Regularizer(1)
    engine = MMEngine(reg, strategy="memory-gradient")
    engine.step([[1.0]], [1.0])
    engine.step([[1.0]], [1.0])
    h_before = engine.h.copy()
    with pytest.raises(DivergenceError) as info:
        engine.step([[1.0]], [1e13])
    assert info.value.iteration == 3
    assert engine.moments.count == 3
    assert engine.state.step == 2
    assert engine.moments.cross[0] == pytest.approx((2.0 + 1e13) / 3.0)
    assert np.array_equal(engine.h, h_before)


def test_forgetting_validated():
    with pytest.raises(ValueError):
        MMEngine(Regularizer(2), forgetting=0.0)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        MMEngine(Regularizer(2), strategy="newton")


# --- surrogate ---------------------------------------------------------------


class TestMajorant:
    def test_tangent_at_anchor(self, rng):
        samples = make_sample_log(rng, 5, 2, 4)
        state = mom.MomentState.zeros(5)
        for s in samples:
            state = mom.update(state, s)
        reg = random_regularizer(rng, 5, kind="green")
        anchor = rng.standard_normal(5)
        value = majorant_value(state, reg, anchor, anchor)
        assert value == pytest.approx(mom.objective(state, reg, anchor), rel=1e-12)

    @pytest.mark.parametrize("kind", ["huber", "welsch", "gemanmcclure", "l2l1-log"])
    def test_dominates_objective(self, rng, kind):
        samples = make_sample_log(rng, 5, 2, 4)
        state = mom.MomentState.zeros(5)
        for s in samples:
            state = mom.update(state, s)
        reg = random_regularizer(rng, 5, kind=kind)
        anchor = rng.standard_normal(5)
        for _ in range(300):
            h = anchor + 2.0 * rng.standard_normal(5)
            surrogate = majorant_value(state, reg, anchor, h)
            truth = mom.objective(state, reg, h)
            assert surrogate >= truth - 1e-10 * max(1.0, abs(truth))

    def test_exact_for_quadratic_regularizer(self, rng):
        samples = make_sample_log(rng, 4, 2, 3)
        state = mom.MomentState.zeros(4)
        for s in samples:
            state = mom.update(state, s)
        reg = Regularizer(4, quad=0.3, lin=rng.standard_normal(4))
        anchor = rng.standard_normal(4)
        for _ in range(20):
            h = rng.standard_normal(4)
            assert majorant_value(state, reg, anchor, h) == pytest.approx(
                mom.objective(state, reg, h), rel=1e-10
            )
