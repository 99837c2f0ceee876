"""Subspace engine: recursions, descent, optimality, edge cases."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose
from scipy.linalg import lapack

from conftest import make_sample_log, random_regularizer, spy_on_reduced_matrix, stream_blocks
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
    subspace_mm_path,
)
from mmls import moments as mom
from mmls.engine import RANK_CUTOFF, _pinv_psd_solve
from mmls.experiments import SGDStepper


class TestBuildSubspace:
    def test_memory_gradient_first_step(self):
        g = np.array([1.0, 2.0])
        h = np.array([3.0, 4.0])
        basis = build_subspace("memory-gradient", np.array([-g, h, np.zeros(2)]), 1)
        assert basis.shape == (2, 2)
        assert_allclose(basis[:, 0], -g)
        assert_allclose(basis[:, 1], h)

    def test_memory_gradient_later_steps(self):
        g = np.array([1.0, 0.0])
        h = np.array([1.0, 1.0])
        d = np.array([0.5, 0.0])
        basis = build_subspace("memory-gradient", np.array([-g, h, d]), 5)
        assert basis.shape == (2, 3)
        assert_allclose(basis[:, 2], d)

    def test_stationary_step_column_is_zero(self):
        h = np.array([1.0, -1.0])
        basis = build_subspace("memory-gradient", np.array([np.zeros(2), h, np.zeros(2)]), 3)
        assert_allclose(basis[:, 0], 0.0)
        assert_allclose(basis[:, 2], 0.0)

    def test_gradient_only(self):
        basis = build_subspace("gradient-only", np.array([-np.ones(3), np.zeros(3), np.ones(3)]), 9)
        assert basis.shape == (3, 2)

    @pytest.mark.parametrize("strategy", ["full-space", SubspaceStrategy.FULL_SPACE],
                             ids=["string", "enum"])
    def test_full_space_has_no_basis(self, strategy):
        with pytest.raises(ValueError, match="full space has no basis"):
            build_subspace(strategy, np.zeros((3, 3)), 2)


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only"])
@pytest.mark.parametrize("step", [1, 4])
def test_build_subspace_matches_column_stack(rng, strategy, step):
    columns = rng.standard_normal((3, 7))
    basis = build_subspace(SubspaceStrategy(strategy), columns, step)
    dim = 3 if strategy == "memory-gradient" and step > 1 else 2
    assert np.array_equal(basis, np.column_stack(columns[:dim]))
    assert basis.flags.f_contiguous
    assert np.shares_memory(basis, columns) and basis.base is not None


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only"])
@pytest.mark.parametrize("step", [1, 4])
def test_build_subspace_on_stacks_builds_the_basis_and_its_image(rng, strategy, step):
    # on the engine state's (2, 3, N) stack of vectors over their images the
    # recipe gives the basis and its image, each a Fortran-ordered view
    columns = rng.standard_normal((3, 7))
    mat = rng.standard_normal((7, 7))
    stack = np.array((columns, columns @ mat.T))
    basis, image = build_subspace(SubspaceStrategy(strategy), stack, step)
    assert np.array_equal(basis, build_subspace(strategy, columns, step))
    assert np.array_equal(image, (columns @ mat.T)[: basis.shape[1]].T)
    assert_allclose(image, mat @ basis, rtol=1e-12)
    assert basis.flags.f_contiguous and image.flags.f_contiguous
    assert np.shares_memory(basis, stack) and np.shares_memory(image, stack)


def test_engine_basis_is_the_gradient_the_iterate_and_the_last_step(rng, monkeypatch):
    # the step's basis is [-grad, h, d], with d the step that reached h
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = random_regularizer(rng, 6, kind="huber")
    engine = MMEngine(reg, strategy="memory-gradient", forgetting=0.99)
    previous = engine.h.copy()
    for count in range(1, 6):
        h, state = engine.h.copy(), engine.state
        engine.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
        (basis, _, _), = bases
        bases.clear()
        expected = [-engine.state.grad, h] + ([state.stack[0, 2]] if count > 1 else [])
        assert np.array_equal(basis, np.column_stack(expected))
        if count > 1:
            assert_allclose(state.stack[0, 2], h - previous, rtol=1e-12, atol=1e-15)
        previous = h


@pytest.mark.parametrize("strategy", [s.value for s in SubspaceStrategy] + ["sgd"])
def test_reading_autocorr_changes_no_later_bit(rng, strategy):
    # at forgetting 0.6 the statistics' running scale folds into the stored
    # sum every 87 blocks, for every strategy; one stepper's matrix is read
    # after every block
    reg = random_regularizer(rng, 5, kind="huber")

    def stepper():
        if strategy == "sgd":
            return SGDStepper(reg, scale=0.1, forgetting=0.6)
        return MMEngine(reg, strategy=strategy, forgetting=0.6)

    reader, plain = stepper(), stepper()
    folds = 0
    for _ in range(400):
        X, y = rng.standard_normal((5, 2)), rng.standard_normal(2)
        scale = reader.moments._scale
        reports = [reader.step(X, y), plain.step(X, y)]
        folds += reader.moments._scale > scale
        reader.moments.autocorr
        assert repr(reports[0]) == repr(reports[1])
        assert reader.h.tobytes() == plain.h.tobytes()
    assert folds == 4
    assert np.array_equal(reader.moments.autocorr, plain.moments.autocorr)
    if strategy != "sgd":
        assert reader.state.stack.tobytes() == plain.state.stack.tobytes()
        assert reader.state.grad.tobytes() == plain.state.grad.tobytes()


@pytest.mark.parametrize("strategy", list(SubspaceStrategy))
def test_step_leaves_the_previous_state_unchanged(rng, strategy):
    reg = random_regularizer(rng, 6, kind="huber")
    engine = MMEngine(reg, strategy=strategy, forgetting=0.9)
    for _ in range(4):
        previous = engine.state
        snapshot = {field.name: np.copy(getattr(previous, field.name))
                    for field in dataclasses.fields(previous)}
        report = engine.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
        for name, array in snapshot.items():
            assert np.array_equal(getattr(previous, name), array), name
        # the report's norm is np.linalg.norm of the stored gradient, bit for bit
        assert report.grad_norm == float(np.linalg.norm(engine.state.grad))


_EIGH = np.linalg.eigh


def _eigh_pinv(mat, rhs):
    """The eigendecomposition pseudo-inverse, written out: (solution, rank)."""
    vals, vecs = _EIGH(mat)
    keep = vals > RANK_CUTOFF * vals[-1]
    sub = vecs[:, keep]
    return sub @ ((sub.T @ rhs) / vals[keep]), int(np.count_nonzero(keep))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count the eigendecompositions the solve falls back to."""
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return _EIGH(mat)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _rcond(mat):
    factor, info = lapack.dpotrf(mat, lower=1)
    assert info == 0
    return lapack.dpocon(factor, np.abs(mat).sum(axis=0).max(), uplo="L")[0]


class TestReducedSolve:
    def test_rank_deficient_minimum_norm(self):
        u, rank = _pinv_psd_solve(np.diag([4.0, 0.0]), np.array([4.0, 0.0]))
        assert_allclose(u, [1.0, 0.0])
        assert rank == 1

    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        u, rank = _pinv_psd_solve(np.eye(3), rhs)
        assert_allclose(u, rhs)
        assert rank == 3

    def test_full_rank_residual(self, rng):
        m = rng.standard_normal((4, 4))
        mat = m @ m.T + 0.1 * np.eye(4)
        rhs = rng.standard_normal(4)
        u, rank = _pinv_psd_solve(mat, rhs)
        assert np.linalg.norm(mat @ u - rhs) <= 1e-9 * np.linalg.norm(rhs)
        assert rank == 4

    @pytest.mark.parametrize("dim", [2, 3, 30])
    def test_cholesky_path_matches_pseudo_inverse(self, rng, eigh_calls, dim):
        for _ in range(20):
            m = rng.standard_normal((dim, dim))
            mat = m @ m.T + dim * np.eye(dim)
            mat = 0.5 * (mat + mat.T)
            rhs = rng.standard_normal(dim)
            u, rank = _pinv_psd_solve(mat, rhs)
            assert not eigh_calls
            expected, expected_rank = _eigh_pinv(mat, rhs)
            assert rank == expected_rank == dim
            assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dim", [1, 2, 3, 64])
    def test_one_call_solve_is_factor_then_solve_bit_for_bit(self, rng, eigh_calls, dim):
        # dposv factors and solves in one call, with the bits of dpotrf then dpotrs
        for _ in range(20):
            m = rng.standard_normal((dim, dim))
            mat = m @ m.T + 0.1 * np.eye(dim)
            mat = 0.5 * (mat + mat.T)
            rhs = rng.standard_normal(dim)
            factor, info = lapack.dpotrf(mat, lower=1)
            assert info == 0
            expected = lapack.dpotrs(factor, rhs, lower=1)[0]
            u, rank = _pinv_psd_solve(mat, rhs)
            assert u.tobytes() == expected.tobytes() and rank == dim
        assert not eigh_calls

    @pytest.mark.parametrize("dim", [2, 3, 30, 441])
    def test_one_norm_is_the_column_sum_bit_for_bit(self, rng, dim):
        # the gate's 1-norm, so the path and the rank do not depend on how it is taken
        for _ in range(20):
            m = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-5.0, 5.0)
            mat = m @ m.T
            mat = 0.5 * (mat + mat.T)
            assert lapack.dlange("1", mat.T) == np.abs(mat).sum(axis=0).max()

    def test_zero_column_falls_back(self, eigh_calls):
        # step 1 has the basis [-grad, h] = [-grad, 0]
        basis = np.column_stack([[1.0, -2.0, 0.5], np.zeros(3)])
        curvature = np.diag([2.0, 1.0, 3.0])
        mat = basis.T @ curvature @ basis
        rhs = basis.T @ np.array([1.0, -2.0, 0.5])
        u, rank = _pinv_psd_solve(mat, rhs)
        assert eigh_calls == [(2, 2)]
        expected, expected_rank = _eigh_pinv(mat, rhs)
        assert np.array_equal(u, expected) and rank == expected_rank == 1

    def test_gate_sits_at_the_condition_estimate(self, eigh_calls):
        rhs = np.array([1.0, -1.0, 2.0])
        under = np.diag([2.0, 1.0, 1.98e-8])
        over = np.diag([2.0, 1.0, 2.02e-8])
        assert 0.9e-8 < _rcond(under) < 1e-8 < _rcond(over) < 1.1e-8
        u, rank = _pinv_psd_solve(under, rhs)
        assert eigh_calls == [(3, 3)]
        expected, expected_rank = _eigh_pinv(under, rhs)
        assert np.array_equal(u, expected) and rank == expected_rank == 3
        u, rank = _pinv_psd_solve(over, rhs)
        assert len(eigh_calls) == 1 and rank == 3
        assert_allclose(u, rhs / np.diag(over), rtol=1e-12)

    def test_indefinite_by_roundoff_falls_back(self, rng, eigh_calls):
        # a rank-two matrix one ulp off: eigenvalues 2, 0.5 and about -1.1e-16
        mat = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 - 2.0**-52, 0.0], [0.0, 0.0, 0.5]])
        assert np.linalg.eigvalsh(mat)[0] < 0.0
        rhs = rng.standard_normal(3)
        u, rank = _pinv_psd_solve(mat, rhs)
        assert eigh_calls == [(3, 3)]
        expected, expected_rank = _eigh_pinv(mat, rhs)
        assert np.array_equal(u, expected) and rank == expected_rank == 2

    def test_non_finite_matrix_gives_nan(self):
        for bad in (np.nan, np.inf):
            u, rank = _pinv_psd_solve(np.array([[1.0, bad], [bad, 1.0]]), np.ones(2))
            assert np.isnan(u).all() and rank == 0

    def test_non_finite_reduced_matrix_is_divergence(self):
        # the gradient -1e200 is finite; its autocorrelation image is not
        engine = MMEngine(Regularizer(1), strategy="memory-gradient")
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            engine.step([[1e200]], [1.0])
        assert info.value.iteration == 1


def test_scalar_worked_example(monkeypatch):
    # single observation (X, y) = (1, 2): the step lands on the exact
    # least-squares minimizer and the reduced system is rank one
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = Regularizer(1)
    engine = MMEngine(reg, strategy="memory-gradient")
    report = engine.step(np.array([[1.0]]), np.array([2.0]))
    assert engine.state.grad == pytest.approx(-2.0)
    assert_allclose(bases.pop()[0], np.array([[2.0, 0.0]]))
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
    op = np.vstack([rng.standard_normal((2, 8)) for _ in range(3)])
    return Regularizer(8, op, spec, 2, quad=0.05 * root @ root.T,
                       lin=0.01 * rng.standard_normal(8))


def _unit_identity_shifted_regularizer(rng):
    # one block of n rows on op = I with a shift and a linear term, no ridge
    spec = PenaltySpec("welsch", lam=0.1, delta=0.5)
    return Regularizer(
        5, 1.0, spec, 5, shift=rng.standard_normal(5), lin=0.1 * rng.standard_normal(5)
    )


# one regularizer per operator form: CSR blocks and s I ridge, s I blocks
# and ridge at s = 1 and at s != 1, CSR finite differences with all-zero
# boundary rows, CSR quad, and s I at s = 1 with a shift and lin but no ridge
_STRUCTURES = {
    "dense-blocks": lambda rng: random_regularizer(
        rng, 8, kind="huber", n_blocks=3, lam=0.2, delta=0.3
    ),
    "identity-ridge": lambda rng: identity_blocks_regularizer(
        8, PenaltySpec("huber", lam=0.2, delta=0.3), tau=1e-2
    ),
    "scaled-identity": lambda rng: Regularizer(
        6, 2.5, PenaltySpec("huber", lam=0.2, delta=0.3), quad=0.3
    ),
    "tv2d": lambda rng: build_isotropic_tv_regularizer(3, 4, lam=0.2, delta=0.3),
    "dense-quad": _dense_quad_regularizer,
    "unit-identity-shifted": _unit_identity_shifted_regularizer,
}


def _assert_images_match_direct(state, stats, call):
    """The carried ``images`` and the step's basis image ``call[1]`` against direct products.

    ``call`` is ``None`` for a full-space step, which has no basis.
    """
    ref = stats.autocorr @ np.column_stack([state.h, state.h_prev])
    assert np.linalg.norm(state.images - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))
    if call is None:
        return
    basis, autocorr_basis, _ = call
    ref = stats.autocorr @ basis
    assert np.linalg.norm(autocorr_basis - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


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
def test_recursive_gradient_and_caches_match_direct(rng, monkeypatch, strategy, structure, forgetting):
    received = _spy_on_solver(monkeypatch)
    bases = spy_on_reduced_matrix(monkeypatch)
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
        if strategy == "full-space":
            # no reduced matrix: the solver gets A(h) itself
            assert not bases
            assert_allclose(received.pop(), mom.normal_matrix(stats, reg, h_before), rtol=1e-10)
            _assert_images_match_direct(state, stats, None)
        else:
            _assert_images_match_direct(state, stats, bases.pop())
        received.clear()


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


def test_reduced_matrix_matches_dense_congruence(rng, monkeypatch):
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = random_regularizer(rng, 6, kind="welsch")
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(8):
        engine.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
    state = engine.state
    basis, autocorr_basis, _ = bases.pop()
    weights = reg.weights(state.h_prev)
    reduced = reduced_matrix(basis, autocorr_basis, reg.curvature(basis, weights))
    dense = basis.T @ mom.normal_matrix(engine.moments, reg, state.h_prev) @ basis
    assert_allclose(reduced, dense, rtol=1e-10, atol=1e-12)


def _spy_on_solver(monkeypatch):
    """Record every reduced matrix ``MMEngine.step`` hands the solver."""
    received = []

    def spy(mat, rhs):
        received.append(mat)
        return _pinv_psd_solve(mat, rhs)

    monkeypatch.setattr("mmls.engine._pinv_psd_solve", spy)
    return received


def test_identity_operator_cache_equals_basis_exactly(rng, monkeypatch):
    # with op = I the operator image must reproduce the basis bit for bit,
    # so the solver sees the reduced matrix built from the basis itself
    from mmls import PenaltySpec, identity_blocks_regularizer

    received = _spy_on_solver(monkeypatch)
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = identity_blocks_regularizer(5, PenaltySpec("welsch", lam=0.1, delta=0.5))
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(25):
        h = engine.h.copy()  # the step's weights are those at its pre-step iterate
        engine.step(rng.standard_normal((5, 1)), rng.standard_normal(1))
        basis, autocorr_basis, _ = bases.pop()
        assert np.array_equal(reg.op @ basis, basis)
        expected = reduced_matrix(
            basis, autocorr_basis, reg.curvature(basis, reg.weights(h))
        )
        assert np.array_equal(received.pop(), expected)


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only"])
def test_unit_scaled_identity_caches_are_the_basis(rng, monkeypatch, strategy):
    # at s = 1 both images equal the basis bit for bit (fresh arrays, not
    # the basis itself), and the solver sees the matrix built from the basis
    received = _spy_on_solver(monkeypatch)
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = identity_blocks_regularizer(5, PenaltySpec("welsch", lam=0.1, delta=0.5), tau=1.0)
    engine = MMEngine(reg, strategy=strategy)
    for _ in range(10):
        h = engine.h.copy()  # the step's weights are those at its pre-step iterate
        engine.step(rng.standard_normal((5, 1)), rng.standard_normal(1))
        basis, autocorr_basis, _ = bases.pop()
        for image in (reg.op @ basis, reg.quad @ basis):
            assert np.array_equal(image, basis)
            assert not np.shares_memory(image, basis)
        expected = reduced_matrix(
            basis, autocorr_basis, reg.curvature(basis, reg.weights(h))
        )
        assert np.array_equal(received.pop(), expected)


# every operator form: s I at s = 1 and s != 1, tv2d CSR with an s I
# ridge, dense CSR blocks, CSR blocks and quad, s I at s = 1 with a shift
# and lin but no ridge, and no blocks at all
_OPERATOR_FORMS = {
    "unit-identity": lambda rng: identity_blocks_regularizer(
        5, PenaltySpec("welsch", lam=0.1, delta=0.5), tau=1.0
    ),
    "scaled-identity": _STRUCTURES["scaled-identity"],
    "tv2d": _STRUCTURES["tv2d"],
    "dense-blocks": _STRUCTURES["dense-blocks"],
    "dense-quad": _dense_quad_regularizer,
    "unit-identity-shifted": _unit_identity_shifted_regularizer,
    "no-blocks": lambda rng: Regularizer(4, quad=0.2),
}


@pytest.mark.parametrize("strategy", [s.value for s in SubspaceStrategy])
@pytest.mark.parametrize("form", list(_OPERATOR_FORMS))
def test_operator_images_are_the_direct_products(rng, monkeypatch, form, strategy):
    # the reduced matrix each step hands the solver is built, bit for bit,
    # from the regularizer's curvature, which equals the congruence of the
    # op and quad images of the basis taken directly with ``@``: bit for bit
    # for the operators whose images are formed in the step, up to roundoff
    # for a CSR op, whose images the state carries; full space hands it
    # A(h) itself, the dense reference's matrix up to roundoff
    received = _spy_on_solver(monkeypatch)
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = _OPERATOR_FORMS[form](rng)
    n_dim = reg.n_dim
    engine = MMEngine(reg, strategy=strategy, forgetting=0.99)
    carried = reg._sparse_op and strategy != "full-space"
    assert (engine.state.ops is not None) == carried
    for _ in range(25):
        h = engine.h.copy()
        engine.step(rng.standard_normal((n_dim, 2)), rng.standard_normal(2))
        if strategy == "full-space":
            assert not bases and len(received) == 1
            assert_allclose(received.pop(), mom.normal_matrix(engine.moments, reg, h), rtol=1e-10)
            continue
        (basis, autocorr_basis, curvature), = bases
        bases.clear()
        weights = reg.weights(h)
        op_basis = reg.op @ basis
        direct = basis.T @ (reg.quad @ basis) + op_basis.T @ (weights[:, None] * op_basis)
        if carried:
            assert_allclose(curvature, direct, rtol=1e-10, atol=1e-12 * np.abs(direct).max())
            ops = engine.state.ops
            ref = reg.op @ np.column_stack([engine.h, engine.state.stack[0, 2]])
            assert_allclose(ops[1:].T, ref, rtol=0, atol=1e-12 * (1.0 + np.abs(ref).max()))
        else:
            assert np.array_equal(curvature, direct)
            assert np.array_equal(reg.curvature(basis, weights), curvature)
        expected = reduced_matrix(basis, autocorr_basis, curvature)
        assert len(received) == 1
        assert np.array_equal(received.pop(), expected)


@pytest.mark.parametrize("form", list(_OPERATOR_FORMS))
def test_operators_take_sequences_as_arrays(rng, form):
    # both operator forms multiply a nested list like the array of its
    # values; an array operand of the scaled identity is scaled bit for bit
    reg = _OPERATOR_FORMS[form](rng)
    h = rng.standard_normal(reg.n_dim)
    hs = rng.standard_normal((reg.n_dim, 2))
    residual = rng.standard_normal(reg.op.shape[0])
    assert np.array_equal(reg.residual(h.tolist()), reg.residual(h))
    assert np.array_equal(reg.weights(h.tolist()), reg.weights(h))
    assert np.array_equal(reg.op.T @ residual.tolist(), reg.op.T @ residual)
    for op in (reg.op, reg.quad):
        assert np.array_equal(op @ hs.tolist(), op @ hs)
        if op.T is op:
            assert np.array_equal(op @ hs, op.toarray()[0, 0] * hs)


@pytest.mark.parametrize("form", list(_OPERATOR_FORMS))
def test_one_pass_equals_the_sums_with_every_term(rng, form):
    # ``evaluate`` leaves out zero and identity terms; its value and
    # gradient equal, bit for bit, the sums that carry every term
    reg = _OPERATOR_FORMS[form](rng)
    h = rng.standard_normal(reg.n_dim)
    res = reg.op @ h - reg.shift
    weights, penalty = reg.weights_and_penalty(reg.block_norms(res))
    got_weights, value, grad = reg.evaluate(h)
    assert np.array_equal(got_weights, weights)
    assert value == 0.5 * float(h @ (reg.quad @ h)) - float(reg.lin @ h) + penalty
    assert np.array_equal(grad, reg.quad @ h - reg.lin + reg.op.T @ (weights * res))


def _fields(stepper):
    # copies of every field of the statistics and of the iterate state
    state = dataclasses.asdict(stepper.state) if isinstance(stepper, MMEngine) else {"h": stepper.h}
    return copy.deepcopy({**vars(stepper.moments), **state})


@pytest.mark.parametrize("make", [
    pytest.param(lambda reg: MMEngine(reg, strategy="memory-gradient", forgetting=0.99), id="mm"),
    pytest.param(lambda reg: SGDStepper(reg, scale=0.05, forgetting=0.99), id="sgd"),
])
def test_block_size_change_is_rejected_without_side_effects(rng, make):
    reg = random_regularizer(rng, 6, kind="huber")
    blocks = [(rng.standard_normal((6, 3)), rng.standard_normal(3)) for _ in range(6)]
    clean, probed = make(reg), make(reg)
    for X, y in blocks[:3]:
        clean.step(X, y)
        probed.step(X, y)
    before = _fields(probed)
    with pytest.raises(ValueError, match="block size changed"):
        probed.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
    after = _fields(probed)
    assert after.keys() == before.keys()
    for name, value in before.items():
        assert np.array_equal(after[name], value), name
    # the next valid block continues as if the bad one had never come
    for X, y in blocks[3:]:
        clean.step(X, y)
        probed.step(X, y)
        assert np.array_equal(probed.h, clean.h)


def test_autocorr_cache_stays_coherent_over_a_long_run(monkeypatch):
    # the one recursive cache must not drift: 10^4 single-sample blocks
    # under forgetting, checked against direct products every 1000 blocks
    bases = spy_on_reduced_matrix(monkeypatch)
    rng = np.random.default_rng(29)
    n_dim = 16
    reg = random_regularizer(rng, n_dim, kind="huber", lam=0.2, delta=0.3)
    engine = MMEngine(reg, strategy="memory-gradient", forgetting=0.995)
    samples = rng.standard_normal((10_000, n_dim + 1))
    for count, row in enumerate(samples, start=1):
        h_before = engine.h  # a step replaces the iterate array, never writes it
        engine.step(row[:n_dim, None], row[n_dim:])
        call = bases.pop()
        if count % 1000:
            continue
        state, stats = engine.state, engine.moments
        direct = mom.gradient(stats, reg, h_before)
        assert np.linalg.norm(state.grad - direct) <= 1e-8 * (1.0 + np.linalg.norm(direct))
        _assert_images_match_direct(state, stats, call)


def test_carried_images_do_not_drift_over_a_long_run():
    # the state carries [R h, R d] and op @ [h, d] by recursion alone; over
    # 10^4 blocks at forgetting 1 on a 3 x 4 tv2d problem each column stays
    # within 1e-10 relative of its direct product
    rng = np.random.default_rng(41)
    reg = build_isotropic_tv_regularizer(3, 4, lam=0.2, delta=0.3, tau=1e-8)
    truth = rng.standard_normal(12)
    engine = MMEngine(reg, strategy="memory-gradient", forgetting=1.0)
    blocks = rng.standard_normal((10_000, 12, 2))
    noise = 0.1 * rng.standard_normal((10_000, 2))
    worst = 0.0
    for count, (X, e) in enumerate(zip(blocks, noise), start=1):
        engine.step(X, X.T @ truth + e)
        if count % 2500:
            continue
        state = engine.state
        vectors = state.stack[0, 1:].T
        for carried, ref in ((state.stack[1, 1:].T, engine.moments.autocorr @ vectors),
                             (state.ops[1:].T, reg.op @ vectors)):
            error = np.linalg.norm(carried - ref, axis=0) / np.linalg.norm(ref, axis=0)
            worst = max(worst, error.max())
    assert worst <= 1e-10


def test_full_space_solves_the_normal_matrix_without_writing_the_statistics(rng, monkeypatch):
    # the solver gets A(h) as a new array, and the step's read of the
    # autocorrelation leaves the stored sum and its running scale alone
    received = _spy_on_solver(monkeypatch)
    reg = random_regularizer(rng, 5, kind="huber")
    engine = MMEngine(reg, strategy="full-space", forgetting=0.9)
    for _ in range(6):
        h = engine.h
        X, y = rng.standard_normal((5, 2)), rng.standard_normal(2)
        reference = mom.update(copy.deepcopy(engine.moments), mom.Sample(X, y))
        engine.step(X, y)
        stats = engine.moments
        assert stats._scale == reference._scale
        assert stats._scale < 1.0 or stats.count == 1
        assert np.array_equal(np.triu(stats._stored), np.triu(reference._stored))
        mat = received.pop()
        assert not np.shares_memory(mat, stats._stored)
        assert_allclose(mat, mom.normal_matrix(stats, reg, h), rtol=1e-10)


def test_reduced_matrix_without_blocks(rng, monkeypatch):
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = Regularizer(4, quad=0.2)
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(5):
        engine.step(rng.standard_normal((4, 2)), rng.standard_normal(2))
    basis, autocorr_basis, _ = bases.pop()
    reduced = reduced_matrix(basis, autocorr_basis, reg.curvature(basis, np.zeros(0)))
    expected = basis.T @ ((engine.moments.autocorr + reg.quad.toarray()) @ basis)
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
        for sample in stream_blocks(stream, 1):
            norms.append(engine.step(sample.X, sample.y).grad_norm)
    squares = np.square(norms)
    total = squares.sum()
    assert np.isfinite(total)
    assert squares[-1000:].sum() <= 1e-3 * total
    assert min(norms) <= 1e-6


def test_iterate_stays_in_basis_range(rng, monkeypatch):
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = random_regularizer(rng, 6)
    engine = MMEngine(reg, strategy="memory-gradient")
    for _ in range(30):
        engine.step(rng.standard_normal((6, 1)), rng.standard_normal(1))
        basis = bases.pop()[0]
        h = engine.h
        coeffs, *_ = np.linalg.lstsq(basis, h, rcond=None)
        residual = np.linalg.norm(basis @ coeffs - h)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(h))


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
def test_subspace_optimality_after_each_step(rng, monkeypatch, strategy):
    # the surrogate's gradient at the new iterate, grad + A(h) (h_next - h),
    # taken by direct products, vanishes on the basis; in full space it
    # vanishes outright
    bases = spy_on_reduced_matrix(monkeypatch)
    reg = random_regularizer(rng, 6, kind="welsch", tau=1e-2)
    engine = MMEngine(reg, strategy=strategy)
    for _ in range(80):
        engine.step(rng.standard_normal((6, 2)), rng.standard_normal(2))
        state = engine.state
        curvature = mom.normal_matrix(engine.moments, reg, state.h_prev)
        residual = state.grad + curvature @ (state.h - state.h_prev)
        grad = state.grad
        if strategy != "full-space":
            basis = bases.pop()[0]
            residual, grad = basis.T @ residual, basis.T @ grad
        assert not bases
        assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(grad))


def test_full_space_quadratic_matches_closed_form(rng):
    tau = 1e-6
    reg = Regularizer(8, quad=tau)
    engine = MMEngine(reg, strategy="full-space")
    for i in range(40):
        engine.step(rng.standard_normal((8, 2)), rng.standard_normal(2))
        if i + 1 >= 8:
            closed = quadratic_closed_form(engine.moments, quad=tau)
            assert_allclose(engine.h, closed, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("quad", [1e-6, "dense"])
def test_full_space_step_without_blocks_builds_no_sparse_matrix(rng, quad, monkeypatch):
    # a regularizer with no blocks starts A(h) from zeros plus its ridge: no
    # product of its (0, n) operator, and a CSR ``quad`` only densified
    n = 6
    quad = np.diag(rng.uniform(1e-6, 1e-3, n)) if quad == "dense" else quad
    reg = Regularizer(n, quad=quad)
    engine = MMEngine(reg, strategy="full-space")

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was built")

    for name in ("csr_array", "csr_matrix", "coo_array", "coo_matrix"):
        monkeypatch.setattr(getattr(scipy.sparse, name), "__init__", refuse)
    for _ in range(4):
        engine.step(rng.standard_normal((n, 3)), rng.standard_normal(3))
    monkeypatch.undo()  # the reference takes a dense ``quad`` as CSR
    assert_allclose(engine.h, quadratic_closed_form(engine.moments, quad=quad), rtol=1e-8, atol=1e-12)


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


def test_gradient_screens_survive_underflow_and_overflow():
    # a nonzero gradient whose sum of squares underflows still reaches the solve
    engine = MMEngine(Regularizer(1), strategy="memory-gradient")
    report = engine.step([[1e150]], [1e-313])
    assert engine.state.grad[0] != 0.0 and report.grad_norm == 0.0 and report.rank == 1
    # a finite gradient whose sum of squares overflows is not reported as non-finite
    engine = MMEngine(Regularizer(1), strategy="memory-gradient")
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="^divergence detected"):
        engine.step([[1e-150]], [1e305])


@pytest.mark.parametrize("block", ["x-1e80", "x-1e160", "y-1e160"])
@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "sgd"])
def test_overflowing_step_is_divergence_under_warnings_as_errors(strategy, block):
    # at X = 1e80 the data are finite but the reduced matrix's g' R g
    # overflows; at 1e160 the autocorrelation itself does, and the
    # gradient's sum of squares and the SGD iterate's; at y = 1e160 the
    # power statistic y' y does: each step ends in DivergenceError, with no
    # floating-point warning on the way
    name, scale = block.split("-")
    reg = Regularizer(3, quad=1e-6) if block == "x-1e80" else Regularizer(3)
    X, y = (np.full((3, 2), float(scale)), np.ones(2)) if name == "x" else (np.ones((3, 2)), np.full(2, 1e160))
    stepper = SGDStepper(reg, scale=0.1) if strategy == "sgd" else MMEngine(reg, strategy=strategy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            stepper.step(X, y)
    assert info.value.iteration == 1


@pytest.mark.parametrize("strategy", list(SubspaceStrategy))
def test_non_finite_gradient_raises_with_iteration(strategy):
    # the second block's autocorrelation overflows, and with it autocorr @ h
    engine = MMEngine(Regularizer(1), strategy=strategy)
    engine.step([[1.0]], [1.0])
    state = engine.state
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        engine.step([[1e200]], [1.0])
    assert str(info.value) == "non-finite gradient at iteration 2"
    assert info.value.iteration == 2
    assert engine.state is state


@pytest.mark.parametrize("strategy", list(SubspaceStrategy))
def test_zero_reduced_matrix_gives_a_zero_step(strategy):
    # no data yet and no curvature: the reduced matrix is exactly zero, while
    # the linear term makes the gradient nonzero
    engine = MMEngine(Regularizer(2, lin=[1.0, 0.0]), strategy=strategy)
    report = engine.step(np.zeros((2, 1)), [0.0])
    assert report.rank == 0
    assert np.array_equal(engine.h, np.zeros(2))
    assert np.array_equal(engine.state.grad, [-1.0, 0.0])


def test_divergence_leaves_statistics_one_block_ahead():
    reg = Regularizer(1)
    engine = MMEngine(reg, strategy="memory-gradient")
    engine.step([[1.0]], [1.0])
    engine.step([[1.0]], [1.0])
    state_after_block_2 = engine.state
    h_before = engine.h.copy()
    with pytest.raises(DivergenceError) as info:
        engine.step([[1.0]], [1e13])
    assert info.value.iteration == 3
    assert engine.moments.count == 3
    assert engine.state is state_after_block_2
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
