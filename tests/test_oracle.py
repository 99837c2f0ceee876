"""Batch reference solvers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_sample_log, random_regularizer, stream_moments
from mmls import (
    HalfQuadraticError,
    Regularizer,
    batch_half_quadratic,
    gen_synthetic,
    majorant_value,
    quadratic_closed_form,
)
from mmls import moments as mom
from mmls.oracle import subspace_mm_path


def test_quadratic_case_converges_in_one_iteration(rng):
    samples = make_sample_log(rng, 6, 2, 10)
    state = stream_moments(samples, 1.0)
    reg = Regularizer(6, quad=0.1, lin=rng.standard_normal(6))
    sol = batch_half_quadratic(state, reg, tol=1e-10)
    assert sol.iterations == 1
    expected = np.linalg.solve(state.autocorr + reg.quad.toarray(), state.cross + reg.lin)
    assert_allclose(sol.h_star, expected, rtol=1e-10)


def test_huber_solution_is_critical_point(rng):
    samples = make_sample_log(rng, 8, 2, 20)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 8, kind="huber", lam=0.2, delta=0.3)
    sol = batch_half_quadratic(state, reg, tol=1e-8)
    assert sol.grad_norm <= 1e-8
    # certify against finite differences of the objective
    eps = 1e-6
    for i in range(8):
        e = np.zeros(8)
        e[i] = eps
        fd = (mom.objective(state, reg, sol.h_star + e) - mom.objective(state, reg, sol.h_star - e)) / (2 * eps)
        assert abs(fd) <= 1e-5


def test_objective_monotone_along_iterations(rng):
    samples = make_sample_log(rng, 6, 2, 12)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 6, kind="welsch", lam=0.5, delta=0.4)
    values = []
    h = np.zeros(6)
    for _ in range(15):
        values.append(mom.objective(state, reg, h))
        curv = mom.normal_matrix(state, reg, h)
        rhs = mom.normal_rhs(state, reg, h)
        h = np.linalg.solve(curv, rhs)
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(values[:-1])))


def test_unique_minimizer_from_many_starts(rng):
    samples = make_sample_log(rng, 6, 2, 15)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 6, kind="l2l1-log", lam=0.3, delta=0.5, tau=1e-2)
    reference = batch_half_quadratic(state, reg, tol=1e-10).h_star
    for _ in range(10):
        start = 5.0 * rng.standard_normal(6)
        sol = batch_half_quadratic(state, reg, h0=start, tol=1e-10)
        assert np.linalg.norm(sol.h_star - reference) <= 1e-6


def test_oracle_lower_bounds_engine_objectives(rng):
    from mmls import MMEngine

    reg = random_regularizer(rng, 6, kind="huber", lam=0.2, delta=0.4, tau=1e-2)
    engine = MMEngine(reg, strategy="memory-gradient")
    log = make_sample_log(rng, 6, 2, 60)
    for s in log:
        engine.step(s.X, s.y)
    sol = batch_half_quadratic(engine.moments, reg, tol=1e-10)
    for _ in range(20):
        h = engine.h + 0.5 * rng.standard_normal(6)
        assert sol.objective <= mom.objective(engine.moments, reg, h) + 1e-9


def test_indefinite_base_rejected():
    state = mom.MomentState.zeros(2)
    reg = Regularizer(2)  # autocorr zero, quad zero: not positive definite
    with pytest.raises(ValueError):
        batch_half_quadratic(state, reg)


def test_budget_exhaustion_carries_last_iterate(rng):
    samples = make_sample_log(rng, 6, 2, 12)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 6, kind="welsch", lam=0.5, delta=0.2)
    with pytest.raises(HalfQuadraticError) as info:
        batch_half_quadratic(state, reg, tol=1e-300, max_iter=3)
    assert info.value.solution.iterations == 3
    assert np.all(np.isfinite(info.value.solution.h_star))


class TestClosedForm:
    def test_scalar(self):
        state = mom.MomentState(
            power=4.0, cross=np.array([2.0]), autocorr=np.array([[1.0]]),
            count=1, forgetting=1.0, weight_total=1.0,
        )
        assert quadratic_closed_form(state)[0] == pytest.approx(2.0)

    def test_residual_contract(self, rng):
        samples = make_sample_log(rng, 5, 2, 10)
        state = stream_moments(samples, 1.0)
        quad = 0.1 * np.eye(5)
        lin = rng.standard_normal(5)
        h = quadratic_closed_form(state, quad=quad, lin=lin)
        residual = (state.autocorr + quad) @ h - (state.cross + lin)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(state.cross + lin)

    def test_agrees_with_half_quadratic(self, rng):
        samples = make_sample_log(rng, 5, 2, 10)
        state = stream_moments(samples, 1.0)
        lin = rng.standard_normal(5)
        reg = Regularizer(5, quad=0.2, lin=lin)
        sol = batch_half_quadratic(state, reg, tol=1e-12)
        closed = quadratic_closed_form(state, quad=0.2, lin=lin)
        assert_allclose(sol.h_star, closed, rtol=1e-10)

    def test_singular_system_raises(self):
        state = mom.MomentState.zeros(3)
        with pytest.raises(np.linalg.LinAlgError):
            quadratic_closed_form(state)


def test_frozen_path_descends_and_matches_engine_rule(rng):
    samples = make_sample_log(rng, 6, 2, 30)
    state = stream_moments(samples, 1.0)
    reg = random_regularizer(rng, 6, kind="huber", lam=0.3, delta=0.2, tau=1e-2)
    path = subspace_mm_path(state, reg, np.zeros(6), "memory-gradient", 12)
    values = [mom.objective(state, reg, h) for h in path]
    assert all(b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    sol = batch_half_quadratic(state, reg, tol=1e-10)
    assert np.linalg.norm(path[-1] - sol.h_star) <= 1e-5


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda state, reg: batch_half_quadratic(state, reg, h0=[np.nan, 0.0]),
                 "h0 must be finite", id="nan-start"),
    pytest.param(lambda state, reg: batch_half_quadratic(state, reg, h0=[np.inf, 0.0]),
                 "h0 must be finite", id="inf-start"),
    pytest.param(lambda state, reg: subspace_mm_path(state, reg, [np.nan, 0.0]),
                 "h0 must be finite", id="nan-path-start"),
    pytest.param(lambda state, reg: majorant_value(state, reg, np.zeros(2), h=[0.5]),
                 "h must have length 2", id="short-h"),
    pytest.param(lambda state, reg: quadratic_closed_form(state, quad=-2.0),
                 "scalar quad must be finite and nonnegative", id="negative-quad"),
    pytest.param(lambda state, reg: quadratic_closed_form(state, quad=[[1.0, 5.0], [0.0, 1.0]]),
                 "quad must be symmetric", id="asymmetric-quad"),
    pytest.param(lambda state, reg: quadratic_closed_form(state, lin=[1.0]),
                 "lin must have length 2", id="short-lin"),
    pytest.param(lambda state, reg: gen_synthetic(0, n_dim=3, n_rows=10, truth=[1.0, 2.0]),
                 "truth must have length 3", id="short-truth"),
])
def test_references_reject_malformed_input(rng, call, message):
    # the references reject, with the regularizer's messages, what a Regularizer rejects
    state = stream_moments(make_sample_log(rng, 2, 1, 10), 1.0)
    with pytest.raises(ValueError, match=f"^{message}"):
        call(state, Regularizer(2, quad=0.1))
