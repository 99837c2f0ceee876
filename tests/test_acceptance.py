"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
verdicts (add ``-s`` to see the timing lines).  Every tolerance is fixed
here; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from conftest import random_regularizer, spy_on_reduced_matrix, stream_blocks
from mmls import (
    ExperimentConfig,
    MMEngine,
    PENALTY_KINDS,
    PenaltySpec,
    Regularizer,
    batch_half_quadratic,
    build_isotropic_tv_regularizer,
    gen_synthetic,
    identity_blocks_regularizer,
    majorant_value,
    quadratic_closed_form,
    run_experiment,
)
from mmls import moments as mom
from mmls.cli import main as cli_main
from mmls.oracle import subspace_mm_path


def announce(num, slug, elapsed, budget, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"\nCRITERION {num:02d} [{slug}]: PASS ({elapsed:.1f}s / {budget:.0f}s budget){tail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s runtime budget"


def random_instance(rng, n_dim, kind, n_blocks=3):
    """Statistics from a short random stream plus a blockwise regularizer."""
    reg = random_regularizer(rng, n_dim, kind=kind, n_blocks=n_blocks, lam=0.4, delta=0.5)
    state = mom.MomentState.zeros(n_dim)
    for _ in range(4):
        state = mom.update(
            state, mom.Sample(rng.standard_normal((n_dim, 3)), rng.standard_normal(3))
        )
    return state, reg


def test_criterion_01_majorization_and_tangency():
    started = time.perf_counter()
    n_dim = 12
    for offset, kind in enumerate(PENALTY_KINDS):
        rng = np.random.default_rng(1000 + offset)
        state, reg = random_instance(rng, n_dim, kind)
        for _ in range(1000):
            anchor = 2.0 * rng.standard_normal(n_dim)
            h = 2.0 * rng.standard_normal(n_dim)
            surrogate = majorant_value(state, reg, anchor, h)
            objective = mom.objective(state, reg, h)
            assert surrogate >= objective - 1e-10 * max(1.0, abs(surrogate))
            at_anchor = majorant_value(state, reg, anchor, anchor)
            reference = mom.objective(state, reg, anchor)
            assert abs(at_anchor - reference) <= 1e-10 * max(1.0, abs(reference))
    announce(1, "majorization/tangency", time.perf_counter() - started, 10.0,
             f"{len(PENALTY_KINDS)} kinds x 1000 pairs")


def _descent_run(reg, strategy, forgetting, n_dim, block, iters, seed):
    rng = np.random.default_rng(seed)
    engine = MMEngine(reg, strategy=strategy, forgetting=forgetting)
    for _ in range(iters):
        h_before = engine.h.copy()
        report = engine.step(rng.standard_normal((n_dim, block)), rng.standard_normal(block))
        before = mom.objective(engine.moments, reg, h_before)
        after = mom.objective(engine.moments, reg, engine.h)
        assert after + 0.5 * report.step_quadratic <= before + 1e-9 * max(1.0, abs(before))
    return iters


def test_criterion_02_per_step_descent():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    total = 0
    total += _descent_run(
        identity_blocks_regularizer(16, PenaltySpec("welsch", 0.1, 0.2)), "memory-gradient", 0.995, 16, 1, 1200, 1
    )
    total += _descent_run(
        random_regularizer(rng, 8, kind="huber", lam=0.3, delta=0.4), "memory-gradient", 1.0, 8, 2, 1000, 2
    )
    total += _descent_run(
        random_regularizer(rng, 12, kind="cauchy", lam=0.4, delta=0.3), "gradient-only", 1.0, 12, 3, 800, 3
    )
    total += _descent_run(
        build_isotropic_tv_regularizer(4, 4, 0.05, 0.1, tau=1e-8), "full-space", 0.99, 16, 2, 500, 4
    )
    total += _descent_run(
        identity_blocks_regularizer(10, PenaltySpec("gemanmcclure", lam=0.2, delta=0.3)),
        "memory-gradient", 1.0, 10, 1, 800, 5,
    )
    total += _descent_run(
        random_regularizer(rng, 8, kind="green", lam=0.3, delta=1.0), "memory-gradient", 0.9, 8, 1, 800, 6
    )
    assert total >= 5000
    announce(2, "surrogate descent", time.perf_counter() - started, 30.0,
             f"{total} iterations across 6 configs")


def test_criterion_03_recursion_equivalence(monkeypatch):
    started = time.perf_counter()
    n_dim, block = 32, 4
    bases = spy_on_reduced_matrix(monkeypatch)
    for forgetting in (1.0, 0.99):
        rng = np.random.default_rng(17)
        reg = random_regularizer(rng, n_dim, kind="welsch", n_blocks=4, rows_per_block=3,
                                 lam=0.3, delta=0.5)
        engine = MMEngine(reg, strategy="memory-gradient", forgetting=forgetting)
        for _ in range(500):
            h_before = engine.h.copy()
            engine.step(rng.standard_normal((n_dim, block)), rng.standard_normal(block))
            state, stats = engine.state, engine.moments
            direct = mom.gradient(stats, reg, h_before)
            assert np.linalg.norm(state.grad - direct) <= 1e-8 * (1.0 + np.linalg.norm(direct))
            ref = stats.autocorr @ np.column_stack([state.h, state.h_prev])
            assert np.linalg.norm(state.images - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))
            basis, autocorr_basis, _ = bases.pop()
            ref = stats.autocorr @ basis
            assert np.linalg.norm(autocorr_basis - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))
    announce(3, "recursion equivalence", time.perf_counter() - started, 10.0,
             "500 iterations, forgetting in {1, 0.99}")


def test_criterion_04_quadratic_oracle():
    started = time.perf_counter()
    n_dim, tau = 32, 1e-6
    rng = np.random.default_rng(23)
    reg = Regularizer(n_dim, quad=tau)
    engine = MMEngine(reg, strategy="full-space")
    for step in range(1, 3 * n_dim + 1):
        engine.step(rng.standard_normal((n_dim, 2)), rng.standard_normal(2))
        if step >= n_dim:
            closed = quadratic_closed_form(engine.moments, quad=tau)
            err = np.linalg.norm(engine.h - closed)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(closed))
    announce(4, "regularized-RLS equivalence", time.perf_counter() - started, 5.0)


@pytest.fixture(scope="module")
def replayed_strongly_convex():
    """Shared instance for criteria 5 and 6: statistics after the replay."""
    n_dim = 32
    spec = PenaltySpec("huber", lam=1.0, delta=0.05)
    reg = identity_blocks_regularizer(n_dim, spec, tau=1e-3)
    truth = np.random.default_rng(2).standard_normal(n_dim)
    _, stream = gen_synthetic(123, n_dim=n_dim, n_rows=500, sigma=0.05, truth=truth)
    started = time.perf_counter()
    engine = MMEngine(reg, strategy="memory-gradient", forgetting=1.0)
    for _ in range(20):
        for sample in stream_blocks(stream, 1):
            engine.step(sample.X, sample.y)
    return {
        "reg": reg,
        "engine": engine,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_05_convergence_to_minimizer(replayed_strongly_convex):
    started = time.perf_counter()
    reg = replayed_strongly_convex["reg"]
    engine = replayed_strongly_convex["engine"]
    solution = batch_half_quadratic(engine.moments, reg, tol=1e-10)
    err = float(np.linalg.norm(engine.h - solution.h_star))
    assert err <= 1e-4, f"terminal distance to the batch minimizer is {err:.2e}"
    elapsed = replayed_strongly_convex["elapsed"] + (time.perf_counter() - started)
    announce(5, "convergence to minimizer", elapsed, 30.0,
             f"|h - h*| = {err:.2e} after 20 epochs x 500 samples")


def test_criterion_06_linear_rate_on_frozen_statistics(replayed_strongly_convex):
    started = time.perf_counter()
    reg = replayed_strongly_convex["reg"]
    stats = replayed_strongly_convex["engine"].moments
    reference = batch_half_quadratic(stats, reg, tol=1e-12, max_iter=2000)
    path = subspace_mm_path(stats, reg, np.zeros(stats.n_dim), "memory-gradient", 25)
    values = np.array([mom.objective(stats, reg, h) for h in path])
    gaps = values - reference.objective
    # only ratios with numerically meaningful gaps are conclusive
    floor = 1e-9 * (1.0 + abs(reference.objective))
    checked = 0
    for k in range(5, len(gaps) - 1):
        if gaps[k] < floor:
            break
        ratio = gaps[k + 1] / gaps[k]
        assert ratio < 1.0, f"gap ratio {ratio:.4f} >= 1 at step {k}"
        checked += 1
    assert checked >= 5, "the rate check needs at least five steps past burn-in"
    announce(6, "linear rate", time.perf_counter() - started, 10.0,
             f"{checked} checked ratios past burn-in")


@pytest.fixture(scope="module")
def deconv_mm_run():
    started = time.perf_counter()
    cfg = ExperimentConfig(experiment="deconv2d", seed=42)
    trace = run_experiment(cfg, measure_time=False)
    return {"trace": trace, "elapsed": time.perf_counter() - started, "config": cfg}


def test_criterion_07_desk_scale_identification(deconv_mm_run):
    started = time.perf_counter()
    from mmls import gen_deconv2d, nrmse

    trace = deconv_mm_run["trace"]
    kernel, stream = gen_deconv2d(42, image_size=256, kernel_size=7, sigma=0.03)
    truth = kernel.ravel()
    reg = build_isotropic_tv_regularizer(7, 7, 1e-4, 1e-2, tau=1e-10)
    # one full pass at unit forgetting leaves exactly the full-dataset moments
    state = mom.MomentState.zeros(truth.size)
    for sample in stream_blocks(stream, 64):
        state = mom.update(state, sample)
    batch = batch_half_quadratic(state, reg, tol=1e-8, max_iter=500)
    err_stream = nrmse(trace.h_final, truth)
    err_batch = nrmse(batch.h_star, truth)
    assert abs(err_stream - err_batch) <= 0.10 * err_batch, (
        f"streamed error {err_stream:.4f} vs batch {err_batch:.4f}"
    )
    elapsed = deconv_mm_run["elapsed"] + (time.perf_counter() - started)
    announce(7, "desk-scale 2D identification", elapsed, 60.0,
             f"streamed {err_stream:.4f} vs batch {err_batch:.4f}")


def test_criterion_08_adaptive_tracking():
    started = time.perf_counter()
    traces = {}
    for forgetting in (0.995, 1.0):
        cfg = ExperimentConfig(experiment="adaptive", seed=5, vartheta=forgetting)
        traces[forgetting] = run_experiment(cfg, measure_time=False)
    change = 2500
    window = slice(change, change + 1000)
    for forgetting, trace in traces.items():
        pre_median = float(np.median(trace.nrmse[change - 500 : change]))
        recovered = np.any(trace.nrmse[window] <= 2.0 * pre_median)
        if forgetting == 0.995:
            assert recovered, "forgetting 0.995 must re-track within 1000 samples"
            first = int(np.argmax(trace.nrmse[window] <= 2.0 * pre_median)) + 1
            detail = f"re-tracked {first} samples after the change"
        else:
            assert not recovered, "unit forgetting must not re-track within 1000 samples"
    announce(8, "adaptive tracking", time.perf_counter() - started, 60.0, detail)


def test_criterion_09_baseline_ordering(deconv_mm_run):
    started = time.perf_counter()
    sgd_cfg = ExperimentConfig(experiment="deconv2d", seed=42, strategy="sgd")
    sgd_trace = run_experiment(sgd_cfg, measure_time=False)
    mm_final = deconv_mm_run["trace"].final_objective
    sgd_final = sgd_trace.final_objective
    assert mm_final <= sgd_final, f"mm {mm_final:.6f} vs sgd {sgd_final:.6f}"
    elapsed = deconv_mm_run["elapsed"] + (time.perf_counter() - started)
    announce(9, "baseline ordering", elapsed, 90.0,
             f"terminal objective mm {mm_final:.6f} <= sgd {sgd_final:.6f}")


def test_criterion_10_bit_identical_reruns(tmp_path):
    started = time.perf_counter()
    args = [
        "deconv2d", "--seed", "3", "--image-size", "64", "--kernel-size", "5",
        "--blocksize", "32", "--no-wall-time",
    ]
    payloads = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    announce(10, "bit-identical reruns", time.perf_counter() - started, 30.0,
             f"{len(payloads[0])} bytes compared")
