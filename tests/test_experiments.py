"""Harness: regularizer builders, SGD baseline, metrics, runners."""

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from conftest import random_regularizer, stream_blocks, traced_peak
from mmls import (
    ExperimentConfig,
    PenaltySpec,
    Regularizer,
    build_isotropic_tv_regularizer,
    identity_blocks_regularizer,
    nrmse,
    run_experiment,
)
from mmls import moments
from mmls.engine import DIVERGENCE_NORM, DivergenceError, MMEngine
from mmls.experiments import (
    ALGORITHMS,
    ConfigError,
    SGDStepper,
    meta_path,
    resident_bytes,
    resolve_config,
)


class TestIsotropicTV:
    def test_structure_counts(self):
        reg = build_isotropic_tv_regularizer(2, 2, lam=1.0, delta=0.1)
        assert reg.n_blocks == 4
        assert reg.op.shape[0] == 8
        assert reg.op.shape == (8, 4)

    def test_constant_kernel_only_pays_ridge(self):
        tau = 1e-10
        reg = build_isotropic_tv_regularizer(3, 3, lam=0.5, delta=0.2, tau=tau)
        h = np.full(9, 2.0)
        assert reg.value(h) == pytest.approx(0.5 * tau * float(h @ h), rel=1e-12)

    def test_weights_at_constant_kernel(self):
        lam, delta = 0.7, 0.3
        reg = build_isotropic_tv_regularizer(3, 3, lam=lam, delta=delta)
        b = reg.weights(np.ones(9))
        assert_allclose(b, np.full(18, lam / delta**2), rtol=1e-12)

    def test_non_integer_sizes_rejected(self):
        # rejected, not truncated; a numpy integer is one
        with pytest.raises(TypeError, match="^kernel_rows must be an integer, got 2.5$"):
            build_isotropic_tv_regularizer(2.5, 3, lam=1.0, delta=1.0)
        with pytest.raises(TypeError, match="^kernel_cols must be an integer, got 3.0$"):
            build_isotropic_tv_regularizer(2, 3.0, lam=1.0, delta=1.0)
        assert build_isotropic_tv_regularizer(np.int64(2), 3, lam=1.0, delta=1.0).n_dim == 6

    def test_differences_match_neighbors(self):
        reg = build_isotropic_tv_regularizer(2, 3, lam=1.0, delta=1.0)
        h = np.arange(6.0)  # grid rows [0 1 2; 3 4 5]
        res = reg.residual(h)
        # pixel 0: horizontal 1-0, vertical 3-0
        assert res[0] == pytest.approx(1.0)
        assert res[1] == pytest.approx(3.0)
        # last pixel: both differences clamped to zero
        assert_allclose(res[-2:], 0.0)


def sparsity_regularizer(n_dim, lam, delta):
    """Coordinatewise saturating (Gaussian-kernel) sparsity penalty."""
    return identity_blocks_regularizer(n_dim, PenaltySpec("welsch", lam, delta))


class TestSparsityRegularizer:
    def test_coordinatewise_value(self):
        lam, delta = 0.4, 0.2
        reg = sparsity_regularizer(5, lam, delta)
        h = np.array([0.0, 0.1, -0.3, 1.0, 2.0])
        expected = float(np.sum(lam * (1.0 - np.exp(-(h**2) / (2 * delta**2)))))
        assert reg.value(h) == pytest.approx(expected, rel=1e-12)

    def test_weights_at_origin(self):
        lam, delta = 0.4, 0.2
        reg = sparsity_regularizer(4, lam, delta)
        assert reg.value(np.zeros(4)) == 0.0
        assert_allclose(reg.weights(np.zeros(4)), np.full(4, lam / delta**2))

    def test_non_integer_dimension_rejected(self):
        spec = PenaltySpec("welsch", 0.1, 0.2)
        for n_dim in (2.5, 3.0):
            with pytest.raises(TypeError, match=f"^n_dim must be an integer, got {n_dim!r}$"):
                identity_blocks_regularizer(n_dim, spec)
        assert identity_blocks_regularizer(np.int64(3), spec).n_dim == 3

    def test_builds_no_dense_identity(self):
        # a dense 2048-square identity alone is 32 MiB; the block operator is still
        # the unit identity that the engine does not apply
        spec = PenaltySpec("welsch", 0.1, 0.2)
        assert traced_peak(lambda: identity_blocks_regularizer(2048, spec)) < 2**20
        reg = identity_blocks_regularizer(2048, spec)
        assert reg._unit_op and reg.op.T is reg.op

    def test_identity_blocks_build_no_sparse_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        for name in ("identity", "eye", "csr_array", "csr_matrix"):
            monkeypatch.setattr(scipy.sparse, name, refuse)
        reg = identity_blocks_regularizer(6, PenaltySpec("welsch", 0.1, 0.2), tau=0.5)
        h = np.random.default_rng(3).standard_normal(6)
        assert reg.op.T is reg.op and np.array_equal(reg.op @ h, h)
        assert np.array_equal(reg.quad @ h, 0.5 * h)

    def test_value_bounded_by_lam_times_n(self):
        rng = np.random.default_rng(0)
        reg = sparsity_regularizer(6, 0.3, 0.1)
        for _ in range(50):
            assert reg.value(100 * rng.standard_normal(6)) <= 0.3 * 6 + 1e-12


class TestSGD:
    def test_zero_gradient_fixed_point(self, rng):
        # no penalty and a block the iterate fits exactly: the gradient is zero
        stepper = SGDStepper(Regularizer(2), scale=0.5)
        h = np.array([1.0, 2.0])
        stepper.h = h
        X = rng.standard_normal((2, 3))
        for _ in range(3):
            stepper.step(X, X.T @ h)
        np.testing.assert_array_equal(stepper.h, h)

    def test_two_hand_computed_steps(self):
        # scalar quadratic 0.5 (y - x h)^2 with x = 1, y = 1, scale 0.5
        stepper = SGDStepper(Regularizer(1), scale=0.5)
        stepper.step(np.ones((1, 1)), np.ones(1))  # gradient -1 at h = 0, step 0.5
        assert float(stepper.h[0]) == pytest.approx(0.5)
        stepper.step(np.ones((1, 1)), np.ones(1))  # gradient -0.5, step 0.5 / sqrt(2)
        assert float(stepper.h[0]) == pytest.approx(0.5 + 0.5 / np.sqrt(2) * 0.5)

    def test_step_scale_validated(self):
        for scale in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SGDStepper(Regularizer(2), scale=scale)

    def test_stepper_reports_zero_mm_fields_and_keeps_h_on_divergence(self, rng):
        reg = sparsity_regularizer(3, 0.1, 0.5)
        stepper = SGDStepper(reg, scale=0.1)
        X, y = rng.standard_normal((3, 2)), rng.standard_normal(2)
        report = stepper.step(X, y)
        assert (report.step_quadratic, report.subspace_dim, report.rank) == (0.0, 0, 0)
        assert report.objective == moments.objective(stepper.moments, reg, np.zeros(3))
        h = stepper.h
        stepper.scale = np.inf
        with pytest.raises(DivergenceError) as info:
            stepper.step(X, y)
        assert info.value.iteration == 2
        assert stepper.h is h

    def test_divergence_caught_by_the_engine_norm_bound(self):
        # h = 1e3, -7.1e5, 4.1e8, -2.0e11, then 9.1e13 passes DIVERGENCE_NORM
        # long before the iterate overflows
        stepper = SGDStepper(Regularizer(1), scale=1e3)
        for _ in range(4):
            stepper.step([[1.0]], [1.0])
        h = stepper.h
        assert 1e11 < abs(float(h[0])) <= DIVERGENCE_NORM
        with pytest.raises(DivergenceError) as info:
            stepper.step([[1.0]], [1.0])
        assert info.value.iteration == 5
        assert stepper.h is h

    def test_reports_match_the_references(self, rng):
        reg = random_regularizer(rng, 5, kind="welsch")
        stepper = SGDStepper(reg, scale=0.1, forgetting=0.95)
        for _ in range(4):
            h = stepper.h
            report = stepper.step(rng.standard_normal((5, 3)), rng.standard_normal(3))
            expected = moments.objective(stepper.moments, reg, h)
            assert report.objective == pytest.approx(expected, rel=1e-12)
            expected = float(np.linalg.norm(moments.gradient(stepper.moments, reg, h)))
            assert report.grad_norm == pytest.approx(expected, rel=1e-12)

    def test_one_penalty_pass_and_no_mirror_per_step(self, rng, monkeypatch):
        calls = {"penalty": 0, "mirror": 0}
        weights_and_penalty, mirror = Regularizer.weights_and_penalty, moments._mirror_upper

        def count_penalty(reg, norms):
            calls["penalty"] += 1
            return weights_and_penalty(reg, norms)

        def count_mirror(mat):
            calls["mirror"] += 1
            mirror(mat)

        monkeypatch.setattr(Regularizer, "weights_and_penalty", count_penalty)
        monkeypatch.setattr(moments, "_mirror_upper", count_mirror)
        stepper = SGDStepper(random_regularizer(rng, 5, kind="huber"), scale=0.1)
        for k in range(1, 4):
            stepper.step(rng.standard_normal((5, 2)), rng.standard_normal(2))
            assert calls == {"penalty": k, "mirror": 0}

    def test_instantaneous_gradient_matches_block_residual(self):
        rng = np.random.default_rng(5)
        reg = random_regularizer(rng, 4, kind="huber")
        X = rng.standard_normal((4, 3))
        y = rng.standard_normal(3)
        h = rng.standard_normal(4)
        # the first step has unit size, so it moves h by minus the gradient
        stepper = SGDStepper(reg, scale=1.0)
        stepper.h = h
        stepper.step(X, y)
        g = h - stepper.h
        eps = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            f = lambda v: 0.5 * float(np.sum((y - X.T @ v) ** 2)) + reg.value(v)
            assert (f(h + e) - f(h - e)) / (2 * eps) == pytest.approx(g[i], rel=1e-5, abs=1e-8)


class TestNrmse:
    def test_exact_match(self):
        assert nrmse(np.ones(3), np.ones(3)) == 0.0

    def test_zero_estimate(self):
        truth = np.array([3.0, 4.0])
        assert nrmse(np.zeros(2), truth) == pytest.approx(1.0)

    def test_double_estimate(self):
        truth = np.array([3.0, 4.0])
        assert nrmse(2 * truth, truth) == pytest.approx(1.0)

    def test_equals_the_norm_ratio(self, rng):
        base = rng.standard_normal((3, 400))
        for estimate, truth in ((base[0], base[1]), (base[0, ::2], base[2, ::-2]), (base[:, :4].T, base[:, 4:8])):
            expected = float(np.linalg.norm(np.ravel(estimate) - np.ravel(truth))) / float(np.linalg.norm(truth))
            assert nrmse(estimate, truth) == expected

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nrmse(np.ones(2), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^estimate and truth must have equal length$"):
            nrmse([1, 2], [1, 2, 3])


class TestConfig:
    def test_defaults_filled(self):
        cfg = resolve_config(ExperimentConfig(experiment="deconv2d"))
        assert cfg.block_size == 64
        assert cfg.operator == "tv2d"
        assert cfg.vartheta == 1.0

    def test_adaptive_block_size_pinned(self):
        cfg = resolve_config(ExperimentConfig(experiment="adaptive", block_size=16))
        assert cfg.block_size == 1

    def test_deconv2d_records_kernel_dimension(self):
        cfg = resolve_config(
            ExperimentConfig(experiment="deconv2d", image_size=16, kernel_size=3, n_dim=999)
        )
        assert cfg.n_dim == 9

    def test_full_scale_deconv2d_config_resolves(self):
        # the full-scale operating point: 4096^2 image, 21x21 kernel, noise 0.03
        cfg = resolve_config(ExperimentConfig(
            experiment="deconv2d", image_size=4096, kernel_size=21, noise_sigma=0.03
        ))
        assert cfg.n_dim == 21 * 21
        # image, padded image, noise, observations, autocorrelation and trace: about half a GiB
        assert 2**29 < resident_bytes(cfg) < 2**30
        with pytest.raises(ConfigError, match="GiB resident"):
            resolve_config(ExperimentConfig(experiment="deconv2d", image_size=8192, kernel_size=21))

    def test_full_space_at_the_dense_storage_cap_is_accepted(self):
        cfg = resolve_config(ExperimentConfig(
            experiment="synthetic", strategy="full-space", n_dim=4096, n_samples=5000
        ))
        # three 4096-square arrays and the row matrix: about 0.53 GiB, under the cap
        assert 0.5 * 2**30 < resident_bytes(cfg) < 0.55 * 2**30

    @pytest.mark.parametrize("strategy", ["memory-gradient", "full-space", "sgd"])
    @pytest.mark.parametrize("problem", [
        dict(experiment="synthetic", n_dim=384, n_samples=10),
        dict(experiment="adaptive", n_dim=150, n_samples=150),
        dict(experiment="deconv2d", image_size=24, kernel_size=21),
    ], ids=["synthetic", "adaptive", "deconv2d"])
    def test_resident_bytes_bounds_the_traced_peak(self, problem, strategy, monkeypatch):
        cfg = resolve_config(ExperimentConfig(strategy=strategy, **problem))
        fallbacks = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: fallbacks.append(mat.shape) or eigh(mat))
        peak = traced_peak(lambda: run_experiment(cfg, measure_time=False))
        # full space takes each path here: the eigendecomposition fallback at
        # 384 dimensions without blocks, the Cholesky solve at 441 with tv2d;
        # both hold the squares the count provides
        if strategy == "full-space":
            assert bool(fallbacks) == (problem["experiment"] == "synthetic")
        # the 128 KiB of slack covers interpreter and library allocations (the
        # peaks here are all under the count); it is less than one N x N
        # array, 176 KiB at N=150
        assert peak <= resident_bytes(cfg) + 2**17

    @pytest.mark.parametrize("name", [
        "seed", "image_size", "kernel_size", "n_dim", "n_samples", "block_size", "change_point",
    ])
    def test_non_integer_sizes_rejected(self, name):
        experiment = "deconv2d" if name in ("image_size", "kernel_size") else "synthetic"
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got 2.5$"):
            resolve_config(ExperimentConfig(experiment, **{name: 2.5}))
        # numpy integers pass, and the resolved config holds Python ints
        cfg = resolve_config(ExperimentConfig(experiment, **{name: np.int64(3)}))
        assert type(getattr(cfg, name)) is int

    @pytest.mark.parametrize("name", [
        "seed", "image_size", "kernel_size", "n_dim", "n_samples", "block_size", "change_point",
    ])
    def test_sizes_below_their_minimum_rejected(self, name):
        # every size is at least 1, the seed at least 0
        experiment = "deconv2d" if name in ("image_size", "kernel_size") else "synthetic"
        low = -1 if name == "seed" else 0
        with pytest.raises(ConfigError, match=f"^{name} must be at least {low + 1}, got {low}$"):
            resolve_config(ExperimentConfig(experiment, **{name: low}))
        assert getattr(resolve_config(ExperimentConfig(experiment, **{name: low + 1})), name) == low + 1

    @pytest.mark.parametrize("name", [
        "vartheta", "lam", "delta", "kappa", "tau", "noise_sigma", "sgd_scale",
    ])
    def test_numpy_numbers_resolve_to_python_floats(self, name):
        for value in (np.float32(0.5), np.int64(1)):
            cfg = resolve_config(ExperimentConfig("synthetic", **{name: value}))
            assert type(getattr(cfg, name)) is float and getattr(cfg, name) == value
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got inf$"):
            resolve_config(ExperimentConfig("synthetic", **{name: np.float32("inf")}))
        with pytest.raises(ConfigError, match=f"^{name} must be a real number, got '0.5'$"):
            resolve_config(ExperimentConfig("synthetic", **{name: "0.5"}))

    def test_non_finite_numpy_float_rejected_before_generation(self, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("the stream was generated")

        monkeypatch.setattr("mmls.experiments.gen_synthetic", generate)
        cfg = ExperimentConfig("synthetic", n_dim=4, n_samples=20, noise_sigma=np.float32("inf"))
        with pytest.raises(ConfigError, match="^noise_sigma must be finite, got inf$"):
            run_experiment(cfg)

    def test_numpy_float_config_writes_its_sidecar(self, tmp_path):
        import json

        out = tmp_path / "run.csv"
        cfg = ExperimentConfig("synthetic", n_dim=4, n_samples=20, tau=np.float32(1e-6), out=str(out))
        run_experiment(cfg, measure_time=False)
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["config"]["tau"] == float(np.float32(1e-6))
        assert meta["summary"]["iterations"] == 20

    def test_path_out_writes_the_csv_and_its_sidecar(self, tmp_path):
        import json

        out = tmp_path / "p.csv"
        cfg = ExperimentConfig("synthetic", n_dim=4, n_samples=20, out=out)
        assert resolve_config(cfg).out == str(out)
        trace = run_experiment(cfg, measure_time=False)
        assert len(out.read_text().splitlines()) == 1 + len(trace)
        meta = json.loads((tmp_path / "p.json").read_text())
        assert meta["config"]["out"] == str(out)
        assert meta["summary"]["iterations"] == 20

    @pytest.mark.parametrize("out", [7, b"p.csv", ["p.csv"]])
    def test_out_that_is_not_a_path_rejected(self, tmp_path, out):
        cfg = ExperimentConfig("synthetic", n_dim=4, n_samples=20, out=out)
        with pytest.raises(ConfigError, match="^out must be a string or path-like"):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            resolve_config(ExperimentConfig(experiment="mystery"))

    def test_bad_vartheta(self):
        with pytest.raises(ConfigError):
            resolve_config(ExperimentConfig(experiment="synthetic", vartheta=0.0))

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            resolve_config(ExperimentConfig(experiment="synthetic", strategy="bogus"))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match=r"^noise_sigma must be nonnegative, got -1.0$"):
            resolve_config(ExperimentConfig(experiment="synthetic", noise_sigma=-1.0))

    def test_unknown_operator_rejected(self):
        # the command line offers only the known operators; a config object can name any
        cfg = ExperimentConfig(experiment="synthetic", operator="sparse")
        with pytest.raises(ConfigError, match="^unknown operator 'sparse'; expected tv2d, identity or none$"):
            run_experiment(cfg, measure_time=False)


class TestRunExperiment:
    def test_zero_noise_quadratic_identifies_exactly(self):
        cfg = ExperimentConfig(
            experiment="synthetic", seed=3, n_dim=8, n_samples=200, noise_sigma=0.0,
            strategy="full-space", tau=1e-12,
        )
        trace = run_experiment(cfg, measure_time=False)
        assert trace.final_nrmse <= 1e-8
        assert len(trace) == 200

    def test_trace_repeats_bit_identical(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = ExperimentConfig(
                experiment="synthetic", seed=11, n_dim=6, n_samples=150,
                strategy="memory-gradient", out=str(out),
            )
            run_experiment(cfg, measure_time=False)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(
            experiment="synthetic", seed=2, n_dim=5, n_samples=80, out=str(out),
        )
        trace = run_experiment(cfg, measure_time=False)
        back = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert_allclose(back[:, 1], trace.objective, rtol=0, atol=0)
        assert_allclose(back[:, 3], trace.nrmse, rtol=0, atol=0)
        assert_allclose(back[:, 0], trace.n)

    @pytest.mark.parametrize("strategy", ["memory-gradient", "full-space", "sgd"])
    def test_trace_keeps_each_step_report(self, tmp_path, monkeypatch, strategy):
        # step_quadratic, subspace_dim and rank are the reports' fields, row by row
        reports = []
        stepper = SGDStepper if strategy == "sgd" else MMEngine
        step = stepper.step

        def record(self, X, y):
            reports.append(step(self, X, y))
            return reports[-1]

        monkeypatch.setattr(stepper, "step", record)
        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(experiment="synthetic", seed=2, n_dim=5, n_samples=80,
                               strategy=strategy, out=str(out))
        trace = run_experiment(cfg, measure_time=False)
        back = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        for column, name in zip(back.T[6:], ("step_quadratic", "subspace_dim", "rank")):
            expected = [getattr(report, name) for report in reports]
            assert np.array_equal(getattr(trace, name), expected)
            assert np.array_equal(column, expected)
        if strategy == "sgd":
            assert not back[:, 6:].any()
        else:
            assert set(trace.subspace_dim) == ({5} if strategy == "full-space" else {2, 3})

    def test_csv_header_names_columns(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(experiment="synthetic", seed=2, n_dim=4, n_samples=30, out=str(out))
        run_experiment(cfg, measure_time=False)
        header = out.read_text().splitlines()[0]
        assert header == "n,objective,grad_norm,nrmse,nrmse_sq,wall_time_s,step_quadratic,subspace_dim,rank"

    def test_meta_sidecar_written(self, tmp_path):
        import json

        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(experiment="synthetic", seed=2, n_dim=5, n_samples=60, out=str(out))
        run_experiment(cfg, measure_time=False)
        meta = json.loads((tmp_path / "trace.json").read_text())
        assert meta["config"]["experiment"] == "synthetic"
        assert meta["summary"]["iterations"] == 60
        assert meta_path(str(out)) == str(tmp_path / "trace.json")

    def test_final_grad_norm_is_the_direct_gradient_norm(self, tmp_path, monkeypatch):
        import json

        out = tmp_path / "trace.csv"
        cfg = ExperimentConfig(
            experiment="synthetic", seed=3, n_dim=6, n_samples=80, block_size=2,
            operator="identity", penalty="welsch", tau=1e-2, out=str(out),
        )
        trace = run_experiment(cfg, measure_time=False)
        direct = moments.gradient(trace.moments, trace.regularizer, trace.h_final)
        expected = float(np.linalg.norm(direct))
        meta = json.loads((tmp_path / "trace.json").read_text())
        assert meta["summary"]["final_grad_norm"] == expected > 0.0
        # taken once, for the sidecar: the summary reads the kept value
        monkeypatch.setattr(moments, "gradient", None)
        assert trace.summary()["final_grad_norm"] == expected

    @pytest.mark.parametrize("strategy", ALGORITHMS)
    def test_one_loop_final_objective_from_trace(self, strategy):
        cfg = ExperimentConfig(
            experiment="synthetic", seed=6, n_dim=7, n_samples=40, block_size=2,
            operator="identity", penalty="welsch", strategy=strategy,
        )
        trace = run_experiment(cfg, measure_time=False)
        assert trace.final_objective == moments.objective(
            trace.moments, trace.regularizer, trace.h_final
        )
        assert trace.regularizer.n_dim == trace.moments.n_dim == 7
        assert len(trace) == 20

    def test_sgd_strategy_runs(self):
        cfg = ExperimentConfig(
            experiment="synthetic", seed=4, n_dim=6, n_samples=120, strategy="sgd",
        )
        trace = run_experiment(cfg, measure_time=False)
        assert np.all(np.isfinite(trace.objective))
        assert trace.final_nrmse < 1.0

    def test_objective_column_monotone_under_descent_metric(self):
        # per-step surrogate descent transfers to the recorded objective
        # lagging by the statistics update; just check it ends far below start
        cfg = ExperimentConfig(experiment="synthetic", seed=8, n_dim=10, n_samples=300)
        trace = run_experiment(cfg, measure_time=False)
        assert trace.objective[-1] <= trace.objective[2]

    def test_deconv_small_instance_close_to_truth(self):
        cfg = ExperimentConfig(
            experiment="deconv2d", seed=1, image_size=48, kernel_size=3, block_size=16,
        )
        trace = run_experiment(cfg, measure_time=False)
        assert trace.final_nrmse < 0.2

    def test_wall_time_column_populated_when_measuring(self):
        cfg = ExperimentConfig(experiment="synthetic", seed=1, n_dim=4, n_samples=50)
        trace = run_experiment(cfg, measure_time=True)
        assert np.all(np.diff(trace.wall_time) >= 0.0)
        assert trace.wall_time[-1] > 0.0


def test_memory_gradient_gap_is_below_gradient_only_on_desk_deconvolution():
    # the paper's claim for the memory gradient subspace, on the deconv2d
    # defaults at seed 1 (256^2 image, 7x7 kernel, blocks of 64): at
    # n = 32, 64, ..., 1024 blocks its relative objective gap
    # (F_n(h_n) - min F_n) / |min F_n| is below gradient-only's; min F_n is
    # the batch minimizer of the statistics after block n, started at h_n.
    # The smallest margin is about 1.14x (n = 512), so only the order is asserted
    from mmls import MMEngine, batch_half_quadratic
    from mmls.experiments import _build_problem

    cfg = resolve_config(ExperimentConfig("deconv2d", seed=1))
    _, stream, reg = _build_problem(cfg)
    gaps = {}
    for strategy in ("memory-gradient", "gradient-only"):
        engine = MMEngine(reg, strategy=strategy, forgetting=cfg.vartheta)
        gaps[strategy] = []
        for n, sample in enumerate(stream_blocks(stream, cfg.block_size), start=1):
            engine.step(sample.X, sample.y)
            if n >= 32 and n & (n - 1) == 0:
                best = batch_half_quadratic(engine.moments, reg, h0=engine.h).objective
                gap = (moments.objective(engine.moments, reg, engine.h) - best) / abs(best)
                gaps[strategy].append((n, gap))
    checkpoints = [n for n, _ in gaps["memory-gradient"]]
    assert checkpoints == [32, 64, 128, 256, 512, 1024]
    for (n, memory), (_, gradient) in zip(gaps["memory-gradient"], gaps["gradient-only"]):
        assert 0.0 <= memory < gradient, n


# n at which the streamed iterate is compared with the batch estimate
CONVERGENCE_CHECKPOINTS = (512, 2048, 8192)


def _distance_ratios(strategy, seed):
    """``r_n = ||h_n - batch_n|| / ||batch_n - h*||`` at each checkpoint n.

    A synthetic N=16 stream of one-sample blocks at noise 0.1, with Huber
    identity blocks.  ``batch_n`` minimizes the objective of the statistics
    after block n, and ``h*`` that of the population statistics: the rows
    are standard normal, so ``autocorr = I`` and ``cross = truth`` exactly.
    """
    from mmls import MMEngine, MomentState, batch_half_quadratic, gen_synthetic

    n_dim, sigma = 16, 0.1
    truth, stream = gen_synthetic(seed, n_dim=n_dim, n_rows=CONVERGENCE_CHECKPOINTS[-1], sigma=sigma)
    reg = identity_blocks_regularizer(n_dim, PenaltySpec("huber", lam=0.02, delta=0.1), tau=1e-6)
    population = MomentState(float(truth.dot(truth)) + sigma**2, truth, np.eye(n_dim), count=1,
                             forgetting=1.0, weight_total=1.0)
    limit = batch_half_quadratic(population, reg).h_star
    if strategy == "sgd":
        stepper = SGDStepper(reg, scale=0.1)
    else:
        stepper = MMEngine(reg, strategy=strategy)
    ratios = []
    for n in range(1, CONVERGENCE_CHECKPOINTS[-1] + 1):
        sample = stream.block(n - 1, 1)
        stepper.step(sample.X, sample.y)
        if n in CONVERGENCE_CHECKPOINTS:
            batch = batch_half_quadratic(stepper.moments, reg, h0=stepper.h).h_star
            ratios.append(np.linalg.norm(stepper.h - batch) / np.linalg.norm(batch - limit))
    return ratios


@pytest.mark.parametrize("strategy", ["memory-gradient", "gradient-only", "full-space", "sgd"])
def test_streamed_iterate_is_as_accurate_as_the_batch_estimate(strategy):
    # the paper's convergence result on a stationary stream at forgetting 1: the
    # streamed iterate h_n approaches the batch estimate of the same statistics
    # much faster than that estimate approaches the limit minimizer h*.  The MM
    # strategies stay below 1.4e-2 (seeds 1 to 4) and SGD above 0.77; r_n need
    # not decay monotonically at N=16, so only the bound is asserted
    for seed in (1, 2):
        ratios = _distance_ratios(strategy, seed)
        if strategy == "sgd":
            assert min(ratios) > 0.5, (seed, ratios)
        else:
            assert max(ratios) < 0.05, (seed, ratios)
