"""Generators, streams, and the record format."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import convolve2d

from mmls import gen_adaptive, gen_deconv2d, gen_synthetic, read_records, write_records
from mmls.datasets import FULL_SCALE_REFERENCE, ArrayStream, _patch_matrix


class TestDeconv2d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(0)
        image = rng.standard_normal((16, 16))
        patches = _patch_matrix(image, 5)
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        assert_allclose(patches @ delta.ravel(), image.ravel())

    def test_patch_rows_match_zero_padded_convolution(self):
        rng = np.random.default_rng(1)
        image = rng.standard_normal((20, 20))
        kernel = rng.standard_normal((5, 5))
        patches = _patch_matrix(image, 5)
        direct = convolve2d(image, kernel, mode="same", boundary="fill")
        assert_allclose(patches @ kernel.ravel(), direct.ravel(), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("size", [5, 1])
    def test_patch_matrix_matches_definition_exactly(self, size):
        image = np.random.default_rng(2).standard_normal((9, 13))
        h = size // 2
        padded = np.pad(image, h)
        expected = [
            [padded[2 * h - a + i, 2 * h - b + j] for a in range(size) for b in range(size)]
            for i in range(9)
            for j in range(13)
        ]
        patches = _patch_matrix(image, size)
        assert patches.flags.c_contiguous
        assert np.array_equal(patches, np.array(expected))

    def test_blocks_satisfy_observation_equation(self):
        kernel, stream = gen_deconv2d(7, image_size=32, kernel_size=5, sigma=0.1)
        noise = stream.info["noise"]
        for i, sample in enumerate(stream.blocks(16)):
            clean = sample.X.T @ kernel.ravel()
            expected = clean + 0.1 * noise[16 * i : 16 * (i + 1)]
            assert_allclose(sample.y, expected, rtol=1e-12, atol=1e-14)

    def test_kernel_properties(self):
        kernel, _ = gen_deconv2d(3, image_size=16, kernel_size=7, sigma=0.0)
        assert kernel.shape == (7, 7)
        assert kernel.min() >= 0.0
        assert kernel.sum() == pytest.approx(1.0)

    def test_zero_noise_reproduces_convolution(self):
        kernel, stream = gen_deconv2d(5, image_size=24, kernel_size=3, sigma=0.0)
        direct = convolve2d(stream.info["image"], kernel, mode="same", boundary="fill")
        assert_allclose(stream.observations, direct.ravel(), rtol=1e-12)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            gen_deconv2d(0, image_size=16, kernel_size=4, sigma=0.0)
        with pytest.raises(ValueError):
            gen_deconv2d(0, image_size=4, kernel_size=7, sigma=0.0)

    def test_full_scale_reference_metadata(self):
        assert FULL_SCALE_REFERENCE["image_size"] == 4096
        assert FULL_SCALE_REFERENCE["kernel_size"] == 21
        assert FULL_SCALE_REFERENCE["noise_sigma"] == 0.03
        assert FULL_SCALE_REFERENCE["nrmse"] == 0.064


class TestAdaptive:
    def test_default_shape_mirrors_experiment(self):
        truth, stream = gen_adaptive(0)
        assert stream.features.shape == (5000, 200)
        assert truth.change_point == 2500
        assert stream.info["noise_var"] == 0.05

    def test_truth_switches_at_change_point(self):
        truth, _ = gen_adaptive(0, n_taps=16, n_samples=100, change_point=40, n_active=6)
        assert truth.at(40) is truth.first
        assert truth.at(41) is truth.second

    def test_sparse_truths(self):
        truth, _ = gen_adaptive(2, n_taps=64, n_samples=200, n_active=8)
        for h in (truth.first, truth.second):
            active = np.abs(h) > 0
            assert active.sum() == 8
            assert np.all(np.abs(h[active]) >= 0.2)

    def test_zero_noise_output_reproducible_from_taps(self):
        truth, stream = gen_adaptive(4, n_taps=8, n_samples=50, noise_var=0.0, n_active=4)
        signal = stream.info["input"]
        padded = np.concatenate([np.zeros(7), signal])
        for n in range(1, 51):
            window = padded[n - 1 : n + 7]
            assert stream.observations[n - 1] == pytest.approx(float(window @ truth.at(n)))

    def test_tap_delay_rows_overlap(self):
        _, stream = gen_adaptive(9, n_taps=8, n_samples=40, n_active=3)
        rows = stream.features
        assert_allclose(rows[1:, :-1], rows[:-1, 1:])
        assert set(np.unique(stream.info["input"])) == {-1.0, 1.0}

    def test_taps_longer_than_stream_rejected(self):
        with pytest.raises(ValueError):
            gen_adaptive(0, n_taps=100, n_samples=50)


class TestSynthetic:
    def test_truth_passthrough_and_exact_model(self):
        truth = np.array([1.0, -2.0, 0.5])
        got, stream = gen_synthetic(0, n_dim=3, n_rows=20, sigma=0.0, truth=truth)
        assert got is not truth or np.shares_memory(got, truth)
        assert_allclose(stream.observations, stream.features @ truth, rtol=1e-14)

    def test_seeded_reproducibility(self):
        a = gen_synthetic(12, n_dim=4, n_rows=10, sigma=0.3)
        b = gen_synthetic(12, n_dim=4, n_rows=10, sigma=0.3)
        assert_allclose(a[1].observations, b[1].observations)


class TestStreamBlocks:
    def test_partial_tail_dropped(self):
        stream = ArrayStream(np.arange(14.0).reshape(7, 2), np.arange(7.0))
        blocks = list(stream.blocks(3))
        assert len(blocks) == 2
        assert blocks[0].X.shape == (2, 3)
        assert_allclose(blocks[1].y, [3.0, 4.0, 5.0])

    def test_block_out_of_range(self):
        stream = ArrayStream(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(IndexError):
            stream.block(2, 3)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_record_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(21)
    stream = ArrayStream(rng.standard_normal((12, 5)), rng.standard_normal(12))
    path = tmp_path / f"records.{fmt}"
    write_records(stream, path, fmt=fmt)
    back = read_records(path, 5, fmt=fmt)
    assert_allclose(back.features, stream.features, rtol=0, atol=0)
    assert_allclose(back.observations, stream.observations, rtol=0, atol=0)


def test_binary_record_layout(tmp_path):
    stream = ArrayStream(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]))
    path = tmp_path / "records.bin"
    write_records(stream, path, fmt="binary")
    raw = np.fromfile(path, dtype="<f8")
    assert_allclose(raw, [1.0, 2.0, 5.0, 3.0, 4.0, 6.0])


def test_truncated_binary_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    np.arange(5, dtype="<f8").tofile(path)
    with pytest.raises(ValueError):
        read_records(path, 3, fmt="binary")
