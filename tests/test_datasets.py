"""Generators, streams, and the record format."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import convolve2d

from mmls import gen_adaptive, gen_deconv2d, gen_synthetic, read_records, write_records
from mmls.datasets import FULL_SCALE_REFERENCE, ArrayStream, PatchStream, _patch_matrix


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

    @pytest.mark.parametrize("block_size", [1, 7, 24, 100, 576])
    def test_blocks_are_patch_rows_bit_for_bit(self, block_size):
        # 24 pixels a raster row: blocks of 7 straddle rows, blocks of 100 span several
        _, stream = gen_deconv2d(4, image_size=24, kernel_size=5, sigma=0.1)
        patches = _patch_matrix(stream.info["image"], 5)
        blocks = list(stream.blocks(block_size))
        assert len(blocks) == 576 // block_size
        for index, sample in enumerate(blocks):
            rows = slice(index * block_size, (index + 1) * block_size)
            assert sample.X.flags.f_contiguous and patches[rows].T.flags.f_contiguous
            assert np.array_equal(sample.X, patches[rows].T)
            assert np.array_equal(sample.y, stream.observations[rows])
        with pytest.raises(IndexError):
            stream.block(len(blocks), block_size)
        with pytest.raises(IndexError):
            stream.block(-1, block_size)

    def test_observations_bit_for_bit(self):
        # 10,000 pixels: the observations are formed over three chunks, the last partial
        kernel, stream = gen_deconv2d(6, image_size=100, kernel_size=7, sigma=0.05)
        patches = _patch_matrix(stream.info["image"], 7)
        expected = patches @ kernel.ravel() + 0.05 * stream.info["noise"]
        assert np.array_equal(stream.observations, expected)

    def test_features_are_cut_on_read(self, monkeypatch):
        _, stream = gen_deconv2d(8, image_size=20, kernel_size=5, sigma=0.0)
        assert isinstance(stream, PatchStream)
        first = stream.features
        assert first.flags.c_contiguous
        assert np.array_equal(first, _patch_matrix(stream.info["image"], 5))
        assert stream.features is not first
        # the stream holds the padded image and views of it, nothing the matrix's size
        assert stream.padded.nbytes < first.nbytes
        for held in vars(stream).values():
            if isinstance(held, np.ndarray):
                assert np.shares_memory(held, stream.padded) or held.nbytes < first.nbytes

        def refuse(self):
            raise AssertionError("the patch matrix was built")

        monkeypatch.setattr(PatchStream, "features", property(refuse))
        assert (stream.n_rows, stream.n_dim, stream.n_blocks(64)) == (400, 25, 6)
        assert stream.block(5, 64).X.shape == (25, 64)

    def test_generation_never_holds_the_patch_matrix(self):
        # the patch matrix alone is 65,536 x 441 doubles, 221 MiB
        tracemalloc.start()
        try:
            gen_deconv2d(1, image_size=256, kernel_size=21, sigma=0.03)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

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


def test_binary_records_are_mapped_not_read(tmp_path):
    stream = ArrayStream(np.arange(12.0).reshape(4, 3), np.arange(4.0))
    path = tmp_path / "records.bin"
    write_records(stream, path, fmt="binary")
    back = read_records(path, 3, fmt="binary")
    for array in (back.features, back.observations):
        assert not array.flags.writeable
        base = array
        while not isinstance(base, np.memmap):
            base = base.base
        assert np.shares_memory(array, base)
    assert np.array_equal(back.block(1, 2).X, stream.features[2:4].T)


def test_empty_binary_file_reads_as_empty_stream(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert read_records(path, 3, fmt="binary").n_rows == 0


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
