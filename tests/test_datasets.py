"""Generators and their streams."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage
from scipy.signal import convolve2d

import mmls
from conftest import patch_matrix, stream_blocks, traced_peak
from mmls import gen_adaptive, gen_deconv2d, gen_synthetic
from mmls.datasets import (
    ArrayStream,
    PatchStream,
    _blur_axis,
    _random_smooth_kernel,
    _smooth_field,
    _sparse_taps,
)


def scene_and_noise(seed, stream):
    """The scene and noise ``gen_deconv2d(seed, ...)`` drew for ``stream``, drawn again.

    The generator keeps neither; the scene is checked against the padded
    image the stream holds.
    """
    height, width, size, _ = stream.windows.shape
    rng = np.random.default_rng(seed)
    _random_smooth_kernel(rng, size)
    image = _smooth_field(rng, height)
    noise = rng.standard_normal(height * width)
    half = size // 2
    assert np.array_equal(image, stream.padded[half : half + height, half : half + width][::-1, ::-1])
    return image, noise


class TestDeconv2d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(0)
        image = rng.standard_normal((16, 16))
        patches = patch_matrix(image, 5)
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        assert_allclose(patches @ delta.ravel(), image.ravel())

    def test_patch_rows_match_zero_padded_convolution(self):
        rng = np.random.default_rng(1)
        image = rng.standard_normal((20, 20))
        kernel = rng.standard_normal((5, 5))
        patches = patch_matrix(image, 5)
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
        patches = patch_matrix(image, size)
        assert patches.flags.c_contiguous
        assert np.array_equal(patches, np.array(expected))

    def test_blocks_satisfy_observation_equation(self):
        kernel, stream = gen_deconv2d(7, image_size=32, kernel_size=5, sigma=0.1)
        _, noise = scene_and_noise(7, stream)
        for i, sample in enumerate(stream_blocks(stream, 16)):
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
        image, _ = scene_and_noise(5, stream)
        direct = convolve2d(image, kernel, mode="same", boundary="fill")
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
        patches = patch_matrix(scene_and_noise(4, stream)[0], 5)
        blocks = stream_blocks(stream, block_size)
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
        # 10,000 pixels: the observations are formed over 20 chunks, the last partial
        kernel, stream = gen_deconv2d(6, image_size=100, kernel_size=7, sigma=0.05)
        image, noise = scene_and_noise(6, stream)
        expected = patch_matrix(image, 7) @ kernel.ravel() + 0.05 * noise
        assert np.array_equal(stream.observations, expected)

    def test_features_are_cut_on_read(self, monkeypatch):
        _, stream = gen_deconv2d(8, image_size=20, kernel_size=5, sigma=0.0)
        assert isinstance(stream, PatchStream)
        first = stream.features
        assert first.flags.c_contiguous
        assert np.array_equal(first, patch_matrix(scene_and_noise(8, stream)[0], 5))
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
        assert traced_peak(lambda: gen_deconv2d(1, image_size=256, kernel_size=21)) < 32 * 2**20

    def test_generation_holds_at_most_three_images(self):
        # noise, first blur pass and pair buffer; then the scene, its padded
        # copy and the observations; a chunk of patch rows is under a quarter image
        image_bytes = 8 * 512**2
        assert traced_peak(lambda: gen_deconv2d(1, 512, 21)) <= 3.25 * image_bytes


def adaptive_signal(seed, stream):
    """The input signal ``gen_adaptive(seed, ...)`` drew for ``stream``, drawn again.

    The stream keeps no copy; the signal is checked against the newest tap
    of each row.
    """
    signal = np.random.default_rng(seed).integers(0, 2, size=stream.n_rows) * 2.0 - 1.0
    assert np.array_equal(signal, stream.matrix[:, -1])
    return signal


def tap_delay_rows(seed, stream):
    """The row matrix of an adaptive stream, built whole from its input signal drawn again."""
    padded = np.concatenate([np.zeros(stream.n_dim - 1), adaptive_signal(seed, stream)])
    return np.lib.stride_tricks.sliding_window_view(padded, stream.n_dim).copy()


def adaptive_noise(seed, stream, n_active):
    """The noise ``gen_adaptive(seed, ...)`` drew for ``stream``, drawn again."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2, size=stream.n_rows)
    _sparse_taps(rng, stream.n_dim, n_active)
    _sparse_taps(rng, stream.n_dim, n_active)
    return rng.standard_normal(stream.n_rows)


class TestAdaptive:
    def test_default_shape_mirrors_experiment(self):
        truth, stream = gen_adaptive(0)
        assert stream.features.shape == (5000, 200)
        assert truth.change_point == 2500

    def test_truth_switches_at_change_point(self):
        truth, _ = gen_adaptive(0, n_taps=16, n_samples=100, change_point=40, n_active=6)
        assert truth.at(40) is truth.first
        assert truth.at(41) is truth.second

    def test_non_integer_change_point_rejected(self):
        # rejected, not truncated; a numpy integer is one
        for change_point in (40.5, 40.0, "40"):
            with pytest.raises(TypeError, match=f"^change_point must be an integer, got {change_point!r}$"):
                gen_adaptive(0, n_taps=16, n_samples=100, change_point=change_point, n_active=6)
        truth, _ = gen_adaptive(0, n_taps=16, n_samples=100, change_point=np.int64(40), n_active=6)
        assert truth.change_point == 40
        # below 1 too, as the config rejects it
        for change_point in (0, -3):
            with pytest.raises(ValueError, match=f"^change_point must be at least 1, got {change_point}$"):
                gen_adaptive(0, n_taps=16, n_samples=100, change_point=change_point, n_active=6)

    def test_sparse_truths(self):
        truth, _ = gen_adaptive(2, n_taps=64, n_samples=200, n_active=8)
        for h in (truth.first, truth.second):
            active = np.abs(h) > 0
            assert active.sum() == 8
            assert np.all(np.abs(h[active]) >= 0.2)

    def test_zero_noise_output_reproducible_from_taps(self):
        truth, stream = gen_adaptive(4, n_taps=8, n_samples=50, noise_var=0.0, n_active=4)
        padded = np.concatenate([np.zeros(7), adaptive_signal(4, stream)])
        for n in range(1, 51):
            window = padded[n - 1 : n + 7]
            assert stream.observations[n - 1] == pytest.approx(float(window @ truth.at(n)))

    def test_tap_delay_rows_overlap(self):
        _, stream = gen_adaptive(9, n_taps=8, n_samples=40, n_active=3)
        rows = stream.features
        assert_allclose(rows[1:, :-1], rows[:-1, 1:])
        assert set(np.unique(rows[:, -1])) == {-1.0, 1.0}

    def test_taps_longer_than_stream_rejected(self):
        with pytest.raises(ValueError):
            gen_adaptive(0, n_taps=100, n_samples=50)

    def test_more_active_taps_than_taps_rejected(self):
        with pytest.raises(ValueError, match="^n_active must not exceed n_taps$"):
            gen_adaptive(0, n_taps=8, n_samples=40, n_active=9)

    @pytest.mark.parametrize("block_size", [1, 3])
    def test_blocks_are_tap_delay_rows_bit_for_bit(self, block_size):
        _, stream = gen_adaptive(3, n_taps=8, n_samples=40, n_active=3)
        rows = tap_delay_rows(3, stream)
        blocks = stream_blocks(stream, block_size)
        assert len(blocks) == 40 // block_size
        for index, sample in enumerate(blocks):
            span = slice(index * block_size, (index + 1) * block_size)
            expected = rows[span].T
            assert np.array_equal(sample.X, expected)
            if block_size == 1:
                # a longer block is a strided view of the window view, not a copy
                assert sample.X.flags.c_contiguous == expected.flags.c_contiguous
                assert sample.X.flags.f_contiguous == expected.flags.f_contiguous
            assert np.array_equal(sample.y, stream.observations[span])
        with pytest.raises(IndexError):
            stream.block(len(blocks), block_size)

    def test_observations_bit_for_bit(self):
        # 16 taps, 1,300 samples: three chunks, the last partial; the switch at 700
        # falls inside the second.  200 taps, 1,000 samples: chunks of 256 rows, with
        # the switch at a chunk edge, inside the first chunk, at the last sample,
        # and after it (no switch)
        cases = [(11, 16, 1300, 700, 5)] + [(4, 200, 1000, change, 16) for change in (256, 100, 999, 1000)]
        for seed, n_taps, n_samples, change, n_active in cases:
            truth, stream = gen_adaptive(seed, n_taps, n_samples, change_point=change, n_active=n_active)
            rows = tap_delay_rows(seed, stream)
            clean = np.where(np.arange(1, n_samples + 1) <= change, rows @ truth.first, rows @ truth.second)
            expected = clean + np.sqrt(0.05) * adaptive_noise(seed, stream, n_active)
            assert np.array_equal(stream.observations, expected)

    def test_features_are_cut_on_read(self):
        _, stream = gen_adaptive(8, n_taps=12, n_samples=60, n_active=4)
        rows = tap_delay_rows(8, stream)
        assert not stream.matrix.flags.writeable
        assert np.shares_memory(stream.matrix, stream.features)
        assert np.array_equal(stream.features, rows)
        # every array the stream holds is, or views, one smaller than the row matrix
        for held in vars(stream).values():
            if isinstance(held, np.ndarray):
                while getattr(held, "base", None) is not None:
                    held = held.base
                assert held.nbytes < rows.nbytes
        assert (stream.n_rows, stream.n_dim, stream.n_blocks(7)) == (60, 12, 8)
        assert stream.block(7, 7).X.shape == (12, 7)

    def test_generation_never_holds_the_row_matrix(self):
        # the row matrix alone is 5,000 x 200 doubles, 7.6 MiB
        assert traced_peak(lambda: gen_adaptive(1, n_taps=200, n_samples=5000)) < 2 * 2**20


class TestSynthetic:
    def test_truth_passthrough_and_exact_model(self):
        truth = np.array([1.0, -2.0, 0.5])
        got, stream = gen_synthetic(0, n_dim=3, n_rows=20, sigma=0.0, truth=truth)
        assert got is not truth or np.shares_memory(got, truth)
        assert_allclose(stream.observations, stream.features @ truth, rtol=1e-14)

    def test_observations_bit_for_bit(self):
        # 64 columns: chunks of 1,024 rows, five of them, the last partial
        truth, stream = gen_synthetic(9, n_dim=64, n_rows=5000, sigma=0.05)
        rng = np.random.default_rng(9)
        assert np.array_equal(truth, rng.standard_normal(64) / np.sqrt(64))
        rows = rng.standard_normal((5000, 64))
        noise = rng.standard_normal(5000)
        assert np.array_equal(stream.features, rows)
        assert np.array_equal(stream.observations, rows @ truth + 0.05 * noise)

    def test_seeded_reproducibility(self):
        a = gen_synthetic(12, n_dim=4, n_rows=10, sigma=0.3)
        b = gen_synthetic(12, n_dim=4, n_rows=10, sigma=0.3)
        assert_allclose(a[1].observations, b[1].observations)


def synthetic_reference():
    """A synthetic stream with its rows and observations, drawn again and built whole."""
    _, stream = gen_synthetic(5, n_dim=4, n_rows=30, sigma=0.1)
    rng = np.random.default_rng(5)
    truth = rng.standard_normal(4) / np.sqrt(4)
    rows = rng.standard_normal((30, 4))
    return stream, rows, rows @ truth + 0.1 * rng.standard_normal(30)


def adaptive_reference():
    """An adaptive stream with its tap-delay rows and observations, built whole."""
    truth, stream = gen_adaptive(6, n_taps=8, n_samples=30, change_point=11, n_active=3)
    rows = tap_delay_rows(6, stream)
    clean = np.where(np.arange(1, 31) <= 11, rows @ truth.first, rows @ truth.second)
    return stream, rows, clean + np.sqrt(0.05) * adaptive_noise(6, stream, 3)


def deconv_reference():
    """A deconvolution stream with its patch rows and observations, built whole."""
    kernel, stream = gen_deconv2d(7, image_size=6, kernel_size=3, sigma=0.1)
    image, noise = scene_and_noise(7, stream)
    rows = patch_matrix(image, 3)
    return stream, rows, rows @ kernel.ravel() + 0.1 * noise


class TestStreamBlocks:
    @pytest.mark.parametrize("block_size", [1, 3])
    @pytest.mark.parametrize("reference", [synthetic_reference, adaptive_reference, deconv_reference],
                             ids=["synthetic", "adaptive", "deconv2d"])
    def test_blocks_are_reference_rows(self, reference, block_size):
        stream, rows, observations = reference()
        blocks = stream_blocks(stream, block_size)
        assert len(blocks) == rows.shape[0] // block_size
        for index, sample in enumerate(blocks):
            span = slice(index * block_size, (index + 1) * block_size)
            assert np.array_equal(sample.X, rows[span].T)
            assert np.array_equal(sample.y, observations[span])

    def test_partial_tail_dropped(self):
        stream = ArrayStream(np.arange(14.0).reshape(7, 2), np.arange(7.0))
        blocks = stream_blocks(stream, 3)
        assert len(blocks) == 2
        assert blocks[0].X.shape == (2, 3)
        assert_allclose(blocks[1].y, [3.0, 4.0, 5.0])

    def test_block_out_of_range(self):
        stream = ArrayStream(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(IndexError):
            stream.block(2, 3)

    @pytest.mark.parametrize("make", [
        lambda: gen_synthetic(0, n_dim=3, n_rows=40)[1],
        lambda: gen_adaptive(1, n_taps=20, n_samples=40)[1],
        lambda: gen_deconv2d(1, image_size=16, kernel_size=3, sigma=0.0)[1],
    ], ids=["synthetic", "adaptive", "deconv2d"])
    def test_block_size_below_one_rejected(self, make):
        stream = make()
        assert stream == stream
        for size in (0, -1, -2):
            with pytest.raises(ValueError, match="block size"):
                stream.block(0, size)
            with pytest.raises(ValueError, match="block size"):
                stream.n_blocks(size)
        # a size that is not an integer is rejected, not truncated; a numpy integer passes
        for size in (2.5, 1.0):
            for call in (lambda: stream.block(0, size), lambda: stream.n_blocks(size)):
                with pytest.raises(TypeError, match=f"^block size must be an integer, got {size}$"):
                    call()
        assert stream.n_blocks(np.int64(2)) == stream.n_rows // 2

    @pytest.mark.parametrize("reference", [synthetic_reference, adaptive_reference, deconv_reference],
                             ids=["synthetic", "adaptive", "deconv2d"])
    @pytest.mark.parametrize("block_size", [1, 4, 7])
    def test_block_bounds_are_those_of_n_blocks(self, reference, block_size):
        stream = reference()[0]
        last = stream.n_blocks(block_size) - 1
        assert stream.block(last, block_size).y.shape == (block_size,)
        for index in (last + 1, -1):
            message = f"^block {index} of size {block_size} exceeds {stream.n_rows} rows$"
            with pytest.raises(IndexError, match=message):
                stream.block(index, block_size)

    @pytest.mark.parametrize("reference", [synthetic_reference, adaptive_reference, deconv_reference],
                             ids=["synthetic", "adaptive", "deconv2d"])
    def test_block_checks_its_size_as_n_blocks_does(self, reference):
        stream = reference()[0]
        for size, error in ((0, ValueError), (-1, ValueError), (1.5, TypeError), ("2", TypeError)):
            with pytest.raises(error) as expected:
                stream.n_blocks(size)
            with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
                stream.block(0, size)
        # numpy integers and True (an int subclass) are taken as their values
        for index, size in ((np.int64(2), np.int64(3)), (2, np.int64(3)), (np.int64(2), 3), (4, True)):
            want = stream.block(int(index), int(size))
            got = stream.block(index, size)
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
        with pytest.raises(IndexError):
            stream.block(np.int64(stream.n_rows), 1)


@pytest.mark.parametrize("shape", [(9, 13), (13, 9), (1, 7), (7, 1)], ids=str)
@pytest.mark.parametrize("size", [1, 3, 5])
def test_rectangular_patch_cuts_bit_for_bit(shape, size):
    # blocks that start mid-row, span rows, and cut one-pixel-wide image rows
    height, width = shape
    image = np.random.default_rng(height * width + size).standard_normal(shape)
    stream = PatchStream(image, size, np.zeros(height * width))
    patches = patch_matrix(image, size)
    features = stream.features
    assert features.flags.c_contiguous and np.array_equal(features, patches)
    for q in sorted({1, 2, 3, width, width + 1, height * width}):
        for index in range(stream.n_blocks(q)):
            X = stream.block(index, q).X
            assert X.flags.f_contiguous
            assert np.array_equal(X, patches[index * q : (index + 1) * q].T)


@pytest.mark.parametrize(
    "shape",
    [*(pytest.param((n, n), id=str(n)) for n in (*range(1, 10), 16, 64, 256)),
     (3, 11), (11, 3), (1, 9), (9, 1)],
    ids=str,
)
def test_blur_is_ndimage_gaussian_filter_bit_for_bit(shape):
    # the non-square shapes gather reflected edge rows on one axis only
    noise = np.random.default_rng(shape).standard_normal(shape)
    blurred = _blur_axis(_blur_axis(noise, 0), 1)
    assert blurred.flags.c_contiguous
    assert np.array_equal(blurred, ndimage.gaussian_filter(noise, 1.0, mode="reflect"))


def test_import_leaves_ndimage_and_special_unloaded():
    package_path = str(pathlib.Path(mmls.__file__).resolve().parent.parent)
    code = "import sys, mmls; print([m for m in ('scipy.ndimage', 'scipy.special') if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": package_path},
    )
    assert done.stdout.strip() == "[]"
