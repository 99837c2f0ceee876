"""Synthetic data generators and the on-disk sample-record format.

A stream is a sequence of feature rows: row ``l`` holds the regressor
producing observation ``l``, so a block of size ``q`` is the transposed
row slice paired with its observations.  The adaptive and synthetic
streams keep their rows as one matrix.  The deconvolution stream keeps
only the flipped, zero-padded image and cuts each block's patch rows
from it when the block is read, so its memory does not grow with the
kernel size.

Record format (owned by this module): one record per observation, laid
out as ``n_dim`` feature values followed by the observation value.  In
binary mode records are raw little-endian 64-bit floats; in CSV mode one
comma-separated line per record, full ``%.17g`` precision, no header.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .moments import Sample

__all__ = [
    "ArrayStream",
    "PatchStream",
    "FULL_SCALE_REFERENCE",
    "gen_deconv2d",
    "gen_adaptive",
    "gen_synthetic",
    "write_records",
    "read_records",
]

# Known full-scale operating point of the 2D identification setup
# (4096x4096 image, 21x21 kernel, noise 0.03, relative error 0.064).
# Recorded for context only; desk-scale runs are judged against the
# batch oracle, never against this number.
FULL_SCALE_REFERENCE = {
    "image_size": 4096,
    "kernel_size": 21,
    "noise_sigma": 0.03,
    "nrmse": 0.064,
}


@dataclass
class ArrayStream:
    """In-memory sample stream: ``features`` (rows, n_dim), ``observations`` (rows,)."""

    features: np.ndarray
    observations: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.observations = np.asarray(self.observations, dtype=float).reshape(-1)
        if self.features.shape[0] != self.observations.shape[0]:
            raise ValueError("features and observations disagree on the number of rows")

    @property
    def n_rows(self) -> int:
        return self.observations.shape[0]

    @property
    def n_dim(self) -> int:
        return self.features.shape[1]

    def n_blocks(self, block_size: int) -> int:
        return self.n_rows // int(block_size)

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Feature rows ``start:stop`` as a (rows, n_dim) array."""
        return self.features[start:stop]

    def block(self, index: int, block_size: int) -> Sample:
        start = index * int(block_size)
        stop = start + int(block_size)
        if index < 0 or stop > self.n_rows:
            raise IndexError(f"block {index} of size {block_size} exceeds {self.n_rows} rows")
        return Sample(self._rows(start, stop).T, self.observations[start:stop])

    def blocks(self, block_size: int):
        """Yield consecutive blocks; a trailing partial block is dropped."""
        for index in range(self.n_blocks(block_size)):
            yield self.block(index, block_size)


@dataclass
class PiecewiseTruth:
    """Time-varying ground truth: ``first`` up to ``change_point``, then ``second``."""

    first: np.ndarray
    second: np.ndarray
    change_point: int

    def at(self, sample_index: int) -> np.ndarray:
        """Truth in effect for 1-based sample index ``sample_index``."""
        return self.first if sample_index <= self.change_point else self.second


# --- 2D blur-kernel identification --------------------------------------


def _random_smooth_kernel(rng, size: int) -> np.ndarray:
    """Nonnegative random bump mixture, normalized to unit sum."""
    axis = np.arange(size) - (size - 1) / 2.0
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    out = np.zeros((size, size))
    for _ in range(3):
        cy, cx = rng.uniform(-size / 4.0, size / 4.0, size=2)
        width = rng.uniform(size / 6.0, size / 3.0)
        amp = rng.uniform(0.4, 1.0)
        out += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width * width))
    return out / out.sum()


def _smooth_field(rng, size: int) -> np.ndarray:
    """Standardized low-pass random field used as the scene."""
    noise = rng.standard_normal((size, size))
    img = ndimage.gaussian_filter(noise, sigma=1.0, mode="reflect")
    img -= img.mean()
    return img / img.std()


def _patch_matrix(image: np.ndarray, size: int) -> np.ndarray:
    """Rows are zero-padded, reversed windows so that rows @ vec(kernel)
    equals the "same" convolution of the image with the kernel.

    The reference for :class:`PatchStream`, which cuts the same rows
    block by block."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(image, size // 2), (size, size))
    return windows[..., ::-1, ::-1].reshape(-1, size * size)


# rows per patch chunk when the observations are formed: 14 MB at a 21x21 kernel
_OBSERVATION_CHUNK = 4096


class PatchStream(ArrayStream):
    """Deconvolution stream that cuts its patch rows from the image.

    Row ``l`` equals row ``l`` of :func:`_patch_matrix`: the reversed
    ``size x size`` window of the zero-padded image at raster pixel
    ``(i, j)``.  That is the forward window of the flipped padded image
    at the mirrored pixel ``(height-1-i, width-1-j)``, so rows
    ``start:stop`` are one window slice per image row they touch, copied
    into a fresh C-ordered array.  A block's ``X`` is that array's
    transpose: the values and Fortran layout of a patch-matrix slice.

    The stream keeps the flipped padded image, not the patch matrix;
    ``features`` cuts the whole matrix on every read.
    """

    def __init__(self, image: np.ndarray, size: int, observations: np.ndarray, info=None):
        height, width = image.shape
        # padding is symmetric, so this is the padded image flipped on both axes
        self.padded = np.pad(image[::-1, ::-1], size // 2)
        # (height, width, size, size); window (a, b) serves pixel (height-1-a, width-1-b)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.padded, (size, size))
        self.observations = np.asarray(observations, dtype=float).reshape(-1)
        self.info = {} if info is None else info
        if self.observations.shape[0] != height * width:
            raise ValueError("features and observations disagree on the number of rows")

    def __repr__(self) -> str:
        # the inherited dataclass repr would cut and print the whole patch matrix
        height, width, size, _ = self.windows.shape
        return f"PatchStream(image={height}x{width}, kernel={size}x{size})"

    @property
    def features(self) -> np.ndarray:
        """The whole (pixels, size**2) patch matrix, cut afresh on each read."""
        return self._rows(0, self.n_rows)

    @property
    def n_dim(self) -> int:
        return self.windows.shape[2] * self.windows.shape[3]

    def _rows(self, start: int, stop: int) -> np.ndarray:
        height, width, size, _ = self.windows.shape
        out = np.empty((stop - start, size * size))
        row = start
        while row < stop:
            i, j = divmod(row, width)
            count = min(stop - row, width - j)
            # pixels (i, j) .. (i, j+count-1) mirror windows (height-1-i, width-j-1 .. width-j-count)
            first = width - j - count
            cut = out[row - start : row - start + count].reshape(count, size, size)
            cut[...] = self.windows[height - 1 - i, first : first + count][::-1]
            row += count
        return out


def gen_deconv2d(seed, image_size=256, kernel_size=7, sigma=0.03):
    """Blur-kernel identification instance.

    A random smooth scene is convolved ("same", zero padding) with a
    random smooth nonnegative kernel of odd size and corrupted by white
    Gaussian noise of standard deviation ``sigma``.  The stream rows are
    the image patches producing each output pixel, in raster order, so
    every block satisfies its own observation equation exactly at zero
    noise.  The stream is a :class:`PatchStream`: no patch matrix is
    built, here or while streaming.

    Returns ``(kernel, stream)`` with ``kernel`` the 2-D ground truth;
    ``stream.info`` keeps the scene and the noise realization.
    """
    if kernel_size % 2 != 1 or kernel_size < 1:
        raise ValueError("kernel_size must be odd and positive")
    if image_size < kernel_size:
        raise ValueError("image_size must be at least kernel_size")
    rng = np.random.default_rng(seed)
    kernel = _random_smooth_kernel(rng, kernel_size)
    image = _smooth_field(rng, image_size)
    noise = rng.standard_normal(image_size * image_size)
    stream = PatchStream(
        image, kernel_size, np.empty(noise.shape),
        info={"image": image, "noise": noise, "noise_sigma": float(sigma)},
    )
    # fill the observations from the stream's own cut, a chunk of rows at a time
    for start in range(0, noise.shape[0], _OBSERVATION_CHUNK):
        stop = min(start + _OBSERVATION_CHUNK, noise.shape[0])
        clean = stream._rows(start, stop) @ kernel.ravel()
        stream.observations[start:stop] = clean + sigma * noise[start:stop]
    return kernel, stream


# --- sparse adaptive filtering -------------------------------------------


def _sparse_taps(rng, n_taps: int, n_active: int) -> np.ndarray:
    """Impulse response with ``n_active`` taps, magnitudes in [0.2, 1]."""
    h = np.zeros(n_taps)
    positions = rng.choice(n_taps, size=n_active, replace=False)
    magnitudes = rng.uniform(0.2, 1.0, size=n_active)
    signs = rng.choice([-1.0, 1.0], size=n_active)
    h[positions] = signs * magnitudes
    return h


def gen_adaptive(seed, n_taps=200, n_samples=5000, noise_var=0.05,
                 change_point=None, n_active=16):
    """Time-varying sparse system identification instance.

    Binary +-1 i.i.d. input drives a tap-delay line (zeros before the
    stream starts); the true sparse filter switches once, halfway by
    default.  Observations carry white Gaussian noise of variance
    ``noise_var``.  Blocks are single samples.

    Returns ``(truth, stream)`` with ``truth`` a :class:`PiecewiseTruth`.
    """
    if n_taps > n_samples:
        raise ValueError("n_taps must not exceed n_samples")
    if n_active > n_taps:
        raise ValueError("n_active must not exceed n_taps")
    rng = np.random.default_rng(seed)
    change = n_samples // 2 if change_point is None else int(change_point)
    signal = rng.integers(0, 2, size=n_samples) * 2.0 - 1.0
    padded = np.concatenate([np.zeros(n_taps - 1), signal])
    rows = np.lib.stride_tricks.sliding_window_view(padded, n_taps).copy()
    first = _sparse_taps(rng, n_taps, n_active)
    second = _sparse_taps(rng, n_taps, n_active)
    clean = np.where(
        np.arange(1, n_samples + 1) <= change, rows @ first, rows @ second
    )
    obs = clean + np.sqrt(noise_var) * rng.standard_normal(n_samples)
    truth = PiecewiseTruth(first, second, change)
    stream = ArrayStream(rows, obs, info={"input": signal, "noise_var": float(noise_var)})
    return truth, stream


# --- generic random stream -------------------------------------------------


def gen_synthetic(seed, n_dim=32, n_rows=2000, sigma=0.01, truth=None):
    """Dense Gaussian regression stream with optional fixed truth."""
    rng = np.random.default_rng(seed)
    if truth is None:
        truth = rng.standard_normal(n_dim) / np.sqrt(n_dim)
    else:
        truth = np.asarray(truth, dtype=float).reshape(-1)
    rows = rng.standard_normal((n_rows, n_dim))
    obs = rows @ truth + sigma * rng.standard_normal(n_rows)
    return truth, ArrayStream(rows, obs)


# --- record IO --------------------------------------------------------------


def write_records(stream: ArrayStream, path, fmt="binary") -> None:
    """Write a stream to disk in the documented record format."""
    records = np.column_stack([stream.features, stream.observations])
    if fmt == "binary":
        records.astype("<f8").tofile(path)
    elif fmt == "csv":
        np.savetxt(path, records, delimiter=",", fmt="%.17g")
    else:
        raise ValueError(f"unknown record format {fmt!r}")


def read_records(path, n_dim: int, fmt="binary") -> ArrayStream:
    """Read a stream written by :func:`write_records`.

    A binary file is mapped read-only, not read: the stream's arrays are
    views of the map, so only the pages a stream touches become resident.
    """
    if fmt == "binary":
        record_bytes = 8 * (n_dim + 1)
        size = os.path.getsize(path)
        if size % record_bytes != 0:
            raise ValueError(f"file length is not a multiple of {n_dim + 1} values")
        if size == 0:  # an empty file cannot be mapped
            records = np.zeros((0, n_dim + 1))
        else:
            records = np.memmap(path, dtype="<f8", mode="r", shape=(size // record_bytes, n_dim + 1))
    elif fmt == "csv":
        records = np.loadtxt(path, delimiter=",", ndmin=2)
        if records.shape[1] != n_dim + 1:
            raise ValueError(f"expected {n_dim + 1} columns, found {records.shape[1]}")
    else:
        raise ValueError(f"unknown record format {fmt!r}")
    return ArrayStream(records[:, :n_dim], records[:, n_dim])
