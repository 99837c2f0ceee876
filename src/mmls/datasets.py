"""Synthetic data generators and their sample streams.

A stream is a sequence of feature rows: row ``l`` holds the regressor
producing observation ``l``, so a block of size ``q`` is the transposed
row slice paired with its observations.  :class:`ArrayStream` serves
``block`` and ``features`` through one hook, ``_rows``, from
its row matrix ``matrix``.  The synthetic stream's matrix is an array;
the adaptive stream's is a read-only window view of the zero-padded
input signal, which costs no memory.  The deconvolution stream,
:class:`PatchStream`, defines only ``__init__`` and ``_rows``: it keeps
the flipped, zero-padded image and cuts each block's patch rows from it.
Neither of the last two keeps memory that grows with rows times filter
size.  All three generators fill their observations through one loop,
``ArrayStream._observe``, a small chunk of rows at a time.
The dense patch matrix that :class:`PatchStream` is tested against is
built in the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .moments import Sample
from .penalties import _coerce_dim, _coerce_vector

__all__ = [
    "ArrayStream",
    "PatchStream",
    "gen_deconv2d",
    "gen_adaptive",
    "gen_synthetic",
]

class ArrayStream:
    """In-memory sample stream: feature rows (rows, n_dim) paired with ``observations`` (rows,).

    The row matrix ``matrix`` may be a view.  A subclass that keeps less
    calls :meth:`_keep` from its ``__init__`` and overrides :meth:`_rows`,
    the one hook through which ``block`` and ``features`` read.
    """

    def __init__(self, features, observations):
        self.matrix = np.atleast_2d(np.asarray(features, dtype=float))
        self._keep(observations, *self.matrix.shape)

    def _keep(self, observations, n_rows: int, n_dim: int) -> None:
        """Keep ``observations`` and ``n_dim``; check there are ``n_rows`` observations."""
        self.observations = _coerce_vector(observations, n_rows, "observations")
        self.n_dim = n_dim

    @property
    def n_rows(self) -> int:
        return self.observations.shape[0]

    @property
    def features(self) -> np.ndarray:
        """The whole (rows, n_dim) row matrix; :class:`PatchStream` cuts it afresh on each read."""
        return self._rows(0, self.n_rows)

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Feature rows ``start:stop`` as a (rows, n_dim) array."""
        return self.matrix[start:stop]

    def n_blocks(self, block_size: int) -> int:
        """Number of whole blocks of ``block_size`` rows; a trailing partial block is dropped."""
        return self.n_rows // _coerce_dim(block_size, "block size")

    def _observe(self, rng, scale, truth, later=None, change=None):
        """Fill ``observations``: each row times its truth, plus ``scale`` times noise from ``rng``.

        Rows before ``change`` take ``truth`` and the rest ``later``; with
        no ``later``, every row takes ``truth``.  The rows are cut one
        C-ordered chunk of :func:`_chunk_rows` at a time, and each chunk is
        freed before the next is cut.  A chunk takes one product, or both
        and a pick if it straddles ``change``.  The noise is drawn chunk by
        chunk, the same values as one whole draw.
        """
        n_rows = self.n_rows
        if later is None:
            change = n_rows
        chunk = _chunk_rows(self.n_dim)
        for start in range(0, n_rows, chunk):
            stop = min(start + chunk, n_rows)
            # a product with a strided view would sum in another order
            rows = np.ascontiguousarray(self._rows(start, stop))
            if stop <= change:
                clean = rows @ truth
            elif start >= change:
                clean = rows @ later
            else:
                clean = np.where(np.arange(start, stop) < change, rows @ truth, rows @ later)
            del rows
            self.observations[start:stop] = clean + scale * rng.standard_normal(stop - start)

    def block(self, index: int, block_size: int) -> Sample:
        """Block ``index`` of ``block_size`` rows, with no call to :meth:`n_blocks`.

        ``IndexError`` unless ``0 <= index < n_blocks(block_size)``, the
        test written out here; a size other than a Python ``int`` of at
        least 1 is checked as :meth:`n_blocks` checks it.
        """
        if type(block_size) is not int or block_size < 1:
            block_size = _coerce_dim(block_size, "block size")
        n_rows = self.observations.shape[0]
        if not 0 <= index < n_rows // block_size:
            raise IndexError(f"block {index} of size {block_size} exceeds {n_rows} rows")
        start = index * block_size
        stop = start + block_size
        return Sample(self._rows(start, stop).T, self.observations[start:stop])


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


def _gaussian_weights() -> np.ndarray:
    """Sigma-1 Gaussian weights for offsets 0..4, normalized over -4..4."""
    phi = np.exp(-0.5 * np.arange(-4, 5) ** 2)
    return (phi / phi.sum())[4:]


_BLUR_WEIGHTS = _gaussian_weights()


def _blur_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Sigma-1 Gaussian correlation of ``x`` along ``axis``, reflected at the edges.

    Bit for bit ``scipy.ndimage.gaussian_filter1d(x, 1.0, axis, mode="reflect")``:
    the same weights, and each output ``x[0]*w[0]`` plus ``(x[-j] + x[j])*w[j]``
    added for ``j`` from 4 down to 1, the order of its symmetric-kernel loop.
    No padded copy is made: interior rows add two slices of ``x`` into one
    pair buffer, and the rows within ``radius`` of an edge gather their
    reflected neighbours by index.
    """
    radius = _BLUR_WEIGHTS.size - 1
    n = x.shape[axis]
    out = np.empty(x.shape)
    # views with the blurred axis first
    src, dst = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    stop = n - radius
    if stop > radius:
        np.multiply(src[radius:stop], _BLUR_WEIGHTS[0], out=dst[radius:stop])
        pair = np.empty_like(src[radius:stop])  # laid out in memory as ``x`` is
        for j in range(radius, 0, -1):
            np.add(src[radius - j : stop - j], src[radius + j : stop + j], out=pair)
            pair *= _BLUR_WEIGHTS[j]
            dst[radius:stop] += pair
    # edge rows; source index of padded position k is reflected[k]
    edge = np.r_[0 : min(radius, n), max(stop, radius) : n]
    reflected = np.pad(np.arange(n), radius, mode="symmetric")
    rows = src[reflected[edge + radius]] * _BLUR_WEIGHTS[0]
    for j in range(radius, 0, -1):
        below, above = reflected[edge + radius - j], reflected[edge + radius + j]
        rows += (src[below] + src[above]) * _BLUR_WEIGHTS[j]
    dst[edge] = rows
    return out


def _smooth_field(rng, size: int) -> np.ndarray:
    """Standardized low-pass random field used as the scene.

    The blur is ``ndimage.gaussian_filter(noise, 1.0, mode="reflect")``,
    done here so that importing the package does not load ``scipy.ndimage``.
    The noise is freed after the first pass and the field normalized in
    place, so no more than three image-sized arrays are held at once.
    """
    img = _blur_axis(_blur_axis(rng.standard_normal((size, size)), 0), 1)
    img -= img.mean()
    img /= img.std()
    return img


def _chunk_rows(n_dim: int) -> int:
    """Rows cut at a time when a generator forms its observations.

    The most rows that fit in 512 KiB, rounded down to a power of two, so
    that chunk edges keep the row grouping of a BLAS matrix-vector kernel
    (OpenBLAS takes four rows at a time and sums the rows left over at a
    chunk's end another way): an observation's bits then do not depend on
    the chunk size.
    """
    fit = max(1, 2**16 // n_dim)
    return 1 << (fit.bit_length() - 1)


class PatchStream(ArrayStream):
    """Deconvolution stream that cuts its patch rows from the image.

    Row ``l`` is the reversed ``size x size`` window of the zero-padded
    image at raster pixel ``(i, j)``, so that a row times the raveled
    kernel is the "same" convolution at that pixel: the forward window
    of the flipped padded image at the mirrored pixel.  The window view
    is flipped back once, so ``windows[i, j]`` is the row of pixel
    ``(i, j)``, and rows ``start:stop`` are one window slice per image
    row they touch, copied into a fresh C-ordered array.  A block's
    ``X`` is that array's transpose: the values and Fortran layout of a
    patch-matrix slice.

    The stream keeps the flipped padded image, not the patch matrix;
    ``features`` cuts the whole matrix on every read.
    """

    def __init__(self, image: np.ndarray, size: int, observations: np.ndarray):
        height, width = image.shape
        # padding is symmetric, so this is the padded image flipped on both axes
        self.padded = np.pad(image[::-1, ::-1], size // 2)
        # (height, width, size, size); window (i, j) is the row of pixel (i, j)
        self.windows = sliding_window_view(self.padded, (size, size))[::-1, ::-1]
        self._keep(observations, height * width, size * size)

    def _rows(self, start: int, stop: int) -> np.ndarray:
        _, width, size, _ = self.windows.shape
        out = np.empty((stop - start, size, size))
        # image rows i of pixels start .. stop - 1
        for i in range(start // width, (stop - 1) // width + 1):
            lo, hi = max(start, i * width), min(stop, (i + 1) * width)
            out[lo - start : hi - start] = self.windows[i, lo - i * width : hi - i * width]
        return out.reshape(stop - start, size * size)


def gen_deconv2d(seed, image_size=256, kernel_size=7, sigma=0.03):
    """Blur-kernel identification instance.

    A random smooth scene is convolved ("same", zero padding) with a
    random smooth nonnegative kernel of odd size and corrupted by white
    Gaussian noise of standard deviation ``sigma``.  The stream rows are
    the image patches producing each output pixel, in raster order, so
    every block satisfies its own observation equation exactly at zero
    noise.  The stream is a :class:`PatchStream`: no patch matrix is
    built, here or while streaming, and the observations are formed from
    the stream's own cut, at most 512 KiB of rows at a time.

    Returns ``(kernel, stream)`` with ``kernel`` the 2-D ground truth.
    The scene is dropped once the stream holds its padded copy, and the
    noise is drawn one chunk at a time, so generation holds at most
    three image-sized arrays at once.
    """
    if kernel_size % 2 != 1 or kernel_size < 1:
        raise ValueError("kernel_size must be odd and positive")
    if image_size < kernel_size:
        raise ValueError("image_size must be at least kernel_size")
    rng = np.random.default_rng(seed)
    kernel = _random_smooth_kernel(rng, kernel_size)
    stream = PatchStream(_smooth_field(rng, image_size), kernel_size, np.empty(image_size**2))
    stream._observe(rng, sigma, kernel.ravel())
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
    ``noise_var``.  Blocks are single samples.  The stream is an
    :class:`ArrayStream` whose ``matrix`` is the read-only window view
    ``sliding_window_view(padded, n_taps)`` of the zero-padded signal:
    row ``l`` is ``padded[l : l + n_taps]``, and no row matrix is built,
    here or while streaming.

    Returns ``(truth, stream)`` with ``truth`` a :class:`PiecewiseTruth`.
    """
    if n_taps > n_samples:
        raise ValueError("n_taps must not exceed n_samples")
    if n_active > n_taps:
        raise ValueError("n_active must not exceed n_taps")
    change = n_samples // 2 if change_point is None else _coerce_dim(change_point, "change_point")
    rng = np.random.default_rng(seed)
    signal = rng.integers(0, 2, size=n_samples) * 2.0 - 1.0
    first = _sparse_taps(rng, n_taps, n_active)
    second = _sparse_taps(rng, n_taps, n_active)
    padded = np.concatenate([np.zeros(n_taps - 1), signal])
    stream = ArrayStream(sliding_window_view(padded, n_taps), np.empty(n_samples))
    stream._observe(rng, np.sqrt(noise_var), first, second, change)
    return PiecewiseTruth(first, second, change), stream


# --- generic random stream -------------------------------------------------


def gen_synthetic(seed, n_dim=32, n_rows=2000, sigma=0.01, truth=None):
    """Dense Gaussian regression stream with optional fixed truth."""
    rng = np.random.default_rng(seed)
    if truth is None:
        truth = rng.standard_normal(n_dim) / np.sqrt(n_dim)
    else:
        truth = _coerce_vector(truth, n_dim, "truth")
    stream = ArrayStream(rng.standard_normal((n_rows, n_dim)), np.empty(n_rows))
    stream._observe(rng, sigma, truth)
    return truth, stream
