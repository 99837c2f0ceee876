"""Shared builders for the test suite."""

import tracemalloc

import numpy as np
import pytest

from mmls import PenaltySpec, Regularizer, engine
from mmls.moments import MomentState, Sample, update


def make_sample_log(rng, n_dim, block, count):
    """Random sample blocks kept around for brute-force re-evaluation."""
    return [
        Sample(rng.standard_normal((n_dim, block)), rng.standard_normal(block))
        for _ in range(count)
    ]


def stream_blocks(stream, block_size):
    """The stream's whole blocks of ``block_size``, cut by index in order."""
    return [stream.block(index, block_size) for index in range(stream.n_blocks(block_size))]


def stream_moments(samples, forgetting):
    """Feed a sample log through the running update."""
    state = MomentState.zeros(samples[0].n_dim, forgetting)
    for sample in samples:
        state = update(state, sample)
    return state


def brute_force_moments(samples, forgetting):
    """Closed-form weighted averages computed directly from the log."""
    n = len(samples)
    weights = np.array([forgetting ** (n - k) for k in range(1, n + 1)])
    total = weights.sum()
    power = sum(w * float(s.y @ s.y) for w, s in zip(weights, samples)) / total
    cross = sum(w * (s.X @ s.y) for w, s in zip(weights, samples)) / total
    autocorr = sum(w * (s.X @ s.X.T) for w, s in zip(weights, samples)) / total
    return power, cross, autocorr, total


def patch_matrix(image, size):
    """Zero-padded, reversed windows as rows, so that rows @ vec(kernel) is
    the "same" convolution of the image with the kernel.

    The dense reference for ``PatchStream``, built from the unflipped image
    and sharing no code with the stream."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(image, size // 2), (size, size))
    return windows[..., ::-1, ::-1].reshape(-1, size * size)


def traced_peak(call):
    """Peak bytes that ``tracemalloc`` (which sees numpy's arrays) traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_on_reduced_matrix(monkeypatch):
    """Record the ``(basis, autocorr_basis, curvature)`` of every reduced matrix ``MMEngine.step`` builds.

    The basis and its image are views of the state the step writes, so
    copies (in their own memory order) are recorded.  Full space builds
    none: its step solves ``A(h)`` itself, so its steps record nothing.
    """
    calls = []
    build = engine.reduced_matrix

    def spy(basis, autocorr_basis, curvature):
        calls.append((np.copy(basis, order="K"), np.copy(autocorr_basis, order="K"), curvature))
        return build(basis, autocorr_basis, curvature)

    monkeypatch.setattr(engine, "reduced_matrix", spy)
    return calls


def random_regularizer(rng, n_dim, kind="welsch", n_blocks=3, rows_per_block=2,
                       lam=0.3, delta=0.5, kappa=1.5, tau=1e-3, with_shift=True):
    """Generic dense-block regularizer for property tests."""
    spec = PenaltySpec(kind, lam=lam, delta=delta, kappa=kappa)
    ops, shifts = [], []
    for _ in range(n_blocks):  # each block's op, then its shift
        ops.append(rng.standard_normal((rows_per_block, n_dim)))
        if with_shift:
            shifts.append(0.1 * rng.standard_normal(rows_per_block))
    lin = 0.01 * rng.standard_normal(n_dim)
    return Regularizer(n_dim, np.vstack(ops), spec, rows_per_block,
                       shift=np.concatenate(shifts) if with_shift else None, quad=tau, lin=lin)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
