"""Shared construction helpers for tests."""

import tracemalloc

import numpy as np

from unclonelab.hilbert.povm import BinaryPovm


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_binary_povm(dim, rng):
    """Random Hermitian rescaled so its spectrum spans a sub-interval of [0, 1]."""
    h = random_hermitian(dim, rng)
    eigs = np.linalg.eigvalsh(h)
    lo, hi = eigs[0], eigs[-1]
    span = hi - lo if hi > lo else 1.0
    scale = rng.uniform(0.5, 1.0)
    shift = rng.uniform(0.0, 1.0 - scale)
    return BinaryPovm((h - lo * np.eye(dim)) / span * scale + shift * np.eye(dim))


def random_projector(dim, rank, rng):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(a)
    q = q[:, :rank]
    return q @ q.conj().T


def peak_traced_bytes(fn, *args):
    """Call fn(*args) under tracemalloc; return (result, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
