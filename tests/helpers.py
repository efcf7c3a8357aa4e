"""Shared construction helpers for tests."""

import itertools
import math
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


def ots_rows(blob, L):
    """Split a one-time key blob back into its 2 x L table of 32-byte entries."""
    return tuple(tuple(blob[32 * (b * L + i) : 32 * (b * L + i + 1)]
                       for i in range(L)) for b in (0, 1))


def peak_traced_bytes(fn, *args):
    """Call fn(*args) under tracemalloc; return (result, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# dense multiset-basis averages that check purify's closed-form distance
MAX_SYM_DIM = 4096


def _sym_dim(n, t):
    """Dimension of the t-copy symmetric subspace of n qubits, under the cap."""
    dim = math.comb((1 << n) + t - 1, t)
    if dim > MAX_SYM_DIM:
        raise ValueError("symmetric subspace dimension over cap")
    return dim


def haar_average_exact(n, t):
    """Haar t-copy average in the symmetric multiset basis: I / dim."""
    dim = _sym_dim(n, t)
    return np.eye(dim) / dim, dim


def type_average_exact(n, t):
    """Average of (|type_S><type_S|) over distinct t-subsets S, written in
    the same multiset basis: each distinct multiset IS a type state."""
    d = 1 << n
    dim = _sym_dim(n, t)
    rho = np.zeros((dim, dim))
    count = math.comb(d, t)
    for idx, multiset in enumerate(itertools.combinations_with_replacement(range(d), t)):
        if len(set(multiset)) == t:
            rho[idx, idx] = 1.0 / count
    return rho


def accept_operator(space):
    """Dense matrix of the banknote verification: project, rotate, project
    on the dual, rotate back. Equals |A><A| up to float error."""
    dim = 1 << space.n
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    had = np.array([[1.0]])
    for _ in range(space.n):
        had = np.kron(had, h)
    pa = np.zeros((dim, dim))
    pa[space.elements(), space.elements()] = 1.0
    pd = np.zeros((dim, dim))
    pd[space.dual_elements(), space.dual_elements()] = 1.0
    return pa @ had @ pd @ had @ pa
