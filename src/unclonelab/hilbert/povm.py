"""Binary POVM elements, their projective implementations, and threshold measurement.

A binary POVM here is a single operator P with 0 <= P <= I (the accept
element; the reject element is I - P). Its projective implementation is the
spectral decomposition: measuring it yields an eigenvalue p_i and leaves the
state in the corresponding eigenspace, so a second measurement returns the
same outcome. Its eigenvalues, one per cluster of eigensolver values within
EIG_ATOL, never increase, and each comes with its block of orthonormal
eigenvector columns; tests/test_hilbert_povm.py pins its invariants.
Threshold measurement outputs 1 iff the observed eigenvalue clears the
threshold; it is the repeatable test used by the decryptor games. On one
register of a joint state, each eigenspace is weighed by the squared norm of
the register's coefficients in its block, and only the sampled block maps
its coefficients back onto the joint vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import EIG_ATOL, StateVector, born_sample

__all__ = [
    "BinaryPovm",
    "ProjImp",
    "projective_implementation",
    "threshold_measure",
    "threshold_measure_register",
]


def _as_operator(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.allclose(mat, mat.conj().T, atol=EIG_ATOL, rtol=0.0):
        raise ValueError("operator is not Hermitian")
    return mat


@dataclass(frozen=True)
class BinaryPovm:
    """Accept element of a two-outcome POVM: Hermitian with spectrum in [0, 1]."""

    operator: np.ndarray

    def __post_init__(self):
        mat = _as_operator(self.operator).copy()
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -EIG_ATOL or eigs.max() > 1.0 + EIG_ATOL:
            raise ValueError(f"spectrum [{eigs.min()}, {eigs.max()}] not within [0, 1]")
        mat.setflags(write=False)
        object.__setattr__(self, "operator", mat)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class ProjImp:
    """Spectral decomposition of a binary POVM: eigenvalues with eigenvector blocks.

    A plain record of what projective_implementation builds: eigenvalues in
    [0, 1] that never increase (two neighbours may differ by less than
    EIG_ATOL after clipping), and for eigenvalue k a read-only d x k_k block
    B_k of eigenvector columns. The blocks' columns together form a unitary
    within EIG_ATOL, so B_k B_k^dagger is eigenspace k's projector. Nothing
    re-checks these here; tests/test_hilbert_povm.py pins them.
    """

    eigenvalues: tuple[float, ...]
    bases: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        """sum_k p_k B_k B_k^dagger; equals the POVM operator within the eigensolver tolerance."""
        return sum(p * (b @ b.conj().T) for p, b in zip(self.eigenvalues, self.bases))


def projective_implementation(povm: BinaryPovm) -> ProjImp:
    """Spectral decomposition with eigenvalues clustered at the eigensolver tolerance."""
    eigs, vecs = np.linalg.eigh(povm.operator)
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    vecs.setflags(write=False)
    values: list[float] = []
    bases: list[np.ndarray] = []
    start = 0
    for i in range(1, len(eigs) + 1):
        if i == len(eigs) or eigs[start] - eigs[i] > EIG_ATOL:
            values.append(float(np.clip(np.mean(eigs[start:i]), 0.0, 1.0)))
            bases.append(vecs[:, start:i])
            start = i
    return ProjImp(tuple(values), tuple(bases))


def threshold_measure(
    povm: BinaryPovm,
    threshold: float,
    state: StateVector,
    rng: np.random.Generator,
) -> tuple[int, StateVector]:
    """Threshold implementation: 1 iff the sampled eigenvalue is >= threshold.

    Measures the projective implementation of the POVM, so the post state sits
    in one eigenspace and re-running returns the same bit. It is the
    one-register case of threshold_measure_register.
    """
    bit, post = threshold_measure_register(
        povm, threshold, state.amplitudes, (state.dim,), 0, rng
    )
    return bit, StateVector(state.num_qubits, post)


def threshold_measure_register(
    povm: BinaryPovm,
    threshold: float,
    vec: np.ndarray,
    dims: Sequence[int],
    idx: int,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Threshold-measure a POVM acting on one register of a joint pure state.

    Views vec as a (before, d, after) cube around register idx. Cluster k's
    coefficients are B_k^dagger applied to the cube, and its weight is their
    squared norm; the branch is B_k applied to the sampled cluster's
    coefficients, the only product of joint length.
    """
    if math.prod(dims) != vec.shape[0]:
        raise ValueError("register dims do not factor the joint dimension")
    if povm.dim != dims[idx]:
        raise ValueError(f"POVM and register dimensions differ: "
                         f"{povm.dim} != {dims[idx]}")
    pi = projective_implementation(povm)
    cube = vec.reshape(math.prod(dims[:idx]), dims[idx], -1)
    coefs = [b.conj().T @ cube for b in pi.bases]
    weights = np.array([np.linalg.norm(c) ** 2 for c in coefs])
    if abs(weights.sum() - 1.0) > 1e-7:  # the blocks form a unitary: |vec|^2
        raise ValueError("joint vector is not normalized")
    outcome = born_sample(weights, rng)
    branch = (pi.bases[outcome] @ coefs[outcome]).reshape(-1)
    bit = int(pi.eigenvalues[outcome] >= threshold)
    return bit, branch / np.linalg.norm(branch)
