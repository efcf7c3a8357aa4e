"""Binary POVM elements, their projective implementations, and threshold measurement.

A binary POVM here is a single operator P with 0 <= P <= I (the accept
element; the reject element is I - P). Its projective implementation is the
spectral decomposition: measuring it yields an eigenvalue p_i and leaves the
state in the corresponding eigenspace, so a second measurement returns the
same outcome. Threshold measurement outputs 1 iff the observed eigenvalue
clears the threshold; it is the repeatable test used by the decryptor games.

Mixtures of projective measurements enter as explicit (probability,
projector) lists and collapse to the POVM element sum_i p_i Pi_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import EIG_ATOL, DensityOperator, StateVector, born_sample

__all__ = [
    "BinaryPovm",
    "ProjImp",
    "projective_implementation",
    "mixture_povm",
    "threshold_measure",
    "apply_op_to_register",
    "measure_register_projective",
    "threshold_measure_register",
]


def _as_operator(mat, dim_hint=None) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    if dim_hint is not None and mat.shape[0] != dim_hint:
        raise ValueError(f"operator dimension {mat.shape[0]} != {dim_hint}")
    if not np.allclose(mat, mat.conj().T, atol=EIG_ATOL, rtol=0.0):
        raise ValueError("operator is not Hermitian")
    return mat


def _as_projector(mat, dim: int, error: str) -> np.ndarray:
    """A Hermitian idempotent operator of the given dimension; else ValueError(error)."""
    proj = _as_operator(mat, dim)
    if not np.allclose(proj @ proj, proj, atol=EIG_ATOL, rtol=0.0):
        raise ValueError(error)
    return proj


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
    """Spectral decomposition of a binary POVM: eigenvalues with eigenspace projectors.

    Eigenvalues are strictly decreasing and the projectors are mutually
    orthogonal, idempotent, and complete.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.projectors) or not self.eigenvalues:
            raise ValueError("need one projector per eigenvalue")
        diffs = np.diff(self.eigenvalues)
        if len(diffs) and diffs.max() > -EIG_ATOL / 2:
            raise ValueError("eigenvalues must be strictly decreasing")
        dim = self.projectors[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        frozen = []
        for proj in self.projectors:
            proj = _as_projector(proj, dim, "projector is not idempotent").copy()
            total += proj
            proj.setflags(write=False)
            frozen.append(proj)
        if not np.allclose(total, np.eye(dim), atol=EIG_ATOL, rtol=0.0):
            raise ValueError("projectors do not resolve the identity")
        for i in range(len(frozen)):
            for j in range(i + 1, len(frozen)):
                if np.abs(frozen[i] @ frozen[j]).max() > EIG_ATOL:
                    raise ValueError("projectors are not mutually orthogonal")
        object.__setattr__(self, "eigenvalues", tuple(float(p) for p in self.eigenvalues))
        object.__setattr__(self, "projectors", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        """sum_i p_i Pi_i; equals the POVM operator within the eigensolver tolerance."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for p, proj in zip(self.eigenvalues, self.projectors):
            out += p * proj
        return out


def projective_implementation(povm: BinaryPovm) -> ProjImp:
    """Spectral decomposition with eigenvalues clustered at the eigensolver tolerance."""
    eigs, vecs = np.linalg.eigh(povm.operator)
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    values: list[float] = []
    projectors: list[np.ndarray] = []
    start = 0
    for i in range(1, len(eigs) + 1):
        if i == len(eigs) or eigs[start] - eigs[i] > EIG_ATOL:
            block = vecs[:, start:i]
            values.append(float(np.clip(np.mean(eigs[start:i]), 0.0, 1.0)))
            projectors.append(block @ block.conj().T)
            start = i
    return ProjImp(tuple(values), tuple(projectors))


def mixture_povm(dist: Sequence[tuple[float, np.ndarray]]) -> BinaryPovm:
    """POVM element of a mixture of projective tests: sum_i p_i Pi_i."""
    if not dist:
        raise ValueError("mixture must contain at least one component")
    probs = np.array([p for p, _ in dist], dtype=float)
    if probs.min() < 0:
        raise ValueError("mixture probabilities must be non-negative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture probabilities sum to {probs.sum()}, not 1")
    dim = np.asarray(dist[0][1]).shape[0]
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for p, proj in dist:
        acc += p * _as_projector(proj, dim, "mixture component is not a projector")
    return BinaryPovm(acc)


def threshold_measure(
    povm: BinaryPovm,
    threshold: float,
    state: StateVector | DensityOperator,
    rng: np.random.Generator,
) -> tuple[int, StateVector | DensityOperator]:
    """Threshold implementation: 1 iff the sampled eigenvalue is >= threshold.

    Measures the projective implementation of the POVM, so the post state sits
    in one eigenspace and re-running returns the same bit. A pure state is the
    one-register case of threshold_measure_register.
    """
    if state.dim != povm.dim:
        raise ValueError("state and measurement dimensions differ")
    if isinstance(state, StateVector):
        bit, post = threshold_measure_register(
            povm, threshold, state.amplitudes, (state.dim,), 0, rng
        )
        return bit, StateVector(state.num_qubits, post)
    pi = projective_implementation(povm)
    probs = np.array([float(np.trace(proj @ state.matrix).real) for proj in pi.projectors])
    idx = born_sample(probs, rng)
    m = pi.projectors[idx] @ state.matrix @ pi.projectors[idx]
    post = DensityOperator(state.dim, m / np.trace(m).real)
    return int(pi.eigenvalues[idx] >= threshold), post


# -- register-local application on joint states ------------------------------


def apply_op_to_register(
    vec: np.ndarray, op: np.ndarray, dims: Sequence[int], idx: int
) -> np.ndarray:
    """Apply (I (x) op (x) I) to a joint vector over registers of the given dims."""
    dims = list(dims)
    if int(np.prod(dims)) != vec.shape[0]:
        raise ValueError("register dims do not factor the joint dimension")
    before = int(np.prod(dims[:idx])) if idx else 1
    after = int(np.prod(dims[idx + 1 :])) if idx + 1 < len(dims) else 1
    cube = vec.reshape(before, dims[idx], after)
    return np.einsum("ij,ajb->aib", op, cube).reshape(-1)


def measure_register_projective(
    vec: np.ndarray,
    dims: Sequence[int],
    idx: int,
    projectors: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Projectively measure one register of a joint state; returns (outcome, collapsed)."""
    branches = [apply_op_to_register(vec, proj, dims, idx) for proj in projectors]
    probs = np.array([float(np.linalg.norm(b) ** 2) for b in branches])
    if abs(probs.sum() - 1.0) > 1e-7:
        raise ValueError("projector family does not resolve the register identity")
    outcome = born_sample(probs, rng)
    post = branches[outcome] / np.linalg.norm(branches[outcome])
    return outcome, post


def threshold_measure_register(
    povm: BinaryPovm,
    threshold: float,
    vec: np.ndarray,
    dims: Sequence[int],
    idx: int,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Threshold-measure a POVM acting on one register of a joint pure state."""
    pi = projective_implementation(povm)
    outcome, post = measure_register_projective(vec, dims, idx, pi.projectors, rng)
    return int(pi.eigenvalues[outcome] >= threshold), post
