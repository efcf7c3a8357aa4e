"""Dense state vectors and computational-basis measurement.

Qubit 0 is the most significant bit of a basis label, so the basis index of
|q0 q1 ... q_{n-1}> is the integer with q0 on top.

Everything here is desk-scale: dense vectors are capped at 2^20 amplitudes.
All values are immutable; operations return new objects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_STATE_AMPLITUDES",
    "ATOL",
    "PROB_FLOOR",
    "StateVector",
    "basis_state",
    "tensor",
    "born_sample",
    "measure",
    "haar_sample",
    "state_to_bytes",
]

MAX_STATE_AMPLITUDES = 2**20

# Absolute numeric tolerance for state checks. EIG_ATOL is the eigensolver
# tolerance: eigenvalue clustering, projector and POVM checks, reconstruction.
ATOL = 1e-9
EIG_ATOL = 1e-8

# Outcomes below this probability are treated as exactly impossible, so
# collapse never divides by a vanishing norm.
PROB_FLOOR = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _dense_dim(num_qubits: int) -> int:
    """2^num_qubits, once the count is checked against the dense cap."""
    if num_qubits < 0:
        raise ValueError("num_qubits must be non-negative")
    dim = 1 << num_qubits
    if dim > MAX_STATE_AMPLITUDES:
        raise ValueError(
            f"state of {num_qubits} qubits exceeds the dense cap of "
            f"{MAX_STATE_AMPLITUDES} amplitudes"
        )
    return dim


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on num_qubits qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = _dense_dim(self.num_qubits)
        arr = _frozen_array(self.amplitudes, np.complex128)
        if arr.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got {arr.shape}")
        with np.errstate(over="ignore"):  # huge amplitudes: norm is inf
            norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= 1e-7:  # also rejects NaN and inf
            raise ValueError(f"state not normalized: |amp| = {norm}")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def basis_state(num_qubits: int, index: int) -> StateVector:
    """|index> in the computational basis."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def born_sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an outcome index from Born weights: weights below PROB_FLOOR are
    impossible, and the rest are renormalized before sampling."""
    probs = np.where(probs < PROB_FLOOR, 0.0, probs)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


def measure(
    state: StateVector, qubits: Sequence[int], rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Computational-basis measurement of a run of qubits; returns (outcome,
    collapsed state).

    The run is contiguous and ascending, possibly empty; the outcome reads
    its bits with the first qubit on top. The amplitudes are viewed as a
    (before, 2^len, after) cube: the outcome weights are its marginal over
    the middle axis, and the collapse zeroes every other middle slice.
    """
    qubits = list(qubits)
    start = qubits[0] if qubits else 0
    stop = start + len(qubits)
    if qubits != list(range(start, stop)) or not 0 <= start <= stop <= state.num_qubits:
        raise ValueError("measured qubits are not an ascending run within the state")
    cube = state.amplitudes.reshape(1 << start, 1 << len(qubits), -1)
    outcome = born_sample(np.sum(np.abs(cube) ** 2, axis=(0, 2)), rng)
    amps = np.zeros_like(cube)
    amps[:, outcome] = cube[:, outcome]
    amps /= np.linalg.norm(amps)
    return outcome, StateVector(state.num_qubits, amps.reshape(-1))


def haar_sample(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dim = _dense_dim(num_qubits)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def state_to_bytes(state: StateVector) -> bytes:
    """Little-endian layout: u32 num_qubits, then (re, im) f64 pairs in basis order."""
    return struct.pack("<I", state.num_qubits) + state.amplitudes.astype("<c16").tobytes()
