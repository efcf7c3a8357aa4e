"""Dense state vectors, density operators, and computational-basis measurement.

Qubit 0 is the most significant bit of a basis label, so the basis index of
|q0 q1 ... q_{n-1}> is the integer with q0 on top. Registers are contiguous
qubit runs described by a layout tuple of widths, in the same order.

Everything here is desk-scale: dense vectors are capped at 2^20 amplitudes and
density operators at dimension 2^10. All values are immutable; operations
return new objects.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_STATE_AMPLITUDES",
    "MAX_DENSITY_DIM",
    "ATOL",
    "PROB_FLOOR",
    "StateVector",
    "DensityOperator",
    "basis_state",
    "superpose",
    "tensor",
    "inner",
    "apply_oracle",
    "born_probabilities",
    "born_sample",
    "measure",
    "swap_test",
    "sample_swap_test",
    "trace_distance",
    "haar_sample",
    "type_state",
    "state_to_bytes",
    "state_from_bytes",
]

MAX_STATE_AMPLITUDES = 2**20
MAX_DENSITY_DIM = 2**10

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

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def allclose(self, other: "StateVector", atol: float = ATOL) -> bool:
        return self.num_qubits == other.num_qubits and bool(
            np.allclose(self.amplitudes, other.amplitudes, atol=atol, rtol=0.0)
        )


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive, trace-one operator on a dim-dimensional space."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim < 1 or self.dim > MAX_DENSITY_DIM:
            raise ValueError(f"density dimension must be in [1, {MAX_DENSITY_DIM}]")
        mat = _frozen_array(self.matrix, np.complex128)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix")
        if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-7:
            raise ValueError(f"trace is {tr}, not 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -EIG_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_pure(cls, state: StateVector) -> "DensityOperator":
        v = state.amplitudes
        return cls(state.dim, np.outer(v, v.conj()))


def basis_state(num_qubits: int, index: int) -> StateVector:
    """|index> in the computational basis."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _label_to_index(layout: Sequence[int], label: tuple[int, ...]) -> int:
    idx = 0
    for width, part in zip(layout, label):
        if not 0 <= part < (1 << width):
            raise ValueError(f"label value {part} does not fit in {width} bits")
        idx = (idx << width) | part
    return idx


def superpose(
    layout: Sequence[int],
    terms: Iterable[tuple[int | tuple[int, ...], complex]],
) -> StateVector:
    """Normalized state proportional to the given (basis-label, amplitude) terms.

    A label is a tuple with one integer per register (a bare int is accepted
    when the layout has a single register). Duplicate labels accumulate.
    """
    layout = tuple(int(w) for w in layout)
    n = sum(layout)
    amps = np.zeros(1 << n, dtype=np.complex128)
    count = 0
    for label, amp in terms:
        if isinstance(label, (int, np.integer)):
            label = (int(label),)
        if len(label) != len(layout):
            raise ValueError(f"label {label} does not match layout {layout}")
        amps[_label_to_index(layout, tuple(int(x) for x in label))] += amp
        count += 1
    if count == 0:
        raise ValueError("superpose needs at least one term")
    norm = np.linalg.norm(amps)
    if norm < PROB_FLOOR:
        raise ValueError("all-zero amplitudes")
    return StateVector(n, amps / norm)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states live on different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _gather_bits(indices: np.ndarray, num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Pack the listed qubits of each basis index into an integer, MSB first."""
    out = np.zeros_like(indices)
    for q in qubits:
        bit = (indices >> (num_qubits - 1 - q)) & 1
        out = (out << 1) | bit
    return out


def _scatter_bits(value: np.ndarray, num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Inverse of _gather_bits: place packed bits at the listed qubit positions."""
    out = np.zeros_like(value)
    k = len(qubits)
    for pos, q in enumerate(qubits):
        bit = (value >> (k - 1 - pos)) & 1
        out |= bit << (num_qubits - 1 - q)
    return out


def _check_qubits(num_qubits: int, qubits: Sequence[int], what: str) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{what} qubits contain duplicates")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise ValueError(f"{what} qubits out of range")


def apply_oracle(
    state: StateVector,
    input_qubits: Sequence[int],
    output_qubits: Sequence[int],
    f: Callable[[int], int],
) -> StateVector:
    """|x>|w> -> |x>|w xor f(x)>, with x read from input_qubits.

    f is evaluated once per input value; outputs are masked to the output
    register width. Input and output registers must not overlap.
    """
    _check_qubits(state.num_qubits, input_qubits, "input")
    _check_qubits(state.num_qubits, output_qubits, "output")
    if set(input_qubits) & set(output_qubits):
        raise ValueError("input and output registers overlap")
    k, m = len(input_qubits), len(output_qubits)
    table = np.array([int(f(x)) & ((1 << m) - 1) for x in range(1 << k)], dtype=np.int64)
    indices = np.arange(state.dim, dtype=np.int64)
    x = _gather_bits(indices, state.num_qubits, input_qubits)
    flip = _scatter_bits(table[x], state.num_qubits, output_qubits)
    new_amps = np.zeros_like(state.amplitudes)
    new_amps[indices ^ flip] = state.amplitudes
    return StateVector(state.num_qubits, new_amps)


def born_probabilities(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Outcome distribution for measuring the listed qubits, MSB first."""
    _check_qubits(state.num_qubits, qubits, "measured")
    indices = np.arange(state.dim, dtype=np.int64)
    outcomes = _gather_bits(indices, state.num_qubits, qubits)
    return np.bincount(outcomes, weights=state.probabilities(), minlength=1 << len(qubits))


def born_sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an outcome index from Born weights: weights below PROB_FLOOR are
    impossible, and the rest are renormalized before sampling."""
    probs = np.where(probs < PROB_FLOOR, 0.0, probs)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


def measure(
    state: StateVector, qubits: Sequence[int], rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Computational-basis measurement; returns (outcome, collapsed state)."""
    outcome = born_sample(born_probabilities(state, qubits), rng)
    indices = np.arange(state.dim, dtype=np.int64)
    keep = _gather_bits(indices, state.num_qubits, qubits) == outcome
    amps = np.where(keep, state.amplitudes, 0.0)
    amps = amps / np.linalg.norm(amps)
    return outcome, StateVector(state.num_qubits, amps)


def swap_test(a: StateVector, b: StateVector) -> float:
    """Exact accept probability of the swap test: (1 + |<a|b>|^2) / 2.

    The overlap is normalized by the states' own squared norms so that the
    identical-state case yields exactly 1.0 in floating point.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("states live on different qubit counts")
    num = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    den = np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real
    return 0.5 + 0.5 * (num / den)


def sample_swap_test(a: StateVector, b: StateVector, rng: np.random.Generator) -> int:
    """One sampled swap-test run; 1 means accept."""
    return int(rng.random() < swap_test(a, b))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    if a.dim != b.dim:
        raise ValueError("operators live on different dimensions")
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(eigs).sum())


def haar_sample(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dim = _dense_dim(num_qubits)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def type_state(xs: Sequence[int], num_qubits: int) -> StateVector:
    """Uniform superposition of the t! orderings of distinct n-bit strings.

    Lives on t*num_qubits qubits with amplitude 1/sqrt(t!) per ordering.
    """
    xs = [int(x) for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("type states here require distinct strings")
    if any(not 0 <= x < (1 << num_qubits) for x in xs):
        raise ValueError("string out of range for the qubit count")
    t = len(xs)
    amp = 1.0 / math.sqrt(math.factorial(t))
    terms = []
    for perm in itertools.permutations(xs):
        idx = 0
        for x in perm:
            idx = (idx << num_qubits) | x
        terms.append((idx, amp))
    return superpose([t * num_qubits], terms)


def state_to_bytes(state: StateVector) -> bytes:
    """Little-endian layout: u32 num_qubits, then (re, im) f64 pairs in basis order."""
    return struct.pack("<I", state.num_qubits) + state.amplitudes.astype("<c16").tobytes()


def state_from_bytes(data: bytes) -> StateVector:
    if len(data) < 4:
        raise ValueError("truncated state header")
    (num_qubits,) = struct.unpack_from("<I", data, 0)
    if num_qubits >= MAX_STATE_AMPLITUDES.bit_length():  # before the shift
        raise ValueError(f"state of {num_qubits} qubits exceeds the dense cap")
    dim = 1 << num_qubits
    if len(data) != 4 + 16 * dim:
        raise ValueError(f"expected {4 + 16 * dim} bytes for {num_qubits} qubits, got {len(data)}")
    return StateVector(num_qubits, np.frombuffer(data, dtype="<c16", offset=4))
