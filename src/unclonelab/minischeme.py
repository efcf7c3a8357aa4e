"""Toy subspace quantum money: banknote = uniform superposition over a
random half-dimension GF(2) subspace, serial number = the subspace basis in
the clear.

The serial number hides nothing: verification and the naive counterfeiting
attacks below are measurable, but no unforgeability against arbitrary
adversaries is claimed (they can read the subspace straight off the sn).

Verification projects onto the subspace, Hadamards every qubit, projects
onto the dual subspace, and Hadamards back. The composed accept operator
equals |A><A| exactly, so the honest note is the unique invariant state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert.states import StateVector, basis_state, measure

MAX_AMBIENT_BITS = 12


@dataclass(frozen=True)
class Subspace:
    n: int
    basis: tuple[int, ...]       # echelon rows [I | R], MSB-first bit order
    dual_basis: tuple[int, ...]  # rows [R^T | I]

    def elements(self) -> list[int]:
        return _span(self.basis)

    def dual_elements(self) -> list[int]:
        return _span(self.dual_basis)


def _span(rows: tuple[int, ...]) -> list[int]:
    """Every GF(2) combination of rows, as bitmasks."""
    els = [0]
    for row in rows:
        els += [e ^ row for e in els]
    return els


@dataclass(frozen=True)
class MiniBanknote:
    sn: bytes
    note: StateVector


def randomness_len(n: int) -> int:
    """Randomness bytes that subspace_from_randomness reads for an n-qubit note;
    n is checked first, so no caller draws randomness for a note it cannot mint."""
    if n % 2 or not 2 <= n <= MAX_AMBIENT_BITS:
        raise ValueError(f"n must be even and in [2, {MAX_AMBIENT_BITS}]")
    half = n // 2
    return (half * half + 7) // 8


def sn_len(n: int) -> int:
    """Serial-number bytes of an n-qubit note: n, then half rows of n bits."""
    return 1 + (n // 2) * ((n + 7) // 8)


def subspace_from_randomness(n: int, randomness: bytes) -> Subspace:
    need = randomness_len(n)
    half = n // 2
    if len(randomness) < need:
        raise ValueError(f"need at least {need} randomness bytes")
    # the first half * half bits, MSB-first, are R's rows in order
    bits = int.from_bytes(randomness[:need], "big") >> (8 * need - half * half)
    mask = (1 << half) - 1
    return _subspace(n, [(bits >> (half * (half - 1 - i))) & mask for i in range(half)])


def _subspace(n: int, r_rows: list[int]) -> Subspace:
    """The subspace with echelon rows [I | R], R given as half-bit rows."""
    half = n // 2
    basis = tuple((1 << (n - 1 - i)) | r_rows[i] for i in range(half))
    # dual rows: column j of R in the high half, identity in the low half
    dual = tuple(
        sum(((r_rows[i] >> (half - 1 - j)) & 1) << (n - 1 - i) for i in range(half))
        | (1 << (half - 1 - j))
        for j in range(half)
    )
    return Subspace(n, basis, dual)


def sn_bytes(space: Subspace) -> bytes:
    width = (space.n + 7) // 8
    return bytes([space.n]) + b"".join(row.to_bytes(width, "big") for row in space.basis)


def subspace_from_sn(blob: bytes) -> Subspace:
    if not blob:
        raise ValueError("empty serial number")
    n = blob[0]
    if n % 2 or not 2 <= n <= MAX_AMBIENT_BITS:
        raise ValueError("serial number has invalid ambient size")
    half = n // 2
    width = (n + 7) // 8
    if len(blob) != sn_len(n):
        raise ValueError("serial number has wrong length")
    rows = [
        int.from_bytes(blob[1 + i * width : 1 + (i + 1) * width], "big")
        for i in range(half)
    ]
    mask = (1 << half) - 1
    for i, row in enumerate(rows):
        if row >> half != 1 << (half - 1 - i):
            raise ValueError("serial number rows are not in echelon form")
    return _subspace(n, [row & mask for row in rows])


def note_state(space: Subspace) -> StateVector:
    amps = np.zeros(1 << space.n, dtype=complex)
    amps[space.elements()] = 2.0 ** (-space.n / 4)
    return StateVector(space.n, amps)


def mini_gen(n: int, randomness: bytes) -> MiniBanknote:
    space = subspace_from_randomness(n, randomness)
    return MiniBanknote(sn_bytes(space), note_state(space))


def _hadamard(a: np.ndarray, n: int) -> np.ndarray:
    """H on every qubit of the amplitudes a, as a new array."""
    a = a.copy()
    for axis in range(n):
        v = a.reshape(1 << axis, 2, -1)  # v[:, b]: qubit axis (MSB first) is b
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
    return a * 2.0 ** (-n / 2)


def hadamard_all(state: StateVector) -> StateVector:
    return StateVector(state.num_qubits, _hadamard(state.amplitudes, state.num_qubits))


def _project_measure(amps: np.ndarray, support: list[int], rng: np.random.Generator):
    keep = np.zeros(len(amps), dtype=bool)
    keep[support] = True
    p = float(np.sum(np.abs(amps[keep]) ** 2))
    accept = rng.random() < p
    post = amps.copy()
    if accept:
        post[~keep] = 0
        post /= np.sqrt(p)
    else:
        post[keep] = 0
        post /= np.sqrt(max(1 - p, 1e-300))
    return accept, post


def mini_verify(sn: bytes, note: StateVector,
                rng: np.random.Generator) -> tuple[int, StateVector]:
    space = subspace_from_sn(sn)
    n = space.n
    if note.num_qubits != n:
        raise ValueError("note dimension does not match serial number")
    ok1, post = _project_measure(note.amplitudes, space.elements(), rng)
    if not ok1:
        return 0, StateVector(n, post)
    ok2, post = _project_measure(_hadamard(post, n), space.dual_elements(), rng)
    return int(ok2), StateVector(n, _hadamard(post, n))


def accept_probability(sn: bytes, note: StateVector) -> float:
    """P[the verification chain accepts] = |<A|note>|^2."""
    space = subspace_from_sn(sn)
    return float(abs(np.vdot(note_state(space).amplitudes, note.amplitudes)) ** 2)


def mini_counterfeit(strategy: str, note: StateVector,
                     rng: np.random.Generator) -> tuple[StateVector, StateVector]:
    n = note.num_qubits
    if strategy == "zero-pad":
        return note, basis_state(n, 0)
    if strategy == "measure-clone":
        outcome, _ = measure(note, range(n), rng)
        clone = basis_state(n, outcome)
        return clone, clone
    if strategy == "hadamard-clone":
        outcome, _ = measure(hadamard_all(note), range(n), rng)
        clone = hadamard_all(basis_state(n, outcome))
        return clone, clone
    raise ValueError(f"unknown counterfeit strategy: {strategy}")
