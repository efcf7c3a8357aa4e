"""Label-indexed superpositions with small quantum payloads.

A HybridState is a superposition of branches |label> ⊗ |payload>, where the
label is a classical tuple whose parts are ints or bytes, nothing else
(signature registers too long to hold as qubits live here), and the payload
is a small dense state. Branches with different labels are orthogonal by
definition, so inner products reduce to a sum over shared labels.

Branches are stored as unnormalized payload vectors.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .states import PROB_FLOOR, StateVector, born_sample

__all__ = ["HybridState"]

_LabelPart = int | bytes
_Label = tuple[_LabelPart, ...]


def _check_label(label) -> _Label:
    if not isinstance(label, tuple):
        raise TypeError("branch labels must be tuples")
    for part in label:
        if not isinstance(part, (int, bytes)) or isinstance(part, bool):
            raise TypeError(f"label components must be int or bytes, got {type(part)!r}")
    return label


def _label_sort_key(label: _Label):
    # ints sort before bytes, each in its own order
    return tuple((0, part, b"") if isinstance(part, int) else (1, 0, part)
                 for part in label)


class HybridState:
    """Immutable superposition over (classical label, small payload) branches."""

    __slots__ = ("payload_qubits", "_branches")

    def __init__(self, payload_qubits: int, branches: Iterable[tuple[_Label, np.ndarray]]):
        """Sum (label, unnormalized payload vector) pairs per label, in input
        order; branches below PROB_FLOOR are dropped and the total must have
        unit norm."""
        if payload_qubits < 0:
            raise ValueError("payload_qubits must be non-negative")
        dim = 1 << payload_qubits
        acc: dict[_Label, np.ndarray] = {}
        for label, vec in branches:
            label = _check_label(label)
            if label not in acc:
                acc[label] = np.zeros(dim, dtype=np.complex128)
            acc[label] += np.asarray(vec, dtype=np.complex128).reshape(dim)
        clean: dict[_Label, np.ndarray] = {}
        for label, vec in acc.items():
            if not np.linalg.norm(vec) < PROB_FLOOR:  # keeps NaN for the check below
                vec.setflags(write=False)
                clean[label] = vec
        object.__setattr__(self, "payload_qubits", payload_qubits)
        object.__setattr__(self, "_branches", clean)
        norm = self.norm()
        if not abs(norm - 1.0) <= 1e-7:  # also rejects NaN and inf
            raise ValueError(f"hybrid state not normalized: norm = {norm}")

    def __setattr__(self, name, value):
        raise AttributeError("HybridState is immutable")

    @classmethod
    def from_terms(
        cls,
        payload_qubits: int,
        terms: Iterable[tuple[_Label, complex, StateVector]],
    ) -> "HybridState":
        """Accumulate (label, amplitude, payload) terms; a scalar branch
        (payload_qubits 0) takes basis_state(0, 0) as its payload."""
        pairs = []
        for label, amp, payload in terms:
            if payload.num_qubits != payload_qubits:
                raise ValueError(
                    f"payload has {payload.num_qubits} qubits, expected {payload_qubits}"
                )
            pairs.append((label, complex(amp) * payload.amplitudes))
        return cls(payload_qubits, pairs)

    # -- inspection ---------------------------------------------------------

    def labels(self) -> list[_Label]:
        return sorted(self._branches, key=_label_sort_key)

    def branch_vector(self, label: _Label) -> np.ndarray:
        """Unnormalized payload vector of one branch."""
        return self._branches[label]

    def norm(self) -> float:
        return float(
            np.sqrt(sum(np.linalg.norm(v) ** 2 for v in self._branches.values()))
        ) if self._branches else 0.0

    def inner(self, other: "HybridState") -> complex:
        if self.payload_qubits != other.payload_qubits:
            raise ValueError("payload sizes differ")
        total = 0.0 + 0.0j
        for label, vec in self._branches.items():
            ov = other._branches.get(label)
            if ov is not None:
                total += np.vdot(vec, ov)
        return complex(total)

    def distance(self, other: "HybridState") -> float:
        """Euclidean norm of the difference of the two states, summed over
        the literal branch differences, so a state is at distance exactly 0
        from itself."""
        if self.payload_qubits != other.payload_qubits:
            raise ValueError("payload sizes differ")
        zero = np.zeros(1 << self.payload_qubits, dtype=np.complex128)
        gap2 = sum(np.linalg.norm(self._branches.get(label, zero)
                                  - other._branches.get(label, zero)) ** 2
                   for label in self._branches | other._branches)
        return float(np.sqrt(gap2))

    def allclose(self, other: "HybridState", atol: float = 1e-9) -> bool:
        return self.payload_qubits == other.payload_qubits and self.distance(other) <= atol

    # -- evolution ----------------------------------------------------------

    def _collapse(self, kept: list[tuple[_Label, np.ndarray]]) -> "HybridState":
        """Post-measurement state: the kept branches, renormalized."""
        total = np.sqrt(sum(np.linalg.norm(v) ** 2 for _, v in kept))
        return HybridState(self.payload_qubits, [(l, v / total) for l, v in kept])

    def measure_labels(self, rng: np.random.Generator) -> tuple[_Label, "HybridState"]:
        """Measure the whole label; returns (observed, collapsed)."""
        keys = self.labels()
        weights = [float(np.linalg.norm(self._branches[k]) ** 2) for k in keys]
        observed = keys[born_sample(np.array(weights), rng)]
        return observed, self._collapse([(observed, self._branches[observed])])

    def measure_payload(self, rng: np.random.Generator) -> tuple[int, "HybridState"]:
        """Measure the whole payload register in the computational basis."""
        if self.payload_qubits == 0:
            raise ValueError("no payload register to measure")
        dim = 1 << self.payload_qubits
        probs = np.zeros(dim)
        for vec in self._branches.values():
            probs += np.abs(vec) ** 2
        outcome = born_sample(probs, rng)
        kept = []
        for label, vec in self._branches.items():
            new = np.zeros(dim, dtype=np.complex128)
            new[outcome] = vec[outcome]
            kept.append((label, new))
        return outcome, self._collapse(kept)
