"""Label-indexed superpositions with small quantum payloads.

A HybridState is a superposition of branches |label> ⊗ |payload>, where the
label is a classical tuple (ints and bytes; signature registers too long to
hold as qubits live here) and the payload is a small dense state. Branches
with different labels are orthogonal by definition, so inner products reduce
to a sum over shared labels.

Branches are stored as unnormalized payload vectors; the branch amplitude is
the vector norm with a canonical phase (first significant component made real
positive) pulled out.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Sequence

import numpy as np

from .states import PROB_FLOOR, StateVector, _label_to_index, born_sample

__all__ = ["HybridState"]

_LabelPart = int | bytes | str
_Label = tuple[_LabelPart, ...]


def _check_label(label) -> _Label:
    if not isinstance(label, tuple):
        raise TypeError("branch labels must be tuples")
    for part in label:
        if not isinstance(part, (int, bytes, str)) or isinstance(part, bool):
            raise TypeError(f"label components must be int, bytes, or str, got {type(part)!r}")
    return label


def _label_sort_key(label: _Label):
    key = []
    for part in label:
        if isinstance(part, int):
            key.append((0, part, b""))
        elif isinstance(part, bytes):
            key.append((1, 0, part))
        else:
            key.append((2, 0, part.encode()))
    return tuple(key)


def _canonical_phase(vec: np.ndarray) -> complex:
    norm = np.linalg.norm(vec)
    for comp in vec:
        if abs(comp) > 1e-12 * norm:
            return comp / abs(comp)
    return 1.0 + 0.0j


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
        terms: Iterable[tuple[_Label, complex, StateVector | None]],
    ) -> "HybridState":
        """Accumulate (label, amplitude, payload) terms; payload None means the scalar unit."""
        pairs = []
        for label, amp, payload in terms:
            if payload is None:
                if payload_qubits != 0:
                    raise ValueError("scalar payload only valid when payload_qubits is 0")
                vec = np.array([1.0 + 0.0j])
            else:
                if payload.num_qubits != payload_qubits:
                    raise ValueError(
                        f"payload has {payload.num_qubits} qubits, expected {payload_qubits}"
                    )
                vec = payload.amplitudes
            pairs.append((label, complex(amp) * vec))
        return cls(payload_qubits, pairs)

    # -- inspection ---------------------------------------------------------

    def labels(self) -> list[_Label]:
        return sorted(self._branches, key=_label_sort_key)

    def num_branches(self) -> int:
        return len(self._branches)

    def branch_items(self) -> list[tuple[_Label, complex, StateVector | None]]:
        """(label, amplitude, unit payload) per branch, canonical phase convention."""
        out = []
        for label in self.labels():
            vec = self._branches[label]
            norm = float(np.linalg.norm(vec))
            phase = _canonical_phase(vec)
            amp = phase * norm
            payload = None
            if self.payload_qubits > 0:
                payload = StateVector(self.payload_qubits, vec / amp)
            out.append((label, complex(amp), payload))
        return out

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
        """Euclidean norm of the difference of the two states."""
        gap2 = self.norm() ** 2 + other.norm() ** 2 - 2.0 * self.inner(other).real
        return float(np.sqrt(max(gap2, 0.0)))

    def allclose(self, other: "HybridState", atol: float = 1e-9) -> bool:
        return self.payload_qubits == other.payload_qubits and self.distance(other) <= atol

    # -- evolution ----------------------------------------------------------

    def map_labels(self, fn: Callable[[_Label], _Label]) -> "HybridState":
        """Relabel branches; colliding images accumulate amplitudes."""
        return HybridState(
            self.payload_qubits, [(fn(label), vec) for label, vec in self._branches.items()]
        )

    def _collapse(self, kept: list[tuple[_Label, np.ndarray]]) -> "HybridState":
        """Post-measurement state: the kept branches, renormalized."""
        total = np.sqrt(sum(np.linalg.norm(v) ** 2 for _, v in kept))
        return HybridState(self.payload_qubits, [(l, v / total) for l, v in kept])

    def measure_labels(
        self, rng: np.random.Generator, positions: Sequence[int] | None = None
    ) -> tuple[_Label, "HybridState"]:
        """Measure label components (all by default); returns (observed, collapsed)."""
        def proj(label: _Label) -> _Label:
            if positions is None:
                return label
            return tuple(label[p] for p in positions)

        groups: dict[_Label, float] = {}
        for label, vec in self._branches.items():
            key = proj(label)
            groups[key] = groups.get(key, 0.0) + float(np.linalg.norm(vec) ** 2)
        keys = sorted(groups, key=_label_sort_key)
        observed = keys[born_sample(np.array([groups[k] for k in keys]), rng)]
        return observed, self._collapse(
            [(l, v) for l, v in self._branches.items() if proj(l) == observed]
        )

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

    # -- conversion ---------------------------------------------------------

    def densify(self, label_widths: Sequence[int]) -> StateVector:
        """Expand to a full StateVector; labels must be ints fitting the widths."""
        label_bits = sum(label_widths)
        n = label_bits + self.payload_qubits
        amps = np.zeros(1 << n, dtype=np.complex128)
        for label, vec in self._branches.items():
            if len(label) != len(label_widths):
                raise ValueError("label length does not match widths")
            for width, part in zip(label_widths, label):
                if not isinstance(part, int):
                    raise ValueError(f"label component {part!r} does not fit in {width} bits")
            base = _label_to_index(label_widths, label) << self.payload_qubits
            amps[base : base + (1 << self.payload_qubits)] = vec
        return StateVector(n, amps)

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization for bit-equality checks.

        Branches in sorted label order; each branch is the label encoding
        followed by the raw f64 (re, im) pairs of its unnormalized vector.
        """
        parts = [struct.pack("<II", self.payload_qubits, len(self._branches))]
        for label in self.labels():
            parts.append(struct.pack("<I", len(label)))
            for comp in label:
                if isinstance(comp, int):
                    parts.append(b"i" + struct.pack("<q", comp))
                elif isinstance(comp, bytes):
                    parts.append(b"b" + struct.pack("<I", len(comp)) + comp)
                else:
                    enc = comp.encode()
                    parts.append(b"s" + struct.pack("<I", len(enc)) + enc)
            for amp in self._branches[label]:
                parts.append(struct.pack("<dd", amp.real, amp.imag))
        return b"".join(parts)

    def __repr__(self):
        return (
            f"HybridState(payload_qubits={self.payload_qubits}, "
            f"branches={len(self._branches)}, norm={self.norm():.6f})"
        )
