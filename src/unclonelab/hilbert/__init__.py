"""Desk-scale Hilbert-space toolkit: states, hybrid superpositions, measurements."""

from .hybrid import HybridState
from .states import measure as _measure_state_vector


def measure(state, regs, rng):
    """Born measurement: computational-basis qubits for a StateVector, label
    components for a HybridState (regs None measures the whole label)."""
    if isinstance(state, HybridState):
        return state.measure_labels(rng, positions=regs)
    return _measure_state_vector(state, regs, rng)
