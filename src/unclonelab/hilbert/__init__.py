"""Desk-scale Hilbert-space toolkit: states, hybrid superpositions, measurements."""

from .states import (
    ATOL,
    MAX_DENSITY_DIM,
    MAX_STATE_AMPLITUDES,
    PROB_FLOOR,
    DensityOperator,
    StateVector,
    apply_oracle,
    basis_state,
    born_probabilities,
    haar_sample,
    inner,
    sample_swap_test,
    state_from_bytes,
    state_to_bytes,
    superpose,
    swap_test,
    tensor,
    trace_distance,
    type_state,
)
from .states import measure as _measure_state_vector
from .hybrid import HybridState


def measure(state, regs, rng):
    """Born measurement: computational-basis qubits for a StateVector, label
    components for a HybridState (regs None measures the whole label)."""
    if isinstance(state, HybridState):
        return state.measure_labels(rng, positions=regs)
    return _measure_state_vector(state, regs, rng)
from .povm import (
    EIG_TOL,
    BinaryPovm,
    ProjImp,
    apply_op_to_register,
    measure_register_projective,
    mixture_povm,
    projective_implementation,
    threshold_measure,
    threshold_measure_register,
)

__all__ = [
    "ATOL",
    "EIG_TOL",
    "MAX_DENSITY_DIM",
    "MAX_STATE_AMPLITUDES",
    "PROB_FLOOR",
    "BinaryPovm",
    "DensityOperator",
    "HybridState",
    "ProjImp",
    "StateVector",
    "apply_op_to_register",
    "apply_oracle",
    "basis_state",
    "born_probabilities",
    "haar_sample",
    "inner",
    "measure",
    "measure_register_projective",
    "mixture_povm",
    "projective_implementation",
    "sample_swap_test",
    "state_from_bytes",
    "state_to_bytes",
    "superpose",
    "swap_test",
    "tensor",
    "threshold_measure",
    "threshold_measure_register",
    "trace_distance",
    "type_state",
]
