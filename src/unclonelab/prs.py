"""Binary-phase pseudorandom states: |psi_k> = 2^{-n/2} sum_x (-1)^{f_k(x)} |x>.

The phase function is a one-output-bit puncturable PRF over n-bit inputs, or
(for the statistical variant) a k-wise independent polynomial function over
GF(2^n). Either way the state is classically determined by the key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import MAX_STATE_AMPLITUDES, StateVector
from .primitives import KwiseFunction, PprfKey, kwise_eval, kwise_gen, pprf_eval_many, pprf_gen

MAX_QUBITS = MAX_STATE_AMPLITUDES.bit_length() - 1


@dataclass(frozen=True)
class PrsKey:
    n: int
    phase_fn: PprfKey | KwiseFunction

    def phase_bits(self) -> list[int]:
        """f_k(x) for every x in the n-bit domain, in order."""
        domain = range(1 << self.n)
        if isinstance(self.phase_fn, PprfKey):
            return [out[0] >> 7 for out in pprf_eval_many(self.phase_fn, domain)]
        return [kwise_eval(self.phase_fn, x) for x in domain]


def prs_setup(n: int, rng: np.random.Generator) -> PrsKey:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}]")
    return PrsKey(n, pprf_gen(n, 1, rng))


def prs_setup_kwise(n: int, k: int, rng: np.random.Generator) -> PrsKey:
    """Statistical variant: phases from a 2k-wise independent function."""
    return PrsKey(n, kwise_gen(k, n, 1, rng))


def prs_amplitudes(key: PrsKey) -> np.ndarray:
    scale = 2.0 ** (-key.n / 2)
    signs = np.array([1 - 2 * bit for bit in key.phase_bits()])
    return signs * scale + 0j


def prs_state(key: PrsKey) -> StateVector:
    return StateVector(key.n, prs_amplitudes(key))
