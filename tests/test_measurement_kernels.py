"""The two structured measurements against their dense references, bit
for bit, since reports are compared as golden bytes: hadamard_all's
in-place butterflies against the moveaxis-and-stack transform, and the
decryptor test's diagonal mixture against mixture_povm over the dense
projectors."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unclonelab.hilbert.povm import mixture_povm
from unclonelab.hilbert.states import StateVector
from unclonelab.minischeme import hadamard_all
from unclonelab.sde_ue import games


def _moveaxis_hadamard(state):
    # H on every qubit, one axis at a time, MSB first
    a = state.amplitudes.copy()
    n = state.num_qubits
    a = a.reshape((2,) * n)
    for axis in range(n):
        a = np.moveaxis(a, axis, 0)
        a = np.stack([a[0] + a[1], a[0] - a[1]])
        a = np.moveaxis(a, 0, axis)
    return a.reshape(-1) * 2.0 ** (-n / 2)


@pytest.mark.parametrize("n", range(1, 13))
@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_hadamard_all_matches_moveaxis_transform(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    assert np.array_equal(hadamard_all(state).amplitudes,
                          _moveaxis_hadamard(state))
    assert np.array_equal(state.amplitudes, before)


@st.composite
def _indicator_families(draw):
    """1-20 challenges' 0/1 indicators over a decryptor register."""
    dim = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    row = st.lists(st.booleans(), min_size=dim, max_size=dim)
    return draw(st.lists(row, min_size=1, max_size=20))


@given(_indicator_families())
def test_challenge_povm_matches_dense_mixture(family):
    # challenge k encrypts to k, and decodes to True exactly where
    # family[k] holds; 3, 5, 7, ... challenges give non-dyadic weights
    def decoder(ct, z):
        return family[ct][z]

    challenges = ((k, True) for k in range(len(family)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "sde_enc", lambda sde, pk, m, rng: m)
        povm = games._challenge_povm(SimpleNamespace(pk=None), decoder,
                                     len(family[0]), challenges, None)
    weight = 1.0 / len(family)
    dense = mixture_povm([(weight, np.diag(np.array(row, dtype=float)))
                          for row in family])
    assert np.array_equal(povm.operator, dense.operator)
