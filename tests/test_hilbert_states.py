"""State construction, measurement, serialization, and Haar statistics."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import peak_traced_bytes, swap_test
from unclonelab.hilbert import measure
from unclonelab.hilbert.states import (
    StateVector,
    basis_state,
    born_sample,
    haar_sample,
    state_to_bytes,
)
from unclonelab.rng import make_rng

# Self-generated golden bytes for (|0>+|1>)/sqrt(2), frozen; layout is
# u32 num_qubits then (re, im) f64 pairs, all little-endian.
PLUS_GOLDEN_HEX = (
    "01000000cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f0000000000000000"
)


def plus_state():
    return StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))


# -- construction -------------------------------------------------------------


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])


# -- measure ------------------------------------------------------------------


def test_measure_deterministic_basis_state():
    rng = make_rng(0)
    for _ in range(20):
        outcome, post = measure(basis_state(1, 0), [0], rng)
        assert outcome == 0
        assert np.allclose(post.amplitudes, [1, 0])


def test_measure_plus_born_frequency():
    # Monte Carlo against the Born rule: 10^4 shots of |+>.
    rng = make_rng(101)
    zeros = sum(measure(plus_state(), [0], rng)[0] == 0 for _ in range(10_000))
    assert abs(zeros / 10_000 - 0.5) < 0.02


def test_measure_collapses_entangled_pair():
    s = StateVector(2, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
    rng = make_rng(5)
    outcome, post = measure(s, [0], rng)
    expect = 1 if outcome == 0 else 2  # |01> or |10>
    assert abs(abs(post.amplitudes[expect]) - 1.0) < 1e-9


def test_measure_repeat_reproduces_outcome():
    rng = make_rng(17)
    for _ in range(50):
        s = haar_sample(3, rng)
        outcome, post = measure(s, [1, 2], rng)
        again, post2 = measure(post, [1, 2], rng)
        assert again == outcome
        assert np.allclose(post2.amplitudes, post.amplitudes, atol=1e-9)


@pytest.mark.parametrize("qubits", [[0, 2], [1, 0], [2, 1], [0, 0], [-1, 0],
                                    [2, 3], [3], [0, 1, 2, 3]])
def test_measure_takes_an_ascending_run_within_the_state(qubits):
    with pytest.raises(ValueError, match="ascending run"):
        measure(haar_sample(3, make_rng(18)), qubits, make_rng(19))


def test_measure_of_the_empty_run_draws_once():
    s = haar_sample(3, make_rng(20))
    rng, ref = make_rng(21), make_rng(21)
    outcome, post = measure(s, [], rng)
    ref.random()
    assert outcome == 0
    assert np.allclose(post.amplitudes, s.amplitudes, atol=1e-12)
    assert rng.bytes(8) == ref.bytes(8)


# -- swap test ----------------------------------------------------------------


def test_swap_test_values():
    rng = make_rng(2)
    psi = haar_sample(2, rng)
    assert swap_test(psi, psi) == pytest.approx(1.0, abs=1e-12)
    assert swap_test(basis_state(1, 0), basis_state(1, 1)) == pytest.approx(0.5)
    assert swap_test(basis_state(1, 0), plus_state()) == pytest.approx(0.75)


def test_swap_test_identity_exact_on_random_states():
    rng = make_rng(3)
    for _ in range(100):
        psi = haar_sample(int(rng.integers(1, 5)), rng)
        assert swap_test(psi, psi) == 1.0


# -- haar sampling ------------------------------------------------------------


def test_haar_norms_and_first_moment():
    rng = make_rng(6)
    vals = []
    for _ in range(10_000):
        psi = haar_sample(1, rng)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9
        vals.append(abs(psi.amplitudes[0]) ** 2)
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_haar_second_moment_and_unitary_invariance():
    rng = make_rng(7)
    fixed = haar_sample(2, rng)
    # A fixed unitary: quarter rotation mixing all four levels.
    u = np.linalg.qr(make_rng(8).normal(size=(4, 4)) + 1j * make_rng(9).normal(size=(4, 4)))[0]
    raw, rotated = [], []
    for _ in range(10_000):
        psi = haar_sample(2, rng)
        raw.append(abs(np.vdot(fixed.amplitudes, psi.amplitudes)) ** 2)
        rotated.append(abs(np.vdot(fixed.amplitudes, u @ psi.amplitudes)) ** 2)
    assert abs(np.mean(raw) - 0.25) < 0.02
    assert abs(np.mean(rotated) - 0.25) < 0.02


# -- serialization ------------------------------------------------------------


def _struct_layout(state):
    # one (re, im) pair at a time, as the layout is documented
    return struct.pack("<I", state.num_qubits) + b"".join(
        struct.pack("<dd", amp.real, amp.imag) for amp in state.amplitudes)


@settings(max_examples=60)
@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_serialization_matches_struct_layout(n, seed):
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, 1 << n))
    # signed zeros in some real and imaginary parts; one entry stays nonzero
    re[1:][rng.random((1 << n) - 1) < 0.3] = -0.0
    im[rng.random(1 << n) < 0.3] = -0.0
    im[rng.random(1 << n) < 0.2] = 0.0
    amps = np.empty(1 << n, dtype=complex)
    amps.real, amps.imag = re, im
    psi = StateVector(n, amps / np.linalg.norm(amps))
    blob = state_to_bytes(psi)
    assert blob == _struct_layout(psi)


def test_serialization_keeps_signed_zeros():
    psi = StateVector(1, np.array([complex(-0.0, -0.0), complex(1.0, -0.0)]))
    blob = state_to_bytes(psi)
    assert blob == _struct_layout(psi)


def test_serialization_golden_plus():
    assert state_to_bytes(plus_state()).hex() == PLUS_GOLDEN_HEX


def _rejected(fn, *args):
    with pytest.raises(ValueError, match="dense cap"):
        fn(*args)


def test_haar_sample_checks_the_dense_cap_before_sampling():
    # a 22-qubit vector alone would take 64 MB
    _, peak = peak_traced_bytes(_rejected, haar_sample, 22, make_rng(0))
    assert peak < 1 << 20


class _RecordingGenerator:
    """Stands in for a generator: choice(k, p=...) records p, returns 0."""

    def __init__(self):
        self.p = None

    def choice(self, k, p):
        assert len(p) == k
        self.p = p
        return 0


def test_born_sample_weights_below_floor_are_exactly_zero():
    rng = _RecordingGenerator()
    weights = np.array([0.25, 1e-13, 0.75 - 1e-13])
    assert born_sample(weights, rng) == 0
    kept = 1.0 - 1e-13
    assert rng.p[1] == 0.0
    assert np.allclose(rng.p, [0.25 / kept, 0.0, (0.75 - 1e-13) / kept],
                       rtol=0, atol=1e-15)
