"""State construction, oracles, measurement, and Haar statistics."""

import struct

import numpy as np
import pytest

from helpers import peak_traced_bytes
from unclonelab.hilbert import (
    DensityOperator,
    StateVector,
    apply_oracle,
    basis_state,
    born_probabilities,
    haar_sample,
    inner,
    measure,
    state_from_bytes,
    state_to_bytes,
    superpose,
    swap_test,
    sample_swap_test,
    tensor,
    trace_distance,
    type_state,
)
from unclonelab.rng import make_rng

# Self-generated golden bytes for (|0>+|1>)/sqrt(2), frozen; layout is
# u32 num_qubits then (re, im) f64 pairs, all little-endian.
PLUS_GOLDEN_HEX = (
    "01000000cc3b7f669ea0e63f0000000000000000cc3b7f669ea0e63f0000000000000000"
)


def plus_state():
    return superpose([1], [(0, 1), (1, 1)])


# -- superpose ----------------------------------------------------------------


def test_superpose_basis():
    s = superpose([1], [(0, 1)])
    assert np.allclose(s.amplitudes, [1, 0])


def test_superpose_plus():
    s = plus_state()
    assert np.allclose(s.amplitudes, [2**-0.5, 2**-0.5])


def test_superpose_antisymmetric_pair():
    s = superpose([1, 1], [((0, 1), 1), ((1, 0), -1)])
    assert np.allclose(s.amplitudes, [0, 2**-0.5, -(2**-0.5), 0])


def test_superpose_accumulates_duplicate_labels():
    s = superpose([1], [(0, 1), (0, 1), (1, 2)])
    assert np.allclose(s.amplitudes, [2 / np.sqrt(8), 2 / np.sqrt(8)])


def test_superpose_rejects_zero_and_out_of_range():
    with pytest.raises(ValueError):
        superpose([1], [(0, 1), (0, -1)])
    with pytest.raises(ValueError):
        superpose([1], [(2, 1)])
    with pytest.raises(ValueError):
        superpose([1], [])


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])


# -- apply_oracle -------------------------------------------------------------


def test_oracle_identity_is_cnot():
    s = tensor(plus_state(), basis_state(1, 0))
    out = apply_oracle(s, [0], [1], lambda x: x)
    assert np.allclose(out.amplitudes, [2**-0.5, 0, 0, 2**-0.5])


def test_oracle_constant_zero_is_identity():
    rng = make_rng(11)
    s = haar_sample(3, rng)
    out = apply_oracle(s, [0, 1], [2], lambda x: 0)
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_oracle_parity():
    # (|00> + |11>)|0> / sqrt(2): parity of both branches is 0, state unchanged.
    s = superpose([1, 1, 1], [((0, 0, 0), 1), ((1, 1, 0), 1)])
    out = apply_oracle(s, [0, 1], [2], lambda x: (x ^ (x >> 1)) & 1)
    assert np.allclose(out.amplitudes, s.amplitudes)
    # ... and of |01> it is 1.
    s2 = superpose([1, 1, 1], [((0, 1, 0), 1)])
    out2 = apply_oracle(s2, [0, 1], [2], lambda x: (x ^ (x >> 1)) & 1)
    assert np.allclose(out2.amplitudes, superpose([1, 1, 1], [((0, 1, 1), 1)]).amplitudes)


def test_oracle_rejects_overlapping_registers():
    s = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_oracle(s, [0], [0], lambda x: x)


def test_norm_preserved_random_oracles():
    rng = make_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        s = haar_sample(n, rng)
        k = int(rng.integers(1, n))
        table = rng.integers(0, 1 << (n - k), size=1 << k)
        out = apply_oracle(s, list(range(k)), list(range(k, n)), lambda x: int(table[x]))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


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
    s = superpose([1, 1], [((0, 1), 1), ((1, 0), -1)])
    rng = make_rng(5)
    outcome, post = measure(s, [0], rng)
    expect = 1 if outcome == 0 else 2  # |01> or |10>
    assert abs(abs(post.amplitudes[expect]) - 1.0) < 1e-9


def test_measure_repeat_reproduces_outcome():
    rng = make_rng(17)
    for _ in range(50):
        s = haar_sample(3, rng)
        outcome, post = measure(s, [0, 2], rng)
        again, post2 = measure(post, [0, 2], rng)
        assert again == outcome
        assert np.allclose(post2.amplitudes, post.amplitudes, atol=1e-9)


def test_born_probabilities_sum():
    rng = make_rng(23)
    s = haar_sample(4, rng)
    p = born_probabilities(s, [1, 3])
    assert abs(p.sum() - 1.0) < 1e-9


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


def test_swap_test_sampled_frequency():
    rng = make_rng(4)
    a, b = basis_state(1, 0), plus_state()
    hits = sum(sample_swap_test(a, b, rng) for _ in range(10_000))
    assert abs(hits / 10_000 - 0.75) < 0.02


# -- trace distance -----------------------------------------------------------


def test_trace_distance_values():
    rho0 = DensityOperator.from_pure(basis_state(1, 0))
    rho1 = DensityOperator.from_pure(basis_state(1, 1))
    rhop = DensityOperator.from_pure(plus_state())
    assert trace_distance(rho0, rho0) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(rho0, rho1) == pytest.approx(1.0, abs=1e-9)
    assert trace_distance(rho0, rhop) == pytest.approx(2**-0.5, abs=1e-9)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(2, np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        DensityOperator(2, np.array([[2.0, 0.0], [0.0, -1.0]]))


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
        raw.append(abs(inner(fixed, psi)) ** 2)
        rotated.append(abs(np.vdot(fixed.amplitudes, u @ psi.amplitudes)) ** 2)
    assert abs(np.mean(raw) - 0.25) < 0.02
    assert abs(np.mean(rotated) - 0.25) < 0.02


# -- type states --------------------------------------------------------------


def test_type_state_single():
    assert np.allclose(type_state([5], 3).amplitudes, basis_state(3, 5).amplitudes)


def test_type_state_pair():
    s = type_state([0, 1], 1)
    assert np.allclose(s.amplitudes, [0, 2**-0.5, 2**-0.5, 0])


def test_type_state_permutation_invariance():
    xs = [1, 4, 6]
    n = 3
    s = type_state(xs, n)
    # Swap the first two n-qubit registers by index arithmetic.
    dim = 1 << (3 * n)
    perm = np.zeros(dim, dtype=int)
    for i in range(dim):
        a, b, c = (i >> (2 * n)) & 7, (i >> n) & 7, i & 7
        perm[(b << (2 * n)) | (a << n) | c] = i
    assert np.max(np.abs(s.amplitudes[perm] - s.amplitudes)) < 1e-12
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_type_state_rejects_duplicates():
    with pytest.raises(ValueError):
        type_state([3, 3], 2)


# -- serialization ------------------------------------------------------------


def test_serialization_round_trip_bit_exact():
    rng = make_rng(10)
    for _ in range(20):
        psi = haar_sample(int(rng.integers(1, 6)), rng)
        back = state_from_bytes(state_to_bytes(psi))
        assert back.num_qubits == psi.num_qubits
        assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_serialization_golden_plus():
    assert state_to_bytes(plus_state()).hex() == PLUS_GOLDEN_HEX
    assert state_from_bytes(bytes.fromhex(PLUS_GOLDEN_HEX)).allclose(plus_state())


def test_serialization_rejects_bad_length():
    with pytest.raises(ValueError):
        state_from_bytes(bytes.fromhex(PLUS_GOLDEN_HEX)[:-1])


def test_serialization_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf, -np.inf):
        for pair in ((bad, 0.0), (1.0, bad)):
            blob = struct.pack("<Idddd", 1, *pair, 0.0, 0.0)
            with pytest.raises(ValueError):
                state_from_bytes(blob)


def test_serialization_rejects_headers_past_the_dense_cap():
    for num_qubits in (21, 1000):
        with pytest.raises(ValueError):
            state_from_bytes(struct.pack("<I", num_qubits) + bytes(32))


def _rejected(fn, *args):
    with pytest.raises(ValueError, match="dense cap"):
        fn(*args)


def test_haar_sample_checks_the_dense_cap_before_sampling():
    # a 22-qubit vector alone would take 64 MB
    _, peak = peak_traced_bytes(_rejected, haar_sample, 22, make_rng(0))
    assert peak < 1 << 20
