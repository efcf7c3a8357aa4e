"""Projective implementation, mixtures, and threshold measurement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_binary_povm, random_projector

from unclonelab.hilbert import (
    BinaryPovm,
    DensityOperator,
    ProjImp,
    apply_op_to_register,
    basis_state,
    haar_sample,
    measure_register_projective,
    mixture_povm,
    projective_implementation,
    superpose,
    threshold_measure,
    threshold_measure_register,
)
from unclonelab.rng import make_rng


def plus_projector():
    v = np.array([2**-0.5, 2**-0.5])
    return np.outer(v, v)


# -- projective_implementation ------------------------------------------------


def test_projimp_of_projector():
    proj = random_projector(4, 2, make_rng(1))
    pi = projective_implementation(BinaryPovm(proj))
    assert pi.eigenvalues == (1.0, 0.0)
    assert np.allclose(pi.projectors[0], proj, atol=1e-8)
    assert np.allclose(pi.projectors[1], np.eye(4) - proj, atol=1e-8)


def test_projimp_of_half_identity():
    pi = projective_implementation(BinaryPovm(np.eye(2) / 2))
    assert pi.eigenvalues == (0.5,)
    assert np.allclose(pi.projectors[0], np.eye(2))


def test_projimp_mixture_statistics_vs_trace_oracle():
    # Mixture (1/2)(|0><0| + |+><+|): ProjImp acceptance statistics must
    # reproduce Tr[P rho] on random states.
    povm = mixture_povm([(0.5, np.diag([1.0, 0.0])), (0.5, plus_projector())])
    pi = projective_implementation(povm)
    assert np.max(np.abs(pi.reconstruct() - povm.operator)) < 1e-8
    rng = make_rng(2)
    for _ in range(20):
        psi = haar_sample(1, rng)
        accept = sum(
            p * float(np.linalg.norm(proj @ psi.amplitudes) ** 2)
            for p, proj in zip(pi.eigenvalues, pi.projectors)
        )
        direct = float((psi.amplitudes.conj() @ povm.operator @ psi.amplitudes).real)
        assert abs(accept - direct) < 1e-9


def test_projimp_reconstruction_random_povms():
    rng = make_rng(3)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        povm = random_binary_povm(dim, rng)
        pi = projective_implementation(povm)
        assert np.max(np.abs(pi.reconstruct() - povm.operator)) < 1e-8


def test_projimp_validation():
    with pytest.raises(ValueError):
        ProjImp((0.5, 0.5), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    with pytest.raises(ValueError):
        # Not a resolution of identity.
        ProjImp((1.0, 0.0), (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    with pytest.raises(ValueError):
        BinaryPovm(np.diag([1.5, 0.0]))


# -- mixture_povm -------------------------------------------------------------


def test_mixture_single_projector():
    proj = random_projector(4, 1, make_rng(4))
    povm = mixture_povm([(1.0, proj)])
    assert np.allclose(povm.operator, proj)


def test_mixture_basis_halves():
    povm = mixture_povm([(0.5, np.diag([1.0, 0.0])), (0.5, np.diag([0.0, 1.0]))])
    assert np.allclose(povm.operator, np.eye(2) / 2)


def test_mixture_three_projectors_spectrum():
    # Eigensolver oracle: any projector mixture must have spectrum within [0, 1].
    rng = make_rng(5)
    dist = [
        (0.2, random_projector(4, 1, rng)),
        (0.5, random_projector(4, 2, rng)),
        (0.3, random_projector(4, 3, rng)),
    ]
    povm = mixture_povm(dist)
    eigs = np.linalg.eigvalsh(povm.operator)
    assert eigs.min() > -1e-9 and eigs.max() < 1 + 1e-9


def test_mixture_probability_validation():
    with pytest.raises(ValueError):
        mixture_povm([(0.7, np.eye(2))])
    with pytest.raises(ValueError):
        mixture_povm([(1.0, np.diag([1.0, 0.5]))])


# -- threshold_measure --------------------------------------------------------


def test_threshold_on_eigenvector():
    v = haar_sample(2, make_rng(6))
    proj = np.outer(v.amplitudes, v.amplitudes.conj())
    povm = BinaryPovm(0.9 * proj + 0.2 * (np.eye(4) - proj))
    rng = make_rng(7)
    for _ in range(20):
        bit, post = threshold_measure(povm, 0.5, v, rng)
        assert bit == 1
        assert np.allclose(post.amplitudes, v.amplitudes, atol=1e-9)


def test_threshold_half_identity_always_zero():
    povm = BinaryPovm(np.eye(2) / 2)
    rng = make_rng(8)
    for _ in range(20):
        bit, _ = threshold_measure(povm, 0.6, haar_sample(1, rng), rng)
        assert bit == 0


def test_threshold_repeatable_on_post_state():
    rng = make_rng(9)
    for _ in range(100):
        dim_qubits = int(rng.integers(1, 5))
        povm = random_binary_povm(1 << dim_qubits, rng)
        t = float(rng.uniform(0, 1))
        state = haar_sample(dim_qubits, rng)
        bit, post = threshold_measure(povm, t, state, rng)
        bit2, post2 = threshold_measure(povm, t, post, rng)
        assert bit2 == bit
        assert np.allclose(post2.amplitudes, post.amplitudes, atol=1e-9)


@given(dim=st.integers(2, 8), weights=st.lists(st.integers(1, 8), min_size=1,
                                               max_size=4),
       diagonal=st.booleans(), mixed=st.booleans(),
       threshold=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_threshold_repeatable_over_mixture_povms(dim, weights, diagonal, mixed,
                                                 threshold, seed):
    # diagonal components share eigenspaces, so eigenvalues repeat
    rng = make_rng(seed)
    dist = []
    for w in weights:
        rank = int(rng.integers(0, dim + 1))
        proj = (np.diag(rng.permutation(dim) < rank).astype(float) if diagonal
                else random_projector(dim, rank, rng))
        dist.append((w / sum(weights), proj))
    povm = mixture_povm(dist)
    qubits = dim.bit_length() - 1
    if mixed or dim != 1 << qubits:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        state = DensityOperator(dim, rho / np.trace(rho).real)
    else:
        state = haar_sample(qubits, rng)
    bit, post = threshold_measure(povm, threshold, state, rng)
    for _ in range(3):
        again, post = threshold_measure(povm, threshold, post, rng)
        assert again == bit


def test_threshold_on_density_operator():
    rng = make_rng(10)
    povm = random_binary_povm(4, rng)
    rho = DensityOperator(4, np.eye(4) / 4)
    bit, post = threshold_measure(povm, 0.5, rho, rng)
    assert bit in (0, 1)
    assert isinstance(post, DensityOperator)
    bit2, _ = threshold_measure(povm, 0.5, post, rng)
    assert bit2 == bit


def test_threshold_dimension_mismatch():
    povm = BinaryPovm(np.eye(4) / 2)
    rng = make_rng(16)
    for state in (haar_sample(1, rng), DensityOperator(2, np.eye(2) / 2)):
        with pytest.raises(ValueError, match="dimensions differ"):
            threshold_measure(povm, 0.5, state, rng)


# -- register-local measurement ----------------------------------------------


def test_apply_op_to_register_matches_kron():
    rng = make_rng(11)
    dims = [2, 3, 4]
    vec = rng.normal(size=24) + 1j * rng.normal(size=24)
    vec = vec / np.linalg.norm(vec)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    want = np.kron(np.kron(np.eye(2), op), np.eye(4)) @ vec
    got = apply_op_to_register(vec, op, dims, 1)
    assert np.allclose(got, want, atol=1e-12)


def test_register_projective_measure_born():
    rng = make_rng(12)
    # Register 0 of |psi> (x) |0>: measuring it follows psi's Born weights.
    psi = superpose([1], [(0, 0.6), (1, 0.8)])
    vec = np.kron(psi.amplitudes, np.array([1.0, 0.0], dtype=complex))
    projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    hits = 0
    for _ in range(4000):
        outcome, post = measure_register_projective(vec, [2, 2], 0, projs, rng)
        hits += outcome == 0
        assert abs(np.linalg.norm(post) - 1.0) < 1e-9
    assert abs(hits / 4000 - 0.36) < 0.03


def test_threshold_register_matches_plain_threshold():
    # Dual route: embed via kron or act register-locally; same seed, same result.
    rng_a = make_rng(13)
    rng_b = make_rng(13)
    povm = random_binary_povm(2, make_rng(14))
    psi = haar_sample(1, make_rng(15))
    other = basis_state(2, 1)
    joint = np.kron(psi.amplitudes, other.amplitudes)
    bit_a, post_a = threshold_measure_register(povm, 0.4, joint, [2, 4], 0, rng_a)
    bit_b, post_b = threshold_measure(povm, 0.4, psi, rng_b)
    assert bit_a == bit_b
    assert np.allclose(post_a, np.kron(post_b.amplitudes, other.amplitudes), atol=1e-9)
