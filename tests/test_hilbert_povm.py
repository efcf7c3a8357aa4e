"""Projective implementation, mixtures, and threshold measurement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    apply_op_to_register,
    mixture_povm,
    peak_traced_bytes,
    random_binary_povm,
    random_projector,
)

from unclonelab.hilbert import povm as povm_module
from unclonelab.hilbert.povm import (
    BinaryPovm,
    ProjImp,
    projective_implementation,
    threshold_measure,
    threshold_measure_register,
)
from unclonelab.hilbert.states import EIG_ATOL, StateVector, basis_state, haar_sample
from unclonelab.rng import make_rng


def plus_projector():
    v = np.array([2**-0.5, 2**-0.5])
    return np.outer(v, v)


# -- projective_implementation ------------------------------------------------


def assert_spectral_decomposition(pi, povm):
    """What ProjImp records without re-checking: float eigenvalues in [0, 1]
    that never increase, one read-only d x k block of eigenvector columns
    each, and blocks whose columns together form a unitary within EIG_ATOL:
    orthonormal and complete. Together they rebuild the POVM."""
    assert len(pi.eigenvalues) == len(pi.bases) > 0
    assert all(type(p) is float and 0.0 <= p <= 1.0 for p in pi.eigenvalues)
    assert all(a >= b for a, b in zip(pi.eigenvalues, pi.eigenvalues[1:]))
    dim = povm.operator.shape[0]
    for block in pi.bases:
        assert block.ndim == 2 and block.shape[0] == dim and block.shape[1] > 0
        assert not block.flags.writeable
    unitary = np.hstack(pi.bases)
    assert unitary.shape == (dim, dim)
    assert np.allclose(unitary.conj().T @ unitary, np.eye(dim), atol=EIG_ATOL,
                       rtol=0.0)
    assert np.allclose(unitary @ unitary.conj().T, np.eye(dim), atol=EIG_ATOL,
                       rtol=0.0)
    assert np.max(np.abs(pi.reconstruct() - povm.operator)) < 1e-8


def test_projimp_of_projector():
    proj = random_projector(4, 2, make_rng(1))
    pi = projective_implementation(BinaryPovm(proj))
    assert pi.eigenvalues == (1.0, 0.0)
    accept, reject = pi.bases
    assert accept.shape == reject.shape == (4, 2)
    assert np.allclose(accept @ accept.conj().T, proj, atol=1e-8)
    assert np.allclose(reject @ reject.conj().T, np.eye(4) - proj, atol=1e-8)


def test_projimp_of_half_identity():
    pi = projective_implementation(BinaryPovm(np.eye(2) / 2))
    assert pi.eigenvalues == (0.5,)
    (block,) = pi.bases
    assert np.allclose(block @ block.conj().T, np.eye(2))


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
            p * float(np.linalg.norm(block.conj().T @ psi.amplitudes) ** 2)
            for p, block in zip(pi.eigenvalues, pi.bases)
        )
        direct = float((psi.amplitudes.conj() @ povm.operator @ psi.amplitudes).real)
        assert abs(accept - direct) < 1e-9


def test_projimp_reconstruction_random_povms():
    rng = make_rng(3)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        povm = random_binary_povm(dim, rng)
        assert_spectral_decomposition(projective_implementation(povm), povm)


@pytest.mark.parametrize("dim,count", [(2, 1), (4, 3), (16, 7), (16, 16),
                                       (64, 5), (64, 64)])
def test_projimp_of_repeated_diagonals(dim, count):
    # built as games._challenge_povm builds its diagonal: count indicator
    # rows added one at a time with weight 1/count, so entries repeat up to
    # the rounding of their different summation orders
    rng = make_rng(dim * 100 + count)
    for _ in range(5):
        acc = np.zeros(dim, dtype=np.complex128)
        for _ in range(count):
            acc += (rng.random(dim) < rng.random()) / count
        povm = BinaryPovm(np.diag(acc))
        assert_spectral_decomposition(projective_implementation(povm), povm)


@pytest.mark.parametrize("diagonal", [
    # two clusters whose clipped means are less than EIG_ATOL / 2 apart
    [1 + 1e-8, 1 - 2.5e-9],
    [0.5] + [0.5 - 1e-8] * 50 + [0.5 - 1.0001e-8],
])
def test_projimp_of_near_tolerance_clusters(diagonal):
    povm = BinaryPovm(np.diag(diagonal))
    pi = projective_implementation(povm)
    assert len(pi.eigenvalues) == 2
    assert_spectral_decomposition(pi, povm)


def test_projimp_validation():
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
       diagonal=st.booleans(), register=st.booleans(),
       threshold=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_threshold_repeatable_over_mixture_povms(dim, weights, diagonal,
                                                 register, threshold, seed):
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
    if register or dim != 1 << qubits:
        # one register of dimension 2..8, 3, 5, 6 and 7 included
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = vec / np.linalg.norm(vec)

        def measure(state):
            return threshold_measure_register(povm, threshold, state, (dim,), 0,
                                              rng)
    else:
        state = haar_sample(qubits, rng)

        def measure(state):
            return threshold_measure(povm, threshold, state, rng)
    bit, post = measure(state)
    for _ in range(3):
        again, post = measure(post)
        assert again == bit


def test_threshold_dimension_mismatch():
    povm = BinaryPovm(np.eye(4) / 2)
    rng = make_rng(16)
    with pytest.raises(ValueError, match="dimensions differ"):
        threshold_measure(povm, 0.5, haar_sample(1, rng), rng)


# -- register-local measurement ----------------------------------------------


def test_apply_op_to_register_matches_kron():
    # the dense reference in tests/helpers.py that the register tests
    # are checked against
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
    # Register 0 of |psi> (x) |0>: the test of |0><0| on it follows psi's
    # Born weights.
    psi = StateVector(1, [0.6, 0.8])
    vec = np.kron(psi.amplitudes, np.array([1.0, 0.0], dtype=complex))
    povm = BinaryPovm(np.diag([1.0, 0.0]))
    hits = 0
    for _ in range(4000):
        bit, post = threshold_measure_register(povm, 0.5, vec, [2, 2], 0, rng)
        hits += bit
        assert abs(np.linalg.norm(post) - 1.0) < 1e-9
    assert abs(hits / 4000 - 0.36) < 0.03


def test_register_threshold_checks_its_input():
    povm = BinaryPovm(np.eye(2) / 2)
    with pytest.raises(ValueError, match="do not factor"):
        threshold_measure_register(povm, 0.5, np.ones(6) / 6**0.5, [2, 2], 0,
                                   make_rng(0))
    with pytest.raises(ValueError, match="not normalized"):
        threshold_measure_register(povm, 0.5, np.ones(4) / 4, [2, 2], 1,
                                   make_rng(0))


@pytest.mark.parametrize("povm_dim,dims,idx", [(1, (2, 4), 0), (2, (2, 4), 1),
                                               (4, (2, 4), 0), (3, (3, 1), 1)])
def test_register_threshold_checks_the_register_dimension(povm_dim, dims, idx):
    # on |0>, a 1-dim POVM on register 0 of (2, 4) once broadcast to a
    # 4-amplitude post-state of an 8-amplitude joint vector: every mismatch
    # is refused, naming both dimensions
    vec = np.zeros(int(np.prod(dims)))
    vec[0] = 1.0
    povm = BinaryPovm(np.eye(povm_dim) / 2)
    with pytest.raises(ValueError, match=f"differ: {povm_dim} != {dims[idx]}"):
        threshold_measure_register(povm, 0.5, vec, dims, idx, make_rng(0))


def _joint_state(dims, seed):
    amps = [1, 1j] @ make_rng(seed).normal(size=(2, int(np.prod(dims))))
    return amps / np.linalg.norm(amps)


def test_register_measurement_holds_one_branch():
    # register 1 of a (64, 64, 16) joint state under a 64-cluster diagonal:
    # O(1) vectors of the joint length and no d x d matrix per cluster
    dims = (64, 64, 16)
    vec = _joint_state(dims, 17)
    povm = BinaryPovm(np.diag(np.linspace(0.0, 1.0, 64)))
    (_, post), peak = peak_traced_bytes(threshold_measure_register, povm, 0.5,
                                        vec, dims, 1, make_rng(19))
    assert abs(np.linalg.norm(post) - 1.0) < 1e-9
    assert peak < 4 * vec.nbytes


class _CountingBlock(np.ndarray):
    """An eigenvector block that records the size of every matrix product
    it takes part in; its conjugate and transpose stay counting blocks."""

    sizes: list[int] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.matmul:
            _CountingBlock.sizes.append(out.size)
            return out
        return out.view(_CountingBlock)


def test_register_threshold_applies_one_projector(monkeypatch):
    # 64 clusters on register 1 of a (64, 64, 16) state: each cluster's
    # coefficients take one small product, together one joint vector's
    # worth, and only the sampled block maps back onto the joint vector
    dims = (64, 64, 16)
    vec = _joint_state(dims, 20)
    povm = BinaryPovm(np.diag(np.linspace(0.0, 1.0, 64)))
    plain = povm_module.projective_implementation

    def counting(povm):
        pi = plain(povm)
        return ProjImp(pi.eigenvalues,
                       tuple(b.view(_CountingBlock) for b in pi.bases))

    monkeypatch.setattr(povm_module, "projective_implementation", counting)
    monkeypatch.setattr(_CountingBlock, "sizes", [])
    _, post = threshold_measure_register(povm, 0.5, vec, dims, 1, make_rng(21))
    sizes = _CountingBlock.sizes
    assert len(sizes) == 65 and sizes.count(vec.size) == 1
    assert sum(sizes) == 2 * vec.size
    assert abs(np.linalg.norm(post) - 1.0) < 1e-9


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
