"""The structured measurements against their dense references, bit for
bit, since reports are compared as golden bytes: hadamard_all's in-place
butterflies against the moveaxis-and-stack transform, mini_verify on bare
amplitudes against a chain of four StateVectors, the decryptor test's
diagonal mixture against mixture_povm over the dense projectors, the
decryptor register's basis measurement against dense diagonal projectors,
the register threshold test against one joint-vector pass per eigenspace
projector, and states.measure against a per-qubit bit gather."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    measure_bits_dense,
    measure_register_basis_dense,
    mixture_povm,
    peak_traced_bytes,
    random_binary_povm,
    threshold_measure_register_dense,
)
from unclonelab import minischeme as ms
from unclonelab.hilbert.povm import BinaryPovm, threshold_measure_register
from unclonelab.hilbert.states import StateVector, basis_state, haar_sample, measure
from unclonelab.minischeme import hadamard_all
from unclonelab.rng import make_rng
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


def _mask_project(amps, keep, rng):
    p = float(np.sum(np.abs(amps[keep]) ** 2))
    accept = rng.random() < p
    post = amps.copy()
    if accept:
        post[~keep] = 0
        post /= np.sqrt(p)
    else:
        post[keep] = 0
        post /= np.sqrt(max(1 - p, 1e-300))
    return accept, post


def _four_state_verify(sn, note, rng):
    # project on A, H, project on the dual, H, with a StateVector between
    # every two steps
    space = ms.subspace_from_sn(sn)
    n = space.n
    in_a = np.zeros(1 << n, dtype=bool)
    in_a[space.elements()] = True
    ok1, post = _mask_project(note.amplitudes, in_a, rng)
    if not ok1:
        return 0, StateVector(n, post)
    rotated = StateVector(n, _moveaxis_hadamard(StateVector(n, post)))
    in_dual = np.zeros(1 << n, dtype=bool)
    in_dual[space.dual_elements()] = True
    ok2, post = _mask_project(rotated.amplitudes, in_dual, rng)
    return int(ok2), StateVector(n, _moveaxis_hadamard(StateVector(n, post)))


@settings(max_examples=60)
@given(n=st.sampled_from([2, 4, 6, 8]), seed=st.integers(0, 2**32 - 1),
       start=st.sampled_from(["random", "note", "basis"]))
def test_mini_verify_matches_four_state_chain(n, seed, start):
    draw = np.random.default_rng(seed)
    bn = ms.mini_gen(n, draw.bytes(ms.randomness_len(n)))
    if start == "note":
        state = bn.note
    elif start == "basis":
        state = basis_state(n, int(draw.integers(1 << n)))
    else:
        # tilted toward the note by a random weight, so both projections
        # accept with a spread of probabilities
        noise = draw.normal(size=1 << n) + 1j * draw.normal(size=1 << n)
        amps = draw.uniform(0, 3) * bn.note.amplitudes + noise / np.linalg.norm(noise)
        state = StateVector(n, amps / np.linalg.norm(amps))
    ours, ref = make_rng(seed), make_rng(seed)
    got = want = state
    for _ in range(3):
        bit, got = ms.mini_verify(bn.sn, got, ours)
        ref_bit, want = _four_state_verify(bn.sn, want, ref)
        assert bit == ref_bit
        assert np.array_equal(got.amplitudes, want.amplitudes)
        assert ours.bytes(8) == ref.bytes(8)


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
                                     len(family[0]), challenges, None,
                                     len(family))
    weight = 1.0 / len(family)
    dense = mixture_povm([(weight, np.diag(np.array(row, dtype=float)))
                          for row in family])
    assert np.array_equal(povm.operator, dense.operator)


_REGISTER_DIMS = [(2, 2, 2), (4, 8), (16, 4, 2), (64, 16), (2, 2, 2, 2), (1, 4),
                  (8, 1, 2), (1, 1)]


@pytest.mark.parametrize("dims", _REGISTER_DIMS)
@pytest.mark.parametrize("seed", range(4))
def test_register_basis_measurement_matches_dense_projectors(dims, seed):
    # every register, trivial 1-dim ones included (games._reply builds
    # them by default): the outcome, the post-state bytes and the rng
    # position all equal the dense reference's
    amps = [1, 1j] @ make_rng(seed).normal(size=(2, int(np.prod(dims))))
    vec = amps / np.linalg.norm(amps)
    for idx in range(len(dims)):
        ours, ref = make_rng(100 + seed), make_rng(100 + seed)
        z, post = games._measure_register_basis(vec, dims, idx, ours)
        z_ref, post_ref = measure_register_basis_dense(vec, dims, idx, ref)
        assert z == z_ref
        assert post.tobytes() == post_ref.tobytes()
        assert ours.bytes(8) == ref.bytes(8)


def test_register_basis_measurement_memory():
    # register 1 of a (64, 64, 4) joint state: O(1) vectors of the joint
    # length, not one dense 64 x 64 projector per outcome (10x at the
    # dense reference)
    dims = (64, 64, 4)
    amps = [1, 1j] @ make_rng(18).normal(size=(2, 64 * 64 * 4))
    vec = amps / np.linalg.norm(amps)
    (_, post), peak = peak_traced_bytes(games._measure_register_basis, vec,
                                        dims, 1, make_rng(19))
    assert abs(np.linalg.norm(post) - 1.0) < 1e-9
    assert peak < 4 * vec.nbytes


def _repeated_diagonal(dim, rng):
    # 1-6 indicator rows summed with weight 1/count, as
    # games._challenge_povm sums them: values repeat
    count = int(rng.integers(1, 7))
    acc = np.zeros(dim, dtype=np.complex128)
    for _ in range(count):
        acc += (rng.random(dim) < rng.random()) / count
    return BinaryPovm(np.diag(acc))


@pytest.mark.parametrize("dims", _REGISTER_DIMS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("diagonal", [True, False])
def test_register_threshold_matches_dense_projectors(dims, seed, diagonal):
    # every register: the bit and the rng position equal the reference's,
    # which weighs each eigenspace by a pass over the joint vector; the
    # post-state bytes are equal for diagonal operators (every game) and
    # within 1e-12 for dense complex ones
    amps = [1, 1j] @ make_rng(seed).normal(size=(2, int(np.prod(dims))))
    vec = amps / np.linalg.norm(amps)
    draw = make_rng(200 + seed)
    for idx in range(len(dims)):
        povm = (_repeated_diagonal(dims[idx], draw) if diagonal
                else random_binary_povm(dims[idx], draw))
        threshold = float(draw.random())
        ours, ref = make_rng(300 + seed), make_rng(300 + seed)
        bit, post = threshold_measure_register(povm, threshold, vec, dims, idx,
                                               ours)
        bit_ref, post_ref = threshold_measure_register_dense(
            povm, threshold, vec, dims, idx, ref)
        assert bit == bit_ref
        assert ours.bytes(8) == ref.bytes(8)
        if diagonal:
            assert post.tobytes() == post_ref.tobytes()
        else:
            assert np.max(np.abs(post - post_ref)) <= 1e-12


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("seed", range(3))
def test_measure_matches_bit_gather(n, seed):
    # every contiguous run, the empty one included: the outcome, the
    # post-state bytes and the rng position equal the reference's
    state = haar_sample(n, make_rng(seed))
    for start in range(n + 1):
        for stop in range(start, n + 1):
            ours, ref = make_rng(400 + seed), make_rng(400 + seed)
            outcome, post = measure(state, range(start, stop), ours)
            outcome_ref, post_ref = measure_bits_dense(
                state, range(start, stop), ref)
            assert outcome == outcome_ref
            assert post.amplitudes.tobytes() == post_ref.amplitudes.tobytes()
            assert ours.bytes(8) == ref.bytes(8)
