"""HybridState: merged branches, inner products, and measurement."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import branch_items, canonical_bytes, map_labels
from unclonelab.hilbert.hybrid import HybridState
from unclonelab.hilbert.states import StateVector, basis_state, haar_sample
from unclonelab.rng import make_rng

SCALAR = basis_state(0, 0)  # the unit payload of a label-only branch


def two_branch():
    return HybridState.from_terms(
        1,
        [
            ((b"a",), 2**-0.5, basis_state(1, 0)),
            ((b"b",), 2**-0.5, basis_state(1, 1)),
        ],
    )


def random_hybrid(rng, payload_qubits, num_labels, label_bits=8):
    labels = rng.choice(1 << label_bits, size=num_labels, replace=False)
    amps = rng.normal(size=num_labels) + 1j * rng.normal(size=num_labels)
    amps = amps / np.linalg.norm(amps)
    return HybridState.from_terms(
        payload_qubits,
        [
            ((int(l),), a, haar_sample(payload_qubits, rng))
            for l, a in zip(labels, amps)
        ],
    )


def test_norm_validation():
    with pytest.raises(ValueError):
        HybridState.from_terms(0, [((1,), 0.5, SCALAR)])


@pytest.mark.parametrize("label", [("a",), (1, "a"), (True,)])
def test_labels_are_tuples_of_ints_and_bytes(label):
    with pytest.raises(TypeError):
        HybridState.from_terms(0, [(label, 1.0, SCALAR)])


def test_nan_branch_is_rejected_not_dropped():
    for bad in (np.nan, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="normalized"):
            HybridState.from_terms(0, [((0,), 1, SCALAR), ((1,), bad, SCALAR)])


def test_merge_same_label():
    half = 1 / (2 * np.sqrt(2))
    s = HybridState.from_terms(
        1,
        [
            ((0,), half, basis_state(1, 0)),
            ((0,), half, basis_state(1, 0)),
            ((1,), 2**-0.5, basis_state(1, 1)),
        ],
    )
    assert len(s.labels()) == 2
    label, amp, payload = branch_items(s)[0]
    assert label == (0,)
    assert amp == pytest.approx(2**-0.5)


def test_merge_cancellation_drops_branch():
    s = HybridState.from_terms(
        1,
        [
            ((0,), 2**-0.5, basis_state(1, 0)),
            ((1,), 2**-0.5, basis_state(1, 0)),
            ((1,), -(2**-0.5), basis_state(1, 0)),
            ((2,), 2**-0.5, basis_state(1, 1)),
        ],
    )
    assert s.labels() == [(0,), (2,)]


def test_label_disjoint_states_orthogonal():
    a = HybridState.from_terms(0, [((1,), 1.0, SCALAR)])
    b = HybridState.from_terms(0, [((2,), 1.0, SCALAR)])
    assert a.inner(b) == 0


def test_inner_product_mixed_labels():
    rng = make_rng(31)
    a = random_hybrid(rng, 2, 6)
    assert a.inner(a) == pytest.approx(1.0, abs=1e-9)


def test_measure_label_example():
    # Branches (a) |0> and (b) |1> with weight 1/2 each.
    rng = make_rng(40)
    hits = 0
    for _ in range(2000):
        outcome, post = two_branch().measure_labels(rng)
        assert outcome in [(b"a",), (b"b",)]
        assert len(post.labels()) == 1
        label, amp, payload = branch_items(post)[0]
        want = basis_state(1, 0) if outcome == (b"a",) else basis_state(1, 1)
        assert np.allclose(payload.amplitudes, want.amplitudes, atol=1e-9, rtol=0)
        hits += outcome == (b"a",)
    assert abs(hits / 2000 - 0.5) < 0.05


def test_measure_label_collapses_to_the_observed_label():
    s = HybridState.from_terms(
        0,
        [
            ((0, 7), 0.5, SCALAR),
            ((0, 9), 0.5, SCALAR),
            ((1, 7), 2**-0.5, SCALAR),
        ],
    )
    rng = make_rng(41)
    seen = set()
    for _ in range(200):
        outcome, post = s.measure_labels(rng)
        assert post.labels() == [outcome]
        assert np.allclose(post.branch_vector(outcome), [1.0], atol=1e-12, rtol=0)
        seen.add(outcome)
    assert seen == {(0, 7), (0, 9), (1, 7)}


def test_measure_payload_collapse():
    # three labels whose payload amplitudes carry distinct complex phases:
    # the post-state keeps each branch's amplitude at the outcome, phase and
    # all, renormalized over the branches
    vecs = {(l,): np.exp(0.7j * (l + 1) * np.arange(1, 5)) for l in range(3)}
    state = HybridState(2, [(l, v / math.sqrt(12)) for l, v in vecs.items()])
    seen = set()
    for seed in range(12):
        outcome, post = state.measure_payload(make_rng(seed))
        seen.add(outcome)
        total = math.sqrt(sum(abs(v[outcome]) ** 2 for v in vecs.values()))
        assert post.labels() == list(vecs)
        for label, vec in vecs.items():
            want = np.zeros(4, dtype=complex)
            want[outcome] = vec[outcome] / total
            assert np.allclose(post.branch_vector(label), want, atol=1e-12)
    assert len(seen) > 1


def test_canonical_bytes_order_independent():
    terms = [
        ((3,), 0.6, basis_state(1, 1)),
        ((1,), 0.8, basis_state(1, 0)),
    ]
    a = HybridState.from_terms(1, terms)
    b = HybridState.from_terms(1, terms[::-1])
    assert canonical_bytes(a) == canonical_bytes(b)


def test_map_labels_xor_preserves_norm():
    rng = make_rng(43)
    s = random_hybrid(rng, 1, 8)
    mapped = map_labels(s, lambda lab: (lab[0] ^ 0x55,))
    assert mapped.norm() == pytest.approx(1.0, abs=1e-12)
    assert sorted(l[0] ^ 0x55 for l in mapped.labels()) == sorted(
        l[0] for l in s.labels()
    )


def test_distance_and_allclose():
    a = two_branch()
    b = HybridState.from_terms(
        1,
        [
            ((b"a",), 2**-0.5, basis_state(1, 0)),
            ((b"c",), 2**-0.5, basis_state(1, 1)),
        ],
    )
    assert a.allclose(a)
    assert a.distance(b) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="payload sizes differ"):
        a.distance(random_hybrid(make_rng(30), 2, 3))


def test_distance_to_itself_is_exactly_zero():
    # summed over branch differences, not as |a|^2 + |b|^2 - 2 Re<a, b>,
    # which left up to 3e-8 here and failed allclose's 1e-9
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = random_hybrid(rng, int(rng.integers(0, 5)), int(rng.integers(1, 20)))
        assert a.distance(a) == 0.0
        assert a.allclose(a)


def test_immutability():
    s = two_branch()
    with pytest.raises(AttributeError):
        s.payload_qubits = 3


@st.composite
def _unit_branches(draw):
    """(payload qubits, [(label, payload vector)]) of total norm 1."""
    q = draw(st.integers(0, 3))
    labels = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=6, unique=True))
    amp = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    vecs = [np.array(draw(st.lists(amp, min_size=1 << q, max_size=1 << q)))
            for _ in labels]
    total = math.sqrt(sum(np.linalg.norm(v) ** 2 for v in vecs))
    return q, [(label, v / total) for label, v in zip(labels, vecs)]


def _assert_unit(state):
    assert abs(state.norm() - 1.0) <= 1e-9


@given(branches=_unit_branches(), seed=st.integers(0, 2**32 - 1))
def test_operations_preserve_norm(branches, seed):
    q, pairs = branches
    state = HybridState(q, pairs)
    _assert_unit(state)
    rng = make_rng(seed)
    _assert_unit(state.measure_labels(rng)[1])
    # injective: the xor and the swap are both invertible
    _assert_unit(map_labels(state, lambda label: (label[1], label[0] ^ 5, b"x")))
    if q:
        _assert_unit(state.measure_payload(rng)[1])


@given(branches=_unit_branches(), data=st.data())
def test_nan_in_any_branch_is_rejected(branches, data):
    q, pairs = branches
    i = data.draw(st.integers(0, len(pairs) - 1))
    vec = pairs[i][1].copy()
    vec[data.draw(st.integers(0, (1 << q) - 1))] = data.draw(
        st.sampled_from((np.nan, complex(0.0, np.nan))))
    pairs[i] = (pairs[i][0], vec)
    with pytest.raises(ValueError):
        HybridState(q, pairs)
