"""HybridState: canonical branches, measurement, and dense-route faithfulness."""

import numpy as np
import pytest

from unclonelab.hilbert import HybridState, StateVector, basis_state, haar_sample, measure
from unclonelab.rng import make_rng


def two_branch():
    return HybridState.from_terms(
        1,
        [
            (("a",), 2**-0.5, basis_state(1, 0)),
            (("b",), 2**-0.5, basis_state(1, 1)),
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
        HybridState.from_terms(0, [((1,), 0.5, None)])


def test_nan_branch_is_rejected_not_dropped():
    for bad in (np.nan, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="normalized"):
            HybridState.from_terms(0, [((0,), 1, None), ((1,), bad, None)])


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
    assert s.num_branches() == 2
    label, amp, payload = s.branch_items()[0]
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
    a = HybridState.from_terms(0, [((1,), 1.0, None)])
    b = HybridState.from_terms(0, [((2,), 1.0, None)])
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
        outcome, post = measure(two_branch(), None, rng)
        assert outcome in [("a",), ("b",)]
        assert post.num_branches() == 1
        label, amp, payload = post.branch_items()[0]
        want = basis_state(1, 0) if outcome == ("a",) else basis_state(1, 1)
        assert payload.allclose(want)
        hits += outcome == ("a",)
    assert abs(hits / 2000 - 0.5) < 0.05


def test_measure_label_positions_subset():
    s = HybridState.from_terms(
        0,
        [
            ((0, 7), 0.5, None),
            ((0, 9), 0.5, None),
            ((1, 7), 2**-0.5, None),
        ],
    )
    rng = make_rng(41)
    outcome, post = s.measure_labels(rng, positions=[0])
    if outcome == (0,):
        assert post.num_branches() == 2
    else:
        assert outcome == (1,)
        assert post.labels() == [(1, 7)]


def test_measure_payload_collapse():
    rng = make_rng(42)
    s = HybridState.from_terms(
        1,
        [
            ((0,), 2**-0.5, basis_state(1, 0)),
            ((1,), 2**-0.5, StateVector(1, [2**-0.5, 2**-0.5])),
        ],
    )
    outcome, post = s.measure_payload(rng)
    for _, _, payload in post.branch_items():
        assert abs(abs(payload.amplitudes[outcome]) - 1.0) < 1e-9


def test_map_labels_xor_preserves_norm():
    rng = make_rng(43)
    s = random_hybrid(rng, 1, 8)
    mapped = s.map_labels(lambda lab: (lab[0] ^ 0x55,))
    assert mapped.norm() == pytest.approx(1.0, abs=1e-12)
    assert sorted(l[0] ^ 0x55 for l in mapped.labels()) == sorted(
        l[0] for l in s.labels()
    )


def test_densify_faithfulness_brute_force():
    # Inner products branch-wise vs through the dense vector, small instances.
    rng = make_rng(44)
    for _ in range(25):
        payload_qubits = int(rng.integers(0, 4))
        a = random_hybrid(rng, payload_qubits, int(rng.integers(1, 9)))
        b = random_hybrid(rng, payload_qubits, int(rng.integers(1, 9)))
        da, db = a.densify([8]), b.densify([8])
        dense = complex(np.vdot(da.amplitudes, db.amplitudes))
        assert abs(dense - a.inner(b)) < 1e-9


def test_densify_larger_payloads():
    rng = make_rng(45)
    a = random_hybrid(rng, 6, 4)
    assert abs(np.linalg.norm(a.densify([8]).amplitudes) - 1.0) < 1e-9


def test_densify_rejects_labels_that_do_not_encode():
    # bytes and str parts, ints outside the width, and wrong label lengths
    for label in ((b"\x01",), ("a",), (4,), (-1,), (1, 0)):
        s = HybridState.from_terms(0, [(label, 1.0, None)])
        with pytest.raises(ValueError):
            s.densify([2])


def test_canonical_bytes_order_independent():
    terms = [
        ((3,), 0.6, basis_state(1, 1)),
        ((1,), 0.8, basis_state(1, 0)),
    ]
    a = HybridState.from_terms(1, terms)
    b = HybridState.from_terms(1, terms[::-1])
    assert a.canonical_bytes() == b.canonical_bytes()


def test_distance_and_allclose():
    a = two_branch()
    b = HybridState.from_terms(
        1,
        [
            (("a",), 2**-0.5, basis_state(1, 0)),
            (("c",), 2**-0.5, basis_state(1, 1)),
        ],
    )
    assert a.allclose(a)
    assert a.distance(b) == pytest.approx(1.0, abs=1e-9)


def test_immutability():
    s = two_branch()
    with pytest.raises(AttributeError):
        s.payload_qubits = 3
