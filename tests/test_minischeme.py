"""Subspace banknotes: deterministic generation, dual-projective
verification, serial-number codec, and naive counterfeit envelopes."""

import numpy as np
import pytest

from unclonelab import minischeme as ms
from unclonelab.hilbert import StateVector
from unclonelab.rng import make_rng


def _random_banknote(n, rng):
    need = ((n // 2) ** 2 + 7) // 8
    return ms.mini_gen(n, rng.bytes(need))


def _oracle_basis(n, randomness):
    # rows [I | R], R filled row by row from the randomness bits, MSB-first
    half = n // 2
    bits = [(randomness[i // 8] >> (7 - i % 8)) & 1 for i in range(half * half)]
    return tuple(
        (1 << (n - 1 - i)) | sum(bits[i * half + j] << (half - 1 - j) for j in range(half))
        for i in range(half))


def _basis_state(n, index):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


class TestGen:
    def test_same_randomness_identical_banknote(self):
        a = ms.mini_gen(8, b"\x1b\xe5")
        b = ms.mini_gen(8, b"\x1b\xe5")
        assert a.sn == b.sn
        assert a.note.amplitudes.tobytes() == b.note.amplitudes.tobytes()

    def test_note_support_size_and_amplitude(self):
        bn = ms.mini_gen(8, bytes(2))
        nz = np.flatnonzero(bn.note.amplitudes)
        assert len(nz) == 16
        assert np.allclose(bn.note.amplitudes[nz], 2**-2.0)

    def test_zero_always_in_subspace(self):
        rng = make_rng(0)
        for n in (2, 4, 6, 8):
            bn = _random_banknote(n, rng)
            assert bn.note.amplitudes[0] != 0

    def test_odd_or_oversized_n_rejected(self):
        with pytest.raises(ValueError):
            ms.mini_gen(5, bytes(4))
        with pytest.raises(ValueError):
            ms.mini_gen(14, bytes(8))

    def test_insufficient_randomness_rejected(self):
        with pytest.raises(ValueError):
            ms.mini_gen(8, b"\x00")  # 16 bits needed

    def test_basis_dual_orthogonal(self):
        rng = make_rng(1)
        for n in (2, 4, 6, 8, 10, 12):
            bn = _random_banknote(n, rng)
            space = ms.subspace_from_sn(bn.sn)
            for a in space.basis:
                for d in space.dual_basis:
                    assert bin(a & d).count("1") % 2 == 0

    def test_dimension_count(self):
        space = ms.subspace_from_randomness(8, bytes(2))
        assert len(space.basis) == 4
        assert len(space.dual_basis) == 4
        assert len(set(space.elements())) == 16
        assert len(set(space.dual_elements())) == 16


class TestSerialNumber:
    def test_layout(self):
        space = ms.subspace_from_randomness(8, b"\xff\xff")
        blob = ms.sn_bytes(space)
        assert blob[0] == 8
        assert len(blob) == 1 + 4
        for i, row in enumerate(space.basis):
            assert blob[1 + i] == row

    def test_round_trip_all_sizes(self):
        rng = make_rng(2)
        for n in (2, 4, 6, 8, 10, 12):
            for _ in range(10):
                r = rng.bytes(((n // 2) ** 2 + 7) // 8)
                bn = ms.mini_gen(n, r)
                space = ms.subspace_from_sn(bn.sn)
                assert space == ms.subspace_from_randomness(n, r)
                assert space.basis == _oracle_basis(n, r)
                assert ms.sn_bytes(space) == bn.sn
                assert np.array_equal(ms.note_state(space).amplitudes, bn.note.amplitudes)

    def test_malformed_rejected(self):
        bn = ms.mini_gen(8, bytes(2))
        with pytest.raises(ValueError):
            ms.subspace_from_sn(b"")
        with pytest.raises(ValueError):
            ms.subspace_from_sn(bn.sn[:-1])
        with pytest.raises(ValueError):
            ms.subspace_from_sn(bytes([7]) + bn.sn[1:])
        tampered = bytearray(bn.sn)
        tampered[1] ^= 0x40  # breaks the identity block
        with pytest.raises(ValueError):
            ms.subspace_from_sn(bytes(tampered))


class TestVerify:
    def test_honest_note_accepted_unchanged(self):
        rng = make_rng(3)
        for n in (2, 4, 6, 8):
            bn = _random_banknote(n, rng)
            for _ in range(20):
                bit, post = ms.mini_verify(bn.sn, bn.note, rng)
                assert bit == 1
                assert np.allclose(post.amplitudes, bn.note.amplitudes, atol=1e-12)

    def test_accept_probability_honest_is_exactly_one(self):
        rng = make_rng(4)
        for n in (4, 8):
            bn = _random_banknote(n, rng)
            assert ms.accept_probability(bn.sn, bn.note) == 1.0

    def test_zero_state_accept_probability(self):
        rng = make_rng(5)
        for n in (4, 6, 8):
            bn = _random_banknote(n, rng)
            assert ms.accept_probability(bn.sn, _basis_state(n, 0)) == pytest.approx(
                2 ** (-n / 2), abs=1e-12
            )

    def test_zero_state_empirical_rate(self):
        bn = ms.mini_gen(6, bytes(2))
        rng = make_rng(6)
        hits = sum(
            ms.mini_verify(bn.sn, _basis_state(6, 0), rng)[0] for _ in range(4000)
        )
        p = 2**-3
        sigma = np.sqrt(p * (1 - p) / 4000)
        assert abs(hits / 4000 - p) < 4 * sigma

    def test_basis_state_outside_subspace_rejected_immediately(self):
        rng = make_rng(7)
        bn = _random_banknote(8, rng)
        space = ms.subspace_from_sn(bn.sn)
        outside = sorted(set(range(256)) - set(space.elements()))
        for x in outside[:20]:
            bit, _ = ms.mini_verify(bn.sn, _basis_state(8, x), rng)
            assert bit == 0

    def test_verify_is_projective_repeatable(self):
        rng = make_rng(8)
        bn = _random_banknote(6, rng)
        # start from a state with partial overlap, verify, then re-verify
        mixed = (bn.note.amplitudes + _basis_state(6, 0).amplitudes) / np.linalg.norm(
            bn.note.amplitudes + _basis_state(6, 0).amplitudes
        )
        bit1, post1 = ms.mini_verify(bn.sn, StateVector(6, mixed), rng)
        bit2, post2 = ms.mini_verify(bn.sn, post1, rng)
        assert bit1 == bit2 or bit1 == 0  # accepted states stay accepted
        if bit1 == 1:
            assert np.allclose(post1.amplitudes, post2.amplitudes, atol=1e-10)

    def test_accepted_post_state_is_the_note(self):
        rng = make_rng(9)
        bn = _random_banknote(6, rng)
        mixed = bn.note.amplitudes * 0.9
        mixed[3] += np.sqrt(1 - 0.81)
        mixed /= np.linalg.norm(mixed)
        for _ in range(200):
            bit, post = ms.mini_verify(bn.sn, StateVector(6, mixed), rng)
            if bit == 1:
                assert np.allclose(np.abs(post.amplitudes), np.abs(bn.note.amplitudes),
                                   atol=1e-10)
                break
        else:
            pytest.fail("acceptance never occurred at overlap 0.81")

    def test_dimension_mismatch_raises(self):
        bn = ms.mini_gen(8, bytes(2))
        with pytest.raises(ValueError):
            ms.mini_verify(bn.sn, _basis_state(6, 0), make_rng(0))


class TestAcceptOperator:
    def test_equals_note_projector(self):
        rng = make_rng(10)
        for n in (2, 4, 6):
            bn = _random_banknote(n, rng)
            space = ms.subspace_from_sn(bn.sn)
            target = np.outer(bn.note.amplitudes, bn.note.amplitudes.conj())
            assert np.max(np.abs(ms.accept_operator(space) - target)) < 1e-12

    def test_note_is_unique_top_eigenstate(self):
        rng = make_rng(11)
        for n in (2, 4, 6, 8):
            bn = _random_banknote(n, rng)
            space = ms.subspace_from_sn(bn.sn)
            vals, vecs = np.linalg.eigh(ms.accept_operator(space))
            assert abs(vals[-1] - 1.0) < 1e-10
            assert np.max(np.abs(vals[:-1])) < 1e-10
            overlap = abs(np.vdot(vecs[:, -1], bn.note.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)


class TestCounterfeit:
    def test_zero_pad_success_rate(self):
        bn = ms.mini_gen(8, bytes(2))
        rng = make_rng(12)
        wins = 0
        trials = 3000
        for _ in range(trials):
            c1, c2 = ms.mini_counterfeit("zero-pad", bn.note, rng)
            wins += ms.mini_verify(bn.sn, c1, rng)[0] & ms.mini_verify(bn.sn, c2, rng)[0]
        p = 2**-4
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(wins / trials - p) < 4 * sigma

    def test_measure_clone_success_rate(self):
        bn = ms.mini_gen(6, bytes(2))
        rng = make_rng(13)
        wins = 0
        trials = 3000
        for _ in range(trials):
            c1, c2 = ms.mini_counterfeit("measure-clone", bn.note, rng)
            wins += ms.mini_verify(bn.sn, c1, rng)[0] & ms.mini_verify(bn.sn, c2, rng)[0]
        p = 2**-6
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(wins / trials - p) < 4 * sigma

    def test_hadamard_clone_symmetric_rate(self):
        bn = ms.mini_gen(6, bytes(2))
        rng = make_rng(14)
        wins = 0
        trials = 3000
        for _ in range(trials):
            c1, c2 = ms.mini_counterfeit("hadamard-clone", bn.note, rng)
            wins += ms.mini_verify(bn.sn, c1, rng)[0] & ms.mini_verify(bn.sn, c2, rng)[0]
        p = 2**-6
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(wins / trials - p) < 4 * sigma

    def test_measure_clone_lands_in_subspace(self):
        bn = ms.mini_gen(8, bytes(2))
        space = ms.subspace_from_sn(bn.sn)
        els = set(space.elements())
        rng = make_rng(15)
        for _ in range(50):
            c1, c2 = ms.mini_counterfeit("measure-clone", bn.note, rng)
            idx = int(np.flatnonzero(c1.amplitudes)[0])
            assert idx in els
            assert np.array_equal(c1.amplitudes, c2.amplitudes)

    def test_unknown_strategy_rejected(self):
        bn = ms.mini_gen(4, bytes(1))
        with pytest.raises(ValueError):
            ms.mini_counterfeit("teleport", bn.note, make_rng(0))
