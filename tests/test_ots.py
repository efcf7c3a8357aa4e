"""Lamport one-time signatures (hash-then-sign): round trips, determinism,
exhaustive bit-tamper rejection, and the documented byte layout."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclonelab.primitives import (
    ots_gen,
    ots_preimage,
    ots_setup_from_seed,
    ots_sig_len,
    ots_sign,
    ots_verify,
    ots_vk_len,
)
from unclonelab.primitives import ots as ots_module
from unclonelab.rng import make_rng

FIXED_SEED = bytes(range(32))
GOLDEN_VK_SHA256 = "5666f20c2657ef4c9689daac0eacaabcb8d83fc149f60bad2a939afed0f9cae8"
GOLDEN_SIG_SHA256 = "8a4ea13b298dd9686c208026cc38a9e4c18649a48fe737a7135099667bad8317"


def _digest_bits(message, bits):
    h = hashlib.sha256(message).digest()
    return [(h[i // 8] >> (7 - i % 8)) & 1 for i in range(bits)]


@st.composite
def _tamper_cases(draw):
    # a keypair, a message, and the preimages and message bytes to flip
    L = draw(st.integers(1, 32))
    seed = draw(st.binary(min_size=32, max_size=32))
    message = draw(st.binary(max_size=48))
    preimages = draw(st.sets(st.integers(0, L - 1)))
    message_bytes = (draw(st.sets(st.integers(0, len(message) - 1)))
                     if message else set())
    mask = draw(st.integers(1, 255))
    return L, seed, message, preimages, message_bytes, mask


class TestSetup:
    def test_lengths(self):
        for bits in (1, 8, 16, 256):
            kp = ots_gen(bits, make_rng(bits))
            assert len(kp.vk_bytes()) == ots_vk_len(bits) == 2 * bits * 32
            assert len(ots_sign(kp, b"x")) == ots_sig_len(bits) == bits * 32

    def test_vk_rows_hash_sk_rows(self):
        kp = ots_gen(8, make_rng(1))
        for b in range(2):
            for i in range(8):
                assert kp.vk[b][i] == hashlib.sha256(kp.sk[b][i]).digest()

    def test_vk_bytes_layout_row0_then_row1(self):
        kp = ots_gen(4, make_rng(2))
        blob = kp.vk_bytes()
        for i in range(4):
            assert blob[32 * i : 32 * (i + 1)] == kp.vk[0][i]
            assert blob[128 + 32 * i : 128 + 32 * (i + 1)] == kp.vk[1][i]

    def test_seed_determinism_and_golden(self):
        a = ots_setup_from_seed(16, FIXED_SEED)
        b = ots_setup_from_seed(16, FIXED_SEED)
        assert a.vk_bytes() == b.vk_bytes()
        assert a.sk == b.sk
        assert hashlib.sha256(a.vk_bytes()).hexdigest() == GOLDEN_VK_SHA256

    def test_preimages_follow_ots_preimage(self):
        for L in (1, 16, 24, 256):
            seed = make_rng(L).bytes(32)
            kp = ots_setup_from_seed(L, seed)
            sk = tuple(tuple(ots_preimage(seed, b, i) for i in range(L)) for b in (0, 1))
            assert kp.sk == sk
            assert kp.vk == tuple(
                tuple(hashlib.sha256(p).digest() for p in row) for row in sk)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ots_setup_from_seed(0, FIXED_SEED)
        with pytest.raises(ValueError):
            ots_setup_from_seed(257, FIXED_SEED)
        with pytest.raises(ValueError):
            ots_setup_from_seed(8, b"short")

    def test_distinct_rng_keys_differ(self):
        rng = make_rng(3)
        vks = {ots_gen(8, rng).vk_bytes() for _ in range(100)}
        assert len(vks) == 100


class TestSignVerify:
    def test_round_trip_100_random_messages(self):
        rng = make_rng(4)
        kp = ots_gen(32, rng)
        for _ in range(100):
            msg = rng.bytes(int(rng.integers(0, 200)))
            assert ots_verify(kp.vk_bytes(), msg, ots_sign(kp, msg), 32)

    def test_empty_and_long_messages(self):
        kp = ots_gen(16, make_rng(5))
        for msg in (b"", b"\x00" * 10_000):
            assert ots_verify(kp.vk_bytes(), msg, ots_sign(kp, msg), 16)

    def test_deterministic_signatures(self):
        kp = ots_gen(16, make_rng(6))
        assert ots_sign(kp, b"same message") == ots_sign(kp, b"same message")

    def test_golden_signature(self):
        kp = ots_setup_from_seed(16, FIXED_SEED)
        sig = ots_sign(kp, b"attack at dawn")
        assert hashlib.sha256(sig).hexdigest() == GOLDEN_SIG_SHA256
        assert sig[:8].hex() == "24278cf09e8a75c1"

    def test_signature_is_chosen_preimages(self):
        kp = ots_gen(8, make_rng(7))
        msg = b"preimage check"
        sig = ots_sign(kp, msg)
        for i, bit in enumerate(_digest_bits(msg, 8)):
            assert sig[32 * i : 32 * (i + 1)] == kp.sk[bit][i]

    def test_exhaustive_single_bit_sig_tamper(self):
        kp = ots_gen(16, make_rng(8))
        msg = b"tamper target"
        sig = bytearray(ots_sign(kp, msg))
        vk = kp.vk_bytes()
        assert ots_verify(vk, msg, bytes(sig), 16)
        for byte_pos in range(len(sig)):
            for bit in range(8):
                sig[byte_pos] ^= 1 << bit
                assert not ots_verify(vk, msg, bytes(sig), 16)
                sig[byte_pos] ^= 1 << bit

    def test_wrong_message_rejected_property(self):
        rng = make_rng(9)
        for trial in range(1000):
            kp = ots_setup_from_seed(8, rng.bytes(32))
            m1 = rng.bytes(12)
            m2 = rng.bytes(12)
            sig = ots_sign(kp, m1)
            assert ots_verify(kp.vk_bytes(), m1, sig, 8)
            # Rejection requires the truncated digests to differ; skip the
            # rare 8-bit collision instead of asserting on it.
            if _digest_bits(m1, 8) != _digest_bits(m2, 8):
                assert not ots_verify(kp.vk_bytes(), m2, sig, 8)

    def test_wrong_vk_rejected(self):
        kp1 = ots_gen(16, make_rng(10))
        kp2 = ots_gen(16, make_rng(11))
        sig = ots_sign(kp1, b"msg")
        assert not ots_verify(kp2.vk_bytes(), b"msg", sig, 16)

    def test_bad_lengths_return_false(self):
        kp = ots_gen(16, make_rng(12))
        sig = ots_sign(kp, b"msg")
        assert not ots_verify(kp.vk_bytes(), b"msg", sig[:-1], 16)
        assert not ots_verify(kp.vk_bytes()[:-1], b"msg", sig, 16)
        assert not ots_verify(kp.vk_bytes(), b"msg", sig + b"\x00", 16)

    def test_digest_length_out_of_range_returns_false(self):
        # L = 0 would accept an empty signature for every message, and
        # L > 256 asks for more digest bits than SHA-256 has
        for L in (0, 257, 300):
            vk, sig = bytes(ots_vk_len(L)), bytes(ots_sig_len(L))
            for msg in (b"", b"m"):
                assert not ots_verify(vk, msg, sig, L)

    def test_rejection_stops_at_first_bad_preimage(self, monkeypatch):
        # one hash for the message digest, then one per preimage up to and
        # including the first that does not match
        calls = []
        real = ots_module.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(ots_module, "sha256", counting)
        kp = ots_gen(24, make_rng(13))
        sig = ots_sign(kp, b"msg")
        for j in range(24):
            bad = bytearray(sig)
            bad[32 * j] ^= 1
            calls.clear()
            assert not ots_verify(kp.vk_bytes(), b"msg", bytes(bad), 24)
            assert len(calls) == 1 + j + 1
        calls.clear()
        assert ots_verify(kp.vk_bytes(), b"msg", sig, 24)
        assert len(calls) == 1 + 24

    def test_first_preimage_checked_first(self, monkeypatch):
        # first = j: the message digest, then preimage j; an accept still
        # hashes every preimage
        calls = []
        real = ots_module.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(ots_module, "sha256", counting)
        kp = ots_gen(24, make_rng(14))
        sig = ots_sign(kp, b"msg")
        for j in range(24):
            bad = bytearray(sig)
            bad[32 * j + 31] ^= 0x80
            calls.clear()
            assert not ots_verify(kp.vk_bytes(), b"msg", bytes(bad), 24, j)
            assert calls[1:] == [bytes(bad[32 * j : 32 * j + 32])]
            calls.clear()
            assert ots_verify(kp.vk_bytes(), b"msg", sig, 24, j)
            assert len(calls) == 1 + 24

    def test_first_outside_range_raises(self):
        kp = ots_gen(8, make_rng(15))
        sig = ots_sign(kp, b"msg")
        for first in (-1, 8, 9, 256):
            with pytest.raises(ValueError):
                ots_verify(kp.vk_bytes(), b"msg", sig, 8, first)

    @given(case=_tamper_cases())
    def test_first_never_changes_the_verdict(self, case):
        L, seed, message, preimages, message_bytes, mask = case
        kp = ots_setup_from_seed(L, seed)
        sig = bytearray(ots_sign(kp, message))
        for i in preimages:
            sig[32 * i + mask % 32] ^= mask
        tampered = bytearray(message)
        for j in message_bytes:
            tampered[j] ^= mask
        sig, tampered = bytes(sig), bytes(tampered)
        # a changed message whose first L digest bits agree is signed alike;
        # at L = 32 that has probability 2**-32
        want = (not preimages
                and _digest_bits(tampered, L) == _digest_bits(message, L))
        untouched = not preimages and not message_bytes
        assert want == untouched or L < 32
        vk = kp.vk_bytes()
        for first in range(L):
            assert ots_verify(vk, tampered, sig, L, first) == want
