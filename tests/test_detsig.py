"""Tree signatures: round trips, determinism, chain soundness against a
key-derivation oracle, and tamper rejection."""

import dataclasses
import functools
import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclonelab import detsig
from unclonelab.primitives import hashes
from unclonelab.primitives.ots import (
    ots_setup_from_seed,
    ots_sig_len,
    ots_sign,
    ots_verify,
    ots_vk_len,
)
from unclonelab.primitives.pprf import pprf_eval
from unclonelab.primitives import ots as ots_module
from unclonelab.rng import make_rng

from helpers import first_departure

GOLDEN_VK_ROOT_SHA256 = "30ac69e5295e8115145677e7e80f888a743763e5137bcb539780b1d3ab8e53da"
GOLDEN_SIG_SHA256 = "6cd10f8eae5058a04ec0959ad30ae43aa2cc6c8a9f83e9b732dc30ebf3735d18"
GOLDEN_TAG_HEX = "16ccc2c3ae4a08da76fed5b0fb4be910"


class TestSetup:
    def test_vk_root_is_documented_ots_length(self):
        vk, _ = detsig.setup(8, 128, make_rng(0))
        assert len(vk.vk_root) == ots_vk_len(vk.digest_bits)

    def test_deterministic_under_seed(self):
        vk1, sk1 = detsig.setup(8, 128, make_rng(1))
        vk2, sk2 = detsig.setup(8, 128, make_rng(1))
        assert vk1 == vk2
        assert sk1.key_prf == sk2.key_prf
        assert hashlib.sha256(vk1.vk_root).hexdigest() == GOLDEN_VK_ROOT_SHA256

    def test_setups_differ(self):
        roots = {detsig.setup(4, 16, make_rng(i))[0].vk_root for i in range(100)}
        assert len(roots) == 100

    def test_rejects_bad_params(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            detsig.setup(0, 16, rng)
        with pytest.raises(ValueError):
            detsig.setup(57, 16, rng)
        with pytest.raises(ValueError):
            detsig.setup(8, 12, rng)


class TestSignVerify:
    def test_round_trip_100_random_messages(self):
        rng = make_rng(2)
        vk, sk = detsig.setup(8, 64, rng, digest_bits=8)
        for _ in range(100):
            m = int(rng.integers(256))
            assert detsig.verify(vk, m, detsig.sign(sk, m))

    def test_sign_deterministic_and_golden(self):
        _, sk = detsig.setup(8, 128, make_rng(1))
        sig = detsig.sign(sk, 0xA5)
        assert sig.to_bytes() == detsig.sign(sk, 0xA5).to_bytes()
        assert hashlib.sha256(sig.to_bytes()).hexdigest() == GOLDEN_SIG_SHA256
        assert sig.y.hex() == GOLDEN_TAG_HEX

    def test_fresh_and_warm_keys_sign_alike_at_coin_parameters(self):
        # a warm key takes part of m's path from its cache and derives the
        # rest; the bytes must not depend on which
        def key():
            return detsig.setup(40, 64, make_rng(8), digest_bits=16)[1]

        m = 0xA55A0FF0C3
        want = detsig.sign(key(), m).to_bytes()
        warm = key()
        for other in (m ^ (1 << 20), m ^ (1 << 39)):
            detsig.sign(warm, other)
        # both children at each depth, by node id prefix | 1 << depth
        path = [(m | 1 << 40) >> (40 - t) ^ side
                for t in range(1, 41) for side in (0, 1)]
        assert sum(node in warm._cache for node in path) == 40
        assert detsig.sign(warm, m).to_bytes() == want
        assert all(node in warm._cache for node in path)
        assert detsig.sign(warm, m).to_bytes() == want

    def test_signature_size_formula(self):
        for n, bits, lam in ((1, 8, 8), (4, 24, 16), (8, 8, 128)):
            vk, sk = detsig.setup(n, lam, make_rng(3), digest_bits=bits)
            blob = detsig.sign(sk, 0).to_bytes()
            assert len(blob) == n * (2 * ots_vk_len(bits) + ots_sig_len(bits)) \
                + lam // 8 + ots_sig_len(bits)
            assert len(blob) == detsig.signature_len(n, bits, lam)

    def test_link_keys_rederivable_from_prf(self):
        # every child vk in a signature must equal the keypair grown from
        # the PRF seed at that prefix
        rng = make_rng(4)
        vk, sk = detsig.setup(8, 16, rng, digest_bits=8)
        for _ in range(100):
            m = int(rng.integers(256))
            sig = detsig.sign(sk, m)
            assert len(sig.links) == 8
            for t, (pl0, pl1, _) in enumerate(sig.links, start=1):
                value = (m >> (8 - t + 1)) << 1
                for child, pl in ((value, pl0), (value | 1, pl1)):
                    seed = pprf_eval(sk.key_prf, (t << 8) | (child << (8 - t)))
                    assert ots_setup_from_seed(8, seed).vk == pl

    def test_tag_matches_prf(self):
        rng = make_rng(5)
        _, sk = detsig.setup(6, 32, rng, digest_bits=8)
        for m in range(64):
            assert detsig.sign(sk, m).y == pprf_eval(sk.tag_prf, m)

    def test_message_out_of_range(self):
        vk, sk = detsig.setup(4, 16, make_rng(6))
        with pytest.raises(ValueError):
            detsig.sign(sk, 16)
        assert not detsig.verify(vk, 16, detsig.sign(sk, 3))

    @pytest.mark.parametrize("digest_bits", (0, 257, 300))
    def test_digest_width_out_of_range_rejected(self, digest_bits):
        # at width 0 every link and the leaf check are empty, so a 1-byte
        # blob (the tag) would pass for every message
        vk = detsig.TreeSigVerifyKey(bytes(ots_vk_len(digest_bits)), 4,
                                     digest_bits, 8)
        size = detsig.signature_len(4, digest_bits, 8)
        vk_len, sig_len = ots_vk_len(digest_bits), ots_sig_len(digest_bits)
        for m in range(16):
            for fill in (0, m, 255):
                assert not detsig.verify(vk, m, bytes([fill]) * size)
                # a signature object is rejected too, not refused with an error
                link = (bytes([fill]) * vk_len,) * 2 + (bytes([fill]) * sig_len,)
                obj = detsig.TreeSignature((link,) * 4, bytes([fill]),
                                           bytes([fill]) * sig_len)
                assert not detsig.verify(vk, m, obj)
        assert not vk._verified

    def test_bytes_and_tree_signature(self):
        vk, sk = detsig.setup(4, 16, make_rng(33), digest_bits=8)
        blob = detsig.sign(sk, 7).to_bytes()
        bad = _flip(blob, 8 * len(blob) - 1)
        for kind in (bytes, lambda b: detsig.signature_from_bytes(b, 4, 8, 16)):
            assert detsig.verify(dataclasses.replace(vk), 7, kind(blob))
            assert detsig.verify(vk, 7, kind(blob))
            assert not detsig.verify(vk, 7, kind(bad))
            assert not detsig.verify(vk, 6, kind(blob))

    @pytest.mark.parametrize("sig", ("ab" * 1000, None, [0] * 1000, 7),
                             ids=("str", "None", "list", "int"))
    def test_not_bytes_like_raises_type_error(self, sig):
        vk, _ = detsig.setup(4, 16, make_rng(33), digest_bits=8)
        with pytest.raises(TypeError):
            detsig.verify(vk, 7, sig)
        assert not vk._verified

    @pytest.mark.parametrize("kind", (bytearray, memoryview))
    def test_bytes_like_but_not_bytes_raises_type_error(self, kind):
        vk, sk = detsig.setup(4, 16, make_rng(33), digest_bits=8)
        blob = detsig.sign(sk, 7).to_bytes()
        with pytest.raises(TypeError, match="bytes or a TreeSignature"):
            detsig.verify(vk, 7, kind(blob))
        assert not vk._verified
        assert detsig.verify(vk, 7, blob)

    def test_every_message_bit_flip_rejected(self):
        rng = make_rng(7)
        vk, sk = detsig.setup(8, 16, rng, digest_bits=8)
        m = 0x3C
        sig = detsig.sign(sk, m)
        assert detsig.verify(vk, m, sig)
        for bit in range(8):
            assert not detsig.verify(vk, m ^ (1 << bit), sig)

    def test_truncated_link_list_rejected(self):
        vk, sk = detsig.setup(4, 16, make_rng(8))
        sig = detsig.sign(sk, 5)
        assert not detsig.verify(vk, 5, detsig.TreeSignature(sig.links[:-1], sig.y, sig.isig))
        assert not detsig.verify(vk, 5, sig.to_bytes()[:-1])
        assert not detsig.verify(vk, 5, sig.to_bytes() + b"\x00")

    def test_mis_sized_fields_rejected_despite_valid_joined_length(self):
        # one byte moved from the last link's parent signature into the tag:
        # joined, the fields give back the honest blob byte for byte
        vk, sk = detsig.setup(4, 16, make_rng(8))
        m = 5
        sig = detsig.sign(sk, m)
        pl0, pl1, sigpl = sig.links[-1]
        bad = detsig.TreeSignature(sig.links[:-1] + ((pl0, pl1, sigpl[:-1]),),
                                   sigpl[-1:] + sig.y, sig.isig)
        assert bad.to_bytes() == sig.to_bytes()
        assert detsig.verify(vk, m, sig)
        assert not detsig.verify(vk, m, bad)

    def test_signature_object_is_the_parse_of_its_bytes(self):
        # list-valued links join to the honest blob, but no parse builds them
        vk, sk = detsig.setup(4, 16, make_rng(8), digest_bits=8)
        m = 5
        sig = detsig.sign(sk, m)
        parsed = detsig.signature_from_bytes(sig.to_bytes(), 4, 8, 16)
        assert parsed == sig
        assert detsig.verify(vk, m, parsed)
        for listed in (detsig.TreeSignature(list(sig.links), sig.y, sig.isig),
                       _with_link(sig, 0, list(sig.links[0]))):
            assert listed.to_bytes() == sig.to_bytes()
            assert not detsig.verify(vk, m, listed)
            assert not detsig.verify(dataclasses.replace(vk), m, listed)

    def test_chain_soundness_random_vk_replacement(self):
        # digest width 24: a random replacement only survives a link check
        # via a truncated-digest collision, negligible at this width
        rng = make_rng(9)
        vk, sk = detsig.setup(4, 16, rng, digest_bits=24)
        m = 9
        sig = detsig.sign(sk, m)
        for _ in range(1000):
            t = int(rng.integers(4))
            side = int(rng.integers(2))
            links = list(sig.links)
            pl0, pl1, sigpl = links[t]
            fake = bytes(rng.bytes(len(pl0)))
            links[t] = (fake, pl1, sigpl) if side == 0 else (pl0, fake, sigpl)
            assert not detsig.verify(vk, m, detsig.TreeSignature(tuple(links), sig.y, sig.isig))

    def test_exhaustive_bit_tamper_small_instance(self):
        # full single-bit sweep over a whole serialized signature; digest
        # width 24 makes a truncated-digest collision on this one instance
        # astronomically unlikely, so every flip must be rejected
        vk, sk = detsig.setup(2, 16, make_rng(10), digest_bits=24)
        m = 2
        blob = bytearray(detsig.sign(sk, m).to_bytes())
        assert detsig.verify(vk, m, bytes(blob))
        for pos in range(len(blob)):
            for bit in range(8):
                blob[pos] ^= 1 << bit
                assert not detsig.verify(vk, m, bytes(blob))
                blob[pos] ^= 1 << bit


class TestSignerStore:
    def test_entry_is_two_key_blobs(self):
        # at L = 24 an entry's secret and verify keys are 1,536 bytes each;
        # the keypair object, its node key and the dict slot take the rest
        _, sk = detsig.setup(40, 16, make_rng(40), digest_bits=24)
        messages = [int(m) for m in make_rng(41).integers(0, 1 << 40, 64)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in messages:
                detsig.sign(sk, m)
                if len(sk._cache) >= 3000:
                    break
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sk._cache) >= 3000
        assert held / len(sk._cache) <= 3600


class TestVerifierStore:
    def test_entry_is_link_bytes(self):
        # at n = 16 and L = 24 a link is 3,840 bytes and a leaf check 770;
        # an entry holds those bytes, its node key and its dict slot, and
        # no copy of the parent key (1,536 bytes more)
        vk, sk = detsig.setup(16, 16, make_rng(42), digest_bits=24)
        messages = [int(m) for m in make_rng(43).choice(1 << 16, 48, replace=False)]
        blobs = [detsig.sign(sk, m).to_bytes() for m in messages]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert all(detsig.verify(vk, m, b) for m, b in zip(messages, blobs))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(vk._verified) <= 4000


def _flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit >> 3] ^= 1 << (bit & 7)
    return bytes(out)


def _with_link(sig, t, link):
    links = list(sig.links)
    links[t] = link
    return detsig.TreeSignature(tuple(links), sig.y, sig.isig)


class TestVerifiedLinkStore:
    """Reuse of links that already passed must never change a verdict."""

    def _warm(self, seed, messages, n=4, digest_bits=24):
        vk, sk = detsig.setup(n, 16, make_rng(seed), digest_bits=digest_bits)
        sigs = {m: detsig.sign(sk, m) for m in messages}
        for m, sig in sigs.items():
            assert detsig.verify(vk, m, sig)
        return vk, sk, sigs

    def test_link_moved_to_another_node_rejected(self):
        vk, _, sigs = self._warm(20, (0b0011, 0b1011))
        a, b = sigs[0b0011], sigs[0b1011]
        before = dict(vk._verified)
        for t in range(1, 4):
            # same depth, other subtree: the moved link is stored, but at its
            # own node and under its own parent key
            moved = _with_link(a, t, b.links[t])
            assert not detsig.verify(vk, 0b0011, moved)
            assert not detsig.verify(vk, 0b0011, moved.to_bytes())
        assert vk._verified == before

    def test_link_under_replaced_parent_key_rejected(self):
        # at digest width 4 a child key that passes its parent's check is
        # cheap to find; the next link is then honest and stored, but was
        # verified under the honest parent key, not this one
        m = 0b1010
        vk, _, sigs = self._warm(21, (m,), digest_bits=4)
        sig = sigs[m]
        before = dict(vk._verified)
        pl0, pl1, sigpl = sig.links[0]
        rng = make_rng(22)
        while True:
            fake = rng.bytes(len(pl1))
            if ots_verify(vk.vk_root, pl0 + fake, sigpl, vk.digest_bits):
                break
        forged = _with_link(sig, 0, (pl0, fake, sigpl))
        assert not detsig.verify(vk, m, forged)
        assert vk._verified == before
        assert detsig.verify(vk, m, sig)

    def test_signature_under_second_key_rejected(self):
        messages = (3, 9, 12)
        vk1, _, sigs1 = self._warm(23, messages)
        vk2, _, sigs2 = self._warm(24, messages)
        before1, before2 = dict(vk1._verified), dict(vk2._verified)
        for m in messages:
            assert not detsig.verify(vk1, m, sigs2[m])
            assert not detsig.verify(vk2, m, sigs1[m].to_bytes())
        assert vk1._verified == before1
        assert vk2._verified == before2

    def test_rejected_link_never_stored(self):
        vk, sk = detsig.setup(4, 16, make_rng(25))
        m = 6
        blob = detsig.sign(sk, m).to_bytes()
        step = 2 * ots_vk_len(vk.digest_bits) + ots_sig_len(vk.digest_bits)
        for t in range(4):
            tampered = _flip(blob, 8 * (t * step + 7))
            assert not detsig.verify(vk, m, tampered)
            stored = set(vk._verified.values())
            assert tampered[t * step : (t + 1) * step] not in stored
        assert detsig.verify(vk, m, blob)

    def test_verdicts_independent_of_history(self):
        vk, sk = detsig.setup(4, 16, make_rng(26))
        sigs = {m: detsig.sign(sk, m) for m in (1, 6, 10, 15)}
        blobs = {m: sig.to_bytes() for m, sig in sigs.items()}
        last = len(blobs[1]) * 8 - 1
        cases = [
            (1, _flip(blobs[1], last)),            # rejected before ...
            (1, blobs[1]),                         # ... an acceptance ...
            (1, _flip(blobs[1], 3)),               # ... and after it
            (6, sigs[6]),
            (6 ^ 1, sigs[6]),
            (10, _with_link(sigs[10], 2, sigs[15].links[2])),
            (10, blobs[10]),
            (15, blobs[15]),
            (15, _flip(blobs[15], 8 * 4000)),
            (10, blobs[15]),
        ]
        want = [False, True, False, True, False, False, True, True, False, False]
        fresh = [detsig.verify(dataclasses.replace(vk), m, s) for m, s in cases]
        assert fresh == want

        other_vk, _, _ = self._warm(27, (1, 6, 10, 15))
        other_before = dict(other_vk._verified)
        warm = dataclasses.replace(vk)
        assert warm == vk and not warm._verified
        for order in (cases, cases[::-1], cases):
            got = [detsig.verify(warm, m, s) for m, s in order]
            assert got == (want if order is cases else want[::-1])
        assert warm._verified
        assert other_vk._verified == other_before

    def test_store_bounded_by_cap(self, monkeypatch):
        monkeypatch.setattr(detsig, "STORE_CAP", 6)
        vk, sk = detsig.setup(4, 16, make_rng(28), digest_bits=8)
        blobs = [detsig.sign(sk, m).to_bytes() for m in range(16)]
        for m, blob in enumerate(blobs):
            assert detsig.verify(vk, m, blob)
            assert len(vk._verified) <= 6
        assert len(vk._verified) == 6
        for m, blob in enumerate(blobs):
            assert detsig.verify(vk, m, blob)
            assert not detsig.verify(vk, m, _flip(blob, 8 * len(blob) - 1))
            assert not detsig.verify(vk, m, _flip(blob, 0))
        assert len(vk._verified) == 6


class TestVerifyWork:
    """Hash and one-time-check counts of verify; they do not depend on the
    hardware. A warm store confirms honest links without hashing, and a
    tampered link costs one ots_verify that stops at its first bad preimage;
    on a stored link with its message intact, that preimage is checked
    first."""

    n, digest_bits, tag_bits = 4, 24, 16

    @pytest.fixture
    def counted(self, monkeypatch):
        hashed, checks = [], []
        real_sha, real_check = hashes.sha256, detsig.ots_verify

        def sha256(data):
            hashed.append(data)
            return real_sha(data)

        def ots_verify(*args, **kwargs):
            checks.append(args)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(hashes, "sha256", sha256)
        monkeypatch.setattr(ots_module, "sha256", sha256)
        monkeypatch.setattr(detsig, "ots_verify", ots_verify)
        return hashed, checks

    def _layout(self):
        vk_len, sig_len = ots_vk_len(self.digest_bits), ots_sig_len(self.digest_bits)
        step = 2 * vk_len + sig_len
        # (offset, message length) of link t's check; t = n is the leaf
        return [(t * step, 2 * vk_len) for t in range(self.n)] + \
            [(self.n * step, self.tag_bits // 8)]

    def _first_bad(self, message, tampered_message):
        # the first position whose digest bit changed
        old = int.from_bytes(hashlib.sha256(message).digest(), "big")
        new = int.from_bytes(hashlib.sha256(tampered_message).digest(), "big")
        return min(i for i in range(self.digest_bits)
                   if (old ^ new) >> (255 - i) & 1)

    def test_warm_honest_verify_hashes_nothing(self, counted):
        hashed, checks = counted
        vk, sk = detsig.setup(self.n, self.tag_bits, make_rng(30),
                              digest_bits=self.digest_bits)
        for m in (5, 12):
            sig = detsig.sign(sk, m)
            assert detsig.verify(vk, m, sig)
            hashed.clear()
            checks.clear()
            assert detsig.verify(vk, m, sig.to_bytes())
            assert detsig.verify(vk, m, sig)
            assert (len(hashed), len(checks)) == (0, 0)

    def test_one_flipped_bit_costs_one_check_on_its_link(self, counted):
        hashed, checks = counted
        vk, sk = detsig.setup(self.n, self.tag_bits, make_rng(31),
                              digest_bits=self.digest_bits)
        m = 0b0110
        blob = detsig.sign(sk, m).to_bytes()
        assert detsig.verify(vk, m, blob)
        vk_len = ots_vk_len(self.digest_bits)
        parents = [vk.vk_root] + [
            blob[off + (m >> (self.n - 1 - t) & 1) * vk_len:][:vk_len]
            for t, (off, _) in enumerate(self._layout()[:-1])]
        before = dict(vk._verified)
        for t, (off, msg_len) in enumerate(self._layout()):
            end = off + msg_len + ots_sig_len(self.digest_bits)
            # a flip in the signed message, then one in preimages 0, 9, L - 1
            for byte, preimage in ((off + msg_len // 2, None),
                                   (off + msg_len, 0),
                                   (off + msg_len + 32 * 9 + 5, 9),
                                   (end - 1, self.digest_bits - 1)):
                tampered = _flip(blob, 8 * byte + 3)
                hashed.clear()
                checks.clear()
                assert not detsig.verify(vk, m, tampered)
                assert len(checks) == 1
                parent, message, sig, width, first = checks[0]
                assert parent == parents[t]
                assert message + sig == tampered[off:end]
                assert width == self.digest_bits
                if preimage is None:
                    # the stored link's message differs: checks in order
                    first_bad = self._first_bad(blob[off : off + msg_len],
                                                message)
                    assert first == 0
                    assert len(hashed) == 1 + first_bad + 1
                else:
                    # the message, then the flipped preimage, checked first
                    assert first == preimage
                    assert len(hashed) == 2
        assert vk._verified == before

    @pytest.mark.parametrize("digest_bits", (1, 8, 24))
    def test_first_preimage_matches_binary_search_reference(self, counted,
                                                            digest_bits):
        # on a warm store, a flip in the first or last byte of any preimage,
        # or in the message, reaches ots_verify with the first preimage the
        # reference binary search finds; a last-byte flip pins the byte
        # index. A message flip may keep a short digest, so only its first
        # check is read
        _, checks = counted
        n, L = self.n, digest_bits
        vk, sk = detsig.setup(n, self.tag_bits, make_rng(34), digest_bits=L)
        m = 0b0110
        blob = detsig.sign(sk, m).to_bytes()
        assert detsig.verify(vk, m, blob)
        stored = dict(vk._verified)
        vk_len, sig_len = ots_vk_len(L), ots_sig_len(L)
        step = 2 * vk_len + sig_len
        for t in range(n + 1):
            off = t * step
            msg_len = 2 * vk_len if t < n else self.tag_bits // 8
            link = stored[(m | 1 << n) >> (n - t)]
            preimages = off + msg_len
            for byte in (off + msg_len // 2,
                         *(preimages + 32 * i + edge
                           for i in range(L) for edge in (0, 31))):
                tampered = _flip(blob, 8 * byte + 3)
                checks.clear()
                verdict = detsig.verify(vk, m, tampered)
                want = first_departure(tampered, off, link, msg_len, L)
                assert checks[0][4] == want
                if byte >= preimages:
                    assert (verdict, len(checks)) == (False, 1)
                    assert want == (byte - preimages) // 32
                else:
                    assert want == 0
        assert vk._verified == stored

    def test_flipped_preimage_checked_first_only_on_a_stored_link(self, counted):
        hashed, checks = counted
        vk, sk = detsig.setup(self.n, self.tag_bits, make_rng(33),
                              digest_bits=self.digest_bits)
        m = 0b1001
        blob = detsig.sign(sk, m).to_bytes()
        warm = dataclasses.replace(vk)
        assert detsig.verify(warm, m, blob)
        # a level above the tampered one costs 1 + L hashes on a fresh key
        honest_level = 1 + self.digest_bits
        for t, (off, msg_len) in enumerate(self._layout()):
            for i in range(self.digest_bits):
                tampered = _flip(blob, 8 * (off + msg_len + 32 * i) + 5)
                for key, want in ((warm, 2),
                                  (dataclasses.replace(vk),
                                   t * honest_level + 1 + i + 1)):
                    hashed.clear()
                    checks.clear()
                    assert not detsig.verify(key, m, tampered)
                    assert len(hashed) == want, (t, i, key is warm)

    def test_tamper_sweep_work_count(self, counted):
        # criterion 5's sweep at n = 4 and digest width 8 on one fresh key:
        # the honest signature, every message flip, then every signature
        # bit flip. At width 8 some flips keep their message's digest in a
        # byte no later check reads, so they are accepted (TestTamperRule);
        # past such a flip the call no longer reads the store, and each
        # later level runs ots_verify.
        hashed, checks = counted
        vk, sk = detsig.setup(self.n, self.tag_bits, make_rng(207),
                              digest_bits=8)
        m = 0xB
        blob = bytearray(detsig.sign(sk, m).to_bytes())
        hashed.clear()
        checks.clear()
        assert detsig.verify(vk, m, bytes(blob))
        assert not any(detsig.verify(vk, m ^ (1 << bit), bytes(blob))
                       for bit in range(self.n))
        accepted = 0
        for pos in range(len(blob)):
            byte = blob[pos]
            for bit in range(8):
                blob[pos] = byte ^ (1 << bit)
                accepted += detsig.verify(vk, m, bytes(blob))
            blob[pos] = byte
        assert (len(hashed), len(checks), accepted) == (121_056, 43_318, 99)


@functools.cache
def _tamper_fixture():
    vk, sk = detsig.setup(4, 16, make_rng(32), digest_bits=24)
    blobs = [detsig.sign(sk, m).to_bytes() for m in range(16)]
    warm = dataclasses.replace(vk)
    assert all(detsig.verify(warm, m, blob) for m, blob in enumerate(blobs))
    return vk, blobs, dict(warm._verified)


_SIG_BITS = 8 * detsig.signature_len(4, 24, 16)


class TestTamperProperty:
    """One flipped bit anywhere in a signature is rejected, whatever the
    store holds, and leaves nothing in the store that an honest signature
    would not put there."""

    @given(m=st.integers(0, 15), bit=st.integers(0, _SIG_BITS - 1))
    def test_cold_store(self, m, bit):
        vk, blobs, honest = _tamper_fixture()
        cold = dataclasses.replace(vk)
        assert not detsig.verify(cold, m, _flip(blobs[m], bit))
        # links before the flipped one pass and may be stored; only those
        assert cold._verified.items() <= honest.items()
        assert detsig.verify(cold, m, blobs[m])

    @given(m=st.integers(0, 15), bit=st.integers(0, _SIG_BITS - 1))
    def test_warm_store(self, m, bit):
        vk, blobs, honest = _tamper_fixture()
        warm = dataclasses.replace(vk)
        for other, blob in enumerate(blobs):
            assert detsig.verify(warm, other, blob)
        assert warm._verified == honest
        assert not detsig.verify(warm, m, _flip(blobs[m], bit))
        assert warm._verified == honest
        assert detsig.verify(warm, m, blobs[m])


def _digest_kept_flips(blob, m, n, L, tag_len):
    """Every single-bit flip (as a bit index into blob) that lies in a
    signed message and keeps that message's first L SHA-256 bits, mapped to
    whether a later check reads the flipped byte. Worked out on slices of
    the blob with hashlib alone.

    The signed messages are link t's two child keys and, last, the tag y.
    Only m's on-path child key in link t is read again, by the next check,
    as the parent key over the next message: one entry (b, i) per position
    i, where b is bit i of the next message's digest."""
    vk_len, sig_len = 64 * L, 32 * L
    step = 2 * vk_len + sig_len
    spans = [(t * step, 2 * vk_len) for t in range(n)] + [(n * step, tag_len)]

    def digest(message):
        return int.from_bytes(hashlib.sha256(message).digest(), "big")

    kept = {}
    for t, (off, length) in enumerate(spans):
        message = bytearray(blob[off : off + length])
        top = digest(message) >> (256 - L)
        if t < n:
            side = m >> (n - 1 - t) & 1
            next_off, next_len = spans[t + 1]
            next_digest = digest(blob[next_off : next_off + next_len])
        for pos in range(length):
            read = False
            if t < n and pos // vk_len == side:
                b, i = divmod(pos % vk_len // 32, L)
                read = b == next_digest >> (255 - i) & 1
            for bit in range(8):
                message[pos] ^= 1 << bit
                if digest(message) >> (256 - L) == top:
                    kept[8 * (off + pos) + bit] = read
                message[pos] ^= 1 << bit
    return kept


class TestTamperRule:
    """Which single-bit flips verify accepts, exactly: a flip in a signed
    message (a link's two child keys, or y) that keeps the message's first
    L digest bits, in a byte that no later check reads (an off-path child
    key, y, or an on-path child key's entry (b, i) where b differs from bit
    i of the next message's digest). Every other flip is rejected."""

    @pytest.mark.parametrize("n, L, tag_bits, seed, accepted, read", [
        (2, 4, 8, 50, 415, 121),
        (3, 4, 16, 51, 583, 196),
        (4, 3, 8, 52, 1136, 408),
        (2, 8, 8, 53, 47, 15),
    ])
    def test_every_flip(self, n, L, tag_bits, seed, accepted, read):
        vk, sk = detsig.setup(n, tag_bits, make_rng(seed), digest_bits=L)
        m = (1 << n) - 2
        blob = detsig.sign(sk, m).to_bytes()
        assert detsig.verify(vk, m, blob)
        kept = _digest_kept_flips(blob, m, n, L, tag_bits // 8)
        want = {bit for bit, later in kept.items() if not later}
        got = {bit for bit in range(8 * len(blob))
               if detsig.verify(vk, m, _flip(blob, bit))}
        assert got == want
        # kept digests that verify still rejects: the rule's third clause
        # is needed
        assert (len(got), len(kept) - len(want)) == (accepted, read)


class TestSeed2KeptDigestFlips:
    """The two flips that perfbench's tamper-sweep draws at seed 2 and
    counts as required rejections (operations 1,674,618 and 2,544,251). Each
    meets TestTamperRule's three clauses, so the signature stays valid and
    verify accepts it, on a cold key and on a warm one. The workload's
    expectation is wrong there, not verify."""

    @pytest.mark.parametrize("j, bit, m, t, byte, prefix, on_path", [
        (5, 130_644, 0x11C5, 4, 970, "7f43d0", True),
        (31, 448_751, 0x90A5, 14, 2_333, "b8876c", False),
    ])
    def test_flip_verifies(self, j, bit, m, t, byte, prefix, on_path):
        # the workload's set-up at seed 2
        rng = make_rng(2)
        vk, sk = detsig.setup(16, 16, rng, digest_bits=24)
        assert int(rng.choice(1 << 16, size=32, replace=False)[j]) == m
        blob = detsig.sign(sk, m).to_bytes()
        flipped = _flip(blob, bit)
        vk_len, sig_len = ots_vk_len(24), ots_sig_len(24)
        step = 2 * vk_len + sig_len
        assert divmod(bit >> 3, step) == (t, byte)
        # 1. the flip lies in link t's signed message, its two child keys
        off = t * step
        assert byte < 2 * vk_len
        # 2. the message keeps its first 24 digest bits
        for signed in (blob, flipped):
            assert hashlib.sha256(signed[off : off + 2 * vk_len]).hexdigest()[:6] == prefix
        # 3. no later check reads the byte: it is in the off-path child key,
        # or in entry (b, i) of the on-path one with b not the next
        # message's digest bit i
        assert (byte // vk_len == m >> (15 - t) & 1) == on_path
        if on_path:
            b, i = divmod(byte % vk_len // 32, 24)
            nxt = hashlib.sha256(blob[off + step : off + step + 2 * vk_len]).digest()
            assert b != int.from_bytes(nxt, "big") >> (255 - i) & 1
        assert detsig.verify(dataclasses.replace(vk), m, flipped)
        warm = dataclasses.replace(vk)
        assert detsig.verify(warm, m, blob)
        assert detsig.verify(warm, m, flipped)


@functools.cache
def _store_rule_fixture():
    # at digest width 4 one flipped bit in a signed message passes with
    # probability 1/16, and a child key that passes its parent's check is
    # cheap to find, so different links that pass meet occupied slots. The
    # forgery replaces m's on-path key below the root, as in
    # test_link_under_replaced_parent_key_rejected, by a key of our own and
    # signs the next link with it: it passes at every level
    vk, sk = detsig.setup(4, 16, make_rng(40), digest_bits=4)
    sigs = [detsig.sign(sk, m) for m in range(16)]
    m = 0b1010
    pl0, _, sigpl = sigs[m].links[0]
    rng = make_rng(41)
    while True:
        own = ots_setup_from_seed(4, rng.bytes(32))
        if ots_verify(vk.vk_root, pl0 + own.vk, sigpl, 4):
            break
    c0, c1, _ = sigs[m].links[1]
    forged = _with_link(_with_link(sigs[m], 0, (pl0, own.vk, sigpl)),
                        1, (c0, c1, ots_sign(own, c0 + c1)))
    return vk, sigs, (m, forged)


_STORE_OPS = st.lists(st.tuples(
    st.sampled_from(("honest", "flip", "moved", "message", "forged")),
    st.integers(0, 15), st.integers(0, 8 * detsig.signature_len(4, 4, 16) - 1)),
    max_size=12)


def _store_case(sigs, forged, kind, m, x):
    if kind == "honest":
        return m, sigs[m]
    if kind == "flip":
        return m, _flip(sigs[m].to_bytes(), x)
    if kind == "moved":
        t, other = x % 4, x // 4 % 16
        return m, _with_link(sigs[m], t, sigs[other].links[t])
    if kind == "message":
        return m ^ 1 << x % 4, sigs[m]
    return forged


class TestStoreRule:
    """Entries are write-once, and each stored link passes its check under
    the on-path child key in its parent node's stored link, whatever mix of
    honest, tampered and forged signatures the key has seen."""

    @given(ops=_STORE_OPS)
    def test_store_stays_chained(self, ops):
        vk, sigs, forged = _store_rule_fixture()
        vk = dataclasses.replace(vk)
        L, n = vk.digest_bits, vk.n
        vk_len = ots_vk_len(L)
        for op in ops:
            m, sig = _store_case(sigs, forged, *op)
            before = dict(vk._verified)
            got = detsig.verify(vk, m, sig)
            assert got == detsig.verify(dataclasses.replace(vk), m, sig)
            store = vk._verified
            assert before.items() <= store.items()
            for node, link in store.items():
                # a node's parent node is node >> 1, and its bit picks the
                # on-path child key in that node's link
                if node == 1:
                    parent = vk.vk_root
                else:
                    above = store.get(node >> 1)
                    assert above is not None
                    side = node & 1
                    parent = above[side * vk_len : (side + 1) * vk_len]
                # a link signs its two child keys; the leaf check signs y
                split = 2 * vk_len if node.bit_length() <= n else vk.tag_bits // 8
                assert ots_verify(parent, link[:split], link[split:], L)

