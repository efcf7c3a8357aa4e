"""Tree signatures: round trips, determinism, chain soundness against a
key-derivation oracle, tamper rejection, and the toy plus-one game."""

import dataclasses
import hashlib

import pytest

from unclonelab import detsig
from unclonelab.hilbert import HybridState
from unclonelab.primitives import ots_setup_from_seed, ots_sig_len, ots_verify, ots_vk_len, pprf_eval
from unclonelab.rng import make_rng

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
        path = [(t, (m >> (40 - t)) ^ side) for t in range(1, 41) for side in (0, 1)]
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
                    assert ots_setup_from_seed(8, seed).vk_bytes() == pl

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
        pl0, pl1, sigpl = sig.links[0]
        rng = make_rng(22)
        while True:
            fake = rng.bytes(len(pl1))
            if ots_verify(vk.vk_root, pl0 + fake, sigpl, vk.digest_bits):
                break
        forged = _with_link(sig, 0, (pl0, fake, sigpl))
        assert not detsig.verify(vk, m, forged)
        assert (fake, b"".join(sig.links[1])) not in vk._verified.values()
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
            stored = {link for _, link in vk._verified.values()}
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


def _honest_pairs(oracle, messages):
    return [(m, oracle.query_classical(m)) for m in messages]


class TestPlusOneGame:
    def test_forwarder_duplicate_message_loses(self):
        def adversary(vk, oracle, rng):
            state = oracle.fresh_register(2)
            signed = oracle.query(state)
            (m, w), _ = signed.measure_labels(rng)
            return [(m, w), (m, w)]

        assert not detsig.bz_game_harness(adversary, 1, make_rng(11))

    def test_classical_replay_never_wins(self):
        def adversary(vk, oracle, rng):
            pairs = _honest_pairs(oracle, [3])
            forged = bytes(rng.bytes(oracle.sig_bytes))
            m2 = int(rng.integers(8))
            return pairs + [(m2, forged)]

        wins = sum(
            detsig.bz_game_harness(adversary, 1, make_rng(12_000 + i))
            for i in range(1000)
        )
        assert wins == 0

    def test_honest_with_extra_budget_wins(self):
        def adversary(vk, oracle, rng):
            return _honest_pairs(oracle, [0, 1, 2])

        assert detsig.bz_game_harness(adversary, 2, make_rng(13), query_budget=3)

    def test_wrong_pair_count_loses(self):
        def adversary(vk, oracle, rng):
            return _honest_pairs(oracle, [0, 1])

        assert not detsig.bz_game_harness(adversary, 2, make_rng(14), query_budget=3)

    def test_budget_enforced(self):
        def adversary(vk, oracle, rng):
            return _honest_pairs(oracle, [0, 1, 2])

        with pytest.raises(detsig.QueryBudgetExceeded):
            detsig.bz_game_harness(adversary, 2, make_rng(15))

    def test_superposition_query_signs_every_branch(self):
        rng = make_rng(16)
        _, sk = detsig.setup(3, 8, rng, digest_bits=4)
        oracle = detsig.SigningOracle(sk, budget=1)
        zero = bytes(oracle.sig_bytes)
        state = HybridState.from_terms(
            0, [((m, zero), 0.5, None) for m in range(4)]
        )
        signed = oracle.query(state)
        assert signed.num_branches() == 4
        for m in range(4):
            (got_m, w), _ = signed.measure_labels(make_rng(100 + m))
            assert w == detsig.sign(sk, got_m).to_bytes()
        assert oracle.queries == 1
