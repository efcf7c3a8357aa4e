"""Compiler, role-swap, and game-harness tests.

Oracle strategy: the re-encryption branch table is checked against a
straight-line reimplementation written here from the mode/tag rules,
exhaustively over mode x tag-order x 16 random (message, PRF key)
draws. Round trips are checked for every message and key at the
default width. Game outcomes are checked against hand-computed
eigenvalues: a decoder that is always right has test eigenvalue
exactly 1, a blind guesser in the balanced distinguishing test sits at
exactly 1/2, and the junk adversary's search success rate is
|M|^-(q+1) by independence.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers import peak_traced_bytes

from unclonelab.hilbert.states import StateVector
from unclonelab.minischeme import accept_probability, subspace_from_sn
from unclonelab.primitives.hashes import sha256
from unclonelab.primitives.pprf import (
    pprf_eval,
    pprf_gen,
    pprf_key_from_bytes,
    pprf_key_to_bytes,
)
from unclonelab.rng import make_rng
from unclonelab.sde_ue.compiler import (
    ReInput,
    SdeConfig,
    message_to_bytes,
    re_eval,
    re_input_from_bytes,
    re_input_to_bytes,
    sde_ct_len,
    sde_dec,
    sde_enc,
    sde_kg,
    sde_setup,
)
from unclonelab.sde_ue.games import ADVERSARIES, GAMES, DeskDecryptors, run_game
from unclonelab.sde_ue.mockfe import fe_dec, fe_enc, fe_kg, fe_setup
from unclonelab.sde_ue.onesde import (
    one_ct_len,
    one_dec,
    one_enc,
    one_pk_len,
    one_setup,
    sn_len,
    tag_of_pk,
)
from unclonelab.sde_ue.ue import ue_dec, ue_ekdk_transform, ue_enc, ue_kg

CFG = SdeConfig()


def _prf_point(pk: bytes, input_bits: int = 64) -> int:
    return int.from_bytes(sha256(pk)[:8], "big") >> (64 - input_bits)


def _re_eval(one, x: ReInput) -> bytes:
    return re_eval(one, re_input_to_bytes(x, CFG), CFG)


def _re_oracle(one, x: ReInput) -> bytes:
    """Straight-line branch table, independent of the implementation."""
    key = pprf_key_from_bytes(x.key)
    rand = pprf_eval(key, _prf_point(one.one_pk, key.input_bits))
    zeros = bytes(len(x.m))
    tag_self = one.tag
    tag_other = x.one_pk[:16]
    if x.mode == 0:
        return one_enc(one.one_pk, x.m, rand)
    if x.mode == 1:
        if tag_self <= tag_other:
            return one_enc(one.one_pk, zeros, rand)
        return one_enc(one.one_pk, x.m, rand)
    if x.mode == 2:
        if tag_self < tag_other:
            return one_enc(one.one_pk, zeros, rand)
        if tag_self == tag_other:
            return x.one_ct
        return one_enc(one.one_pk, x.m, rand)
    raise AssertionError("oracle only covers modes 0..2")


class TestMockFe:
    def test_registered_function_applied(self):
        rng = make_rng(10)
        fe = fe_setup(rng)
        fsk = fe_kg(fe, fe.msk, lambda x: x[::-1], b"rev")
        ct = fe_enc(fe, fe.pk, b"abcdef", rng)
        assert fe_dec(fe, fsk, ct) == b"fedcba"

    def test_identity_round_trip(self):
        rng = make_rng(11)
        fe = fe_setup(rng)
        fsk = fe_kg(fe, fe.msk, lambda x: x, b"id")
        for _ in range(20):
            x = rng.bytes(int(rng.integers(0, 60)))
            assert fe_dec(fe, fsk, fe_enc(fe, fe.pk, x, rng)) == x

    def test_handle_deterministic_in_descriptor(self):
        rng = make_rng(12)
        fe = fe_setup(rng)
        h1 = fe_kg(fe, fe.msk, lambda x: x, b"same")
        h2 = fe_kg(fe, fe.msk, lambda x: x + b"!", b"same")
        h3 = fe_kg(fe, fe.msk, lambda x: x, b"other")
        assert h1 == h2
        assert h1 != h3

    def test_foreign_ciphertext_fails(self):
        rng = make_rng(13)
        fe = fe_setup(rng)
        other = fe_setup(rng)
        fsk = fe_kg(fe, fe.msk, lambda x: x, b"id")
        ct = fe_enc(fe, fe.pk, b"payload", rng)
        flipped = ct[:-1] + bytes([ct[-1] ^ 1])
        assert fe_dec(fe, fsk, flipped) is None
        assert fe_dec(fe, fsk, ct[:10]) is None
        assert fe_dec(fe, fsk, fe_enc(other, other.pk, b"payload", rng)) is None
        assert fe_dec(fe, fsk, ct) == b"payload"

    def test_usage_errors(self):
        rng = make_rng(14)
        fe = fe_setup(rng)
        with pytest.raises(ValueError):
            fe_kg(fe, b"wrong", lambda x: x, b"d")
        with pytest.raises(ValueError):
            fe_kg(fe, fe.msk, "not callable", b"d")
        with pytest.raises(ValueError):
            fe_enc(fe, b"wrong", b"x", rng)
        fsk = fe_kg(fe, fe.msk, lambda x: x, b"d")
        with pytest.raises(ValueError):
            fe_dec(fe, b"unknown handle!!", fe_enc(fe, fe.pk, b"x", rng))
        del fsk


class TestMockOne:
    def test_classically_determined(self):
        a = one_setup(8, b"fixed-randomness")
        b = one_setup(8, b"fixed-randomness")
        assert a.one_pk == b.one_pk
        assert a.tag == b.tag
        assert a.one_sk[1] == b.one_sk[1]
        assert np.array_equal(a.one_sk[0].amplitudes, b.one_sk[0].amplitudes)
        c = one_setup(8, b"other-randomness")
        assert c.one_pk != a.one_pk

    def test_round_trip_and_deterministic_ct(self):
        one = one_setup(8, make_rng(20).bytes(32))
        m = b"\x0b"
        r = b"r" * 16
        ct1 = one_enc(one.one_pk, m, r)
        ct2 = one_enc(one.one_pk, m, r)
        assert ct1 == ct2
        assert one_dec(one.one_sk, ct1) == m
        assert len(ct1) == one_ct_len(len(m))

    def test_pk_layout(self):
        one = one_setup(8, make_rng(21).bytes(32))
        assert len(one.one_pk) == one_pk_len(8)
        assert tag_of_pk(one.one_pk) == one.tag
        sn = one.one_pk[32:]  # after the 16-byte tag and the 16-byte token
        assert len(sn) == sn_len(8)
        space = subspace_from_sn(sn)
        assert space.n == 8
        # the embedded note is the banknote of the embedded serial number
        assert accept_probability(sn, one.one_sk[0]) == pytest.approx(1.0, abs=1e-12)

    def test_foreign_ciphertext_fails(self):
        rng = make_rng(24)
        one = one_setup(8, rng.bytes(32))
        other = one_setup(8, rng.bytes(32))
        ct = one_enc(one.one_pk, b"\x07", b"t" * 16)
        flipped = ct[:-1] + bytes([ct[-1] ^ 1])
        assert one_dec(one.one_sk, flipped) is None
        assert one_dec(one.one_sk, ct[:8]) is None
        assert one_dec(one.one_sk, one_enc(other.one_pk, b"\x07", b"t" * 16)) is None

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            one_setup(8, b"short")
        with pytest.raises(ValueError):
            one_setup(7, b"x" * 16)
        one = one_setup(8, b"x" * 16)
        with pytest.raises(ValueError):
            one_enc(one.one_pk, b"\x01", b"short")


class TestReInput:
    def test_round_trip(self):
        rng = make_rng(30)
        for _ in range(10):
            x = ReInput(
                m=bytes(rng.bytes(CFG.msg_len)),
                key=bytes(rng.bytes(35)),
                mode=int(rng.integers(0, 3)),
                one_pk=bytes(rng.bytes(CFG.pk_len)),
                one_ct=bytes(rng.bytes(CFG.inner_ct_len)),
            )
            assert re_input_from_bytes(re_input_to_bytes(x, CFG), CFG) == x

    def test_width_is_the_sum_of_the_fields(self):
        assert CFG.input_len == CFG.msg_len + 35 + 1 + CFG.pk_len + CFG.inner_ct_len

    def test_width_errors(self):
        good = ReInput(bytes(CFG.msg_len), bytes(35), 0, bytes(CFG.pk_len),
                       bytes(CFG.inner_ct_len))
        bad = [
            ReInput(bytes(CFG.msg_len + 1), good.key, 0, good.one_pk, good.one_ct),
            ReInput(good.m, bytes(34), 0, good.one_pk, good.one_ct),
            ReInput(good.m, good.key, 256, good.one_pk, good.one_ct),
            ReInput(good.m, good.key, 0, bytes(CFG.pk_len - 1), good.one_ct),
            ReInput(good.m, good.key, 0, good.one_pk, bytes(1)),
        ]
        for x in bad:
            with pytest.raises(ValueError):
                re_input_to_bytes(x, CFG)
        with pytest.raises(ValueError):
            re_input_from_bytes(bytes(CFG.input_len + 1), CFG)


class TestReModeTable:
    """Exhaustive mode x tag-order x random-draw check against the oracle."""

    def _instances(self):
        lo = one_setup(CFG.mini_n, b"lo-instance-seed")
        hi = one_setup(CFG.mini_n, b"hi-instance-seed")
        if lo.tag > hi.tag:
            lo, hi = hi, lo
        assert lo.tag < hi.tag
        return lo, hi

    def test_matches_oracle_exhaustively(self):
        lo, hi = self._instances()
        rng = make_rng(31)
        cases = 0
        for mode in (0, 1, 2):
            # self < other, self == other, self > other
            for one, pk_other in ((lo, hi.one_pk), (lo, lo.one_pk), (hi, lo.one_pk)):
                for _ in range(16):
                    x = ReInput(
                        m=message_to_bytes(CFG, int(rng.integers(0, 16))),
                        key=pprf_key_to_bytes(pprf_gen(64, 128, rng)),
                        mode=mode,
                        one_pk=pk_other,
                        one_ct=bytes(rng.bytes(CFG.inner_ct_len)),
                    )
                    assert _re_eval(one, x) == _re_oracle(one, x)
                    cases += 1
        assert cases == 3 * 3 * 16

    def test_mode0_ignores_spare_slots(self):
        lo, hi = self._instances()
        rng = make_rng(32)
        key = pprf_key_to_bytes(pprf_gen(64, 128, rng))
        m = message_to_bytes(CFG, 9)
        base = _re_eval(lo, ReInput(m, key, 0, bytes(CFG.pk_len),
                                    bytes(CFG.inner_ct_len)))
        for _ in range(8):
            x = ReInput(m, key, 0, bytes(rng.bytes(CFG.pk_len)),
                        bytes(rng.bytes(CFG.inner_ct_len)))
            assert _re_eval(lo, x) == base
        # and the output decrypts to m under the instance key
        assert one_dec(lo.one_sk, base) == m

    def test_mode2_equal_tags_pass_through(self):
        lo, _ = self._instances()
        key = pprf_key_to_bytes(pprf_gen(64, 128, make_rng(33)))
        marker = b"\xa5" * CFG.inner_ct_len
        x = ReInput(message_to_bytes(CFG, 3), key, 2, lo.one_pk, marker)
        assert _re_eval(lo, x) == marker

    def test_mode1_greater_tag_equals_mode0(self):
        lo, hi = self._instances()
        key = pprf_key_to_bytes(pprf_gen(64, 128, make_rng(34)))
        m = message_to_bytes(CFG, 14)
        x1 = ReInput(m, key, 1, lo.one_pk, bytes(CFG.inner_ct_len))
        x0 = ReInput(m, key, 0, bytes(CFG.pk_len), bytes(CFG.inner_ct_len))
        assert _re_eval(hi, x1) == _re_eval(hi, x0)

    def test_suppressed_branch_encrypts_zeros(self):
        lo, hi = self._instances()
        key = pprf_key_to_bytes(pprf_gen(64, 128, make_rng(35)))
        x = ReInput(message_to_bytes(CFG, 15), key, 1, hi.one_pk,
                    bytes(CFG.inner_ct_len))
        assert one_dec(lo.one_sk, _re_eval(lo, x)) == bytes(CFG.msg_len)

    def test_malformed_mode(self):
        lo, _ = self._instances()
        key = pprf_key_to_bytes(pprf_gen(64, 128, make_rng(37)))
        for mode in (3, 77, 255):
            x = ReInput(bytes(CFG.msg_len), key, mode, bytes(CFG.pk_len),
                        bytes(CFG.inner_ct_len))
            with pytest.raises(ValueError, match="mode"):
                _re_eval(lo, x)

    def test_randomness_is_the_prf_at_the_hashed_pk(self):
        lo, _ = self._instances()
        rng = make_rng(38)
        prf = pprf_gen(64, 128, rng)
        m = message_to_bytes(CFG, 11)
        x = ReInput(m, pprf_key_to_bytes(prf), 0, bytes(CFG.pk_len),
                    bytes(CFG.inner_ct_len))
        expected = one_enc(lo.one_pk, m, pprf_eval(prf, _prf_point(lo.one_pk)))
        assert _re_eval(lo, x) == expected


class TestSde:
    def test_round_trip_all_messages_all_keys(self):
        rng = make_rng(40)
        sde = sde_setup(CFG, rng)
        sks = [sde_kg(sde, sde.msk, rng.bytes(32)) for _ in range(5)]
        for value in range(16):
            ct = sde_enc(sde, sde.pk, value, rng)
            for sk in sks:
                assert sde_dec(sde, sk, ct) == bytes([value])

    def test_distinct_tags_over_100_trials(self):
        rng = make_rng(41)
        seen = set()
        for _ in range(100):
            sde = sde_setup(CFG, rng)
            a = sde_kg(sde, sde.msk, rng.bytes(32))
            b = sde_kg(sde, sde.msk, rng.bytes(32))
            assert a.tag != b.tag
            seen.add(a.tag)
            seen.add(b.tag)
        assert len(seen) == 200

    def test_any_key_decrypts_any_honest_ciphertext(self):
        rng = make_rng(42)
        sde = sde_setup(CFG, rng)
        sk_i = sde_kg(sde, sde.msk, rng.bytes(32))
        sk_j = sde_kg(sde, sde.msk, rng.bytes(32))
        ct = sde_enc(sde, sde.pk, 12, rng)
        assert sde_dec(sde, sk_i, ct) == sde_dec(sde, sk_j, ct) == bytes([12])

    def test_foreign_ciphertexts_fail(self):
        rng = make_rng(43)
        sde = sde_setup(CFG, rng)
        other = sde_setup(CFG, rng)
        sk = sde_kg(sde, sde.msk, rng.bytes(32))
        ct = sde_enc(sde, sde.pk, 5, rng)
        assert sde_dec(sde, sk, bytes(sde_ct_len(sde.config))) is None
        assert sde_dec(sde, sk, ct[:-3]) is None
        assert sde_dec(sde, sk, sde_enc(other, other.pk, 5, rng)) is None
        assert sde_dec(sde, sk, ct) == bytes([5])

    def test_key_generation_classically_determined(self):
        rng = make_rng(44)
        sde = sde_setup(CFG, rng)
        a = sde_kg(sde, sde.msk, b"kg-seed-000000000000")
        b = sde_kg(sde, sde.msk, b"kg-seed-000000000000")
        assert a.fsk == b.fsk
        assert a.one_pk == b.one_pk
        assert np.array_equal(a.one_sk[0].amplitudes, b.one_sk[0].amplitudes)

    def test_key_fields(self):
        rng = make_rng(45)
        sde = sde_setup(CFG, rng)
        sk = sde_kg(sde, sde.msk, rng.bytes(32))
        assert tag_of_pk(sk.one_pk) == sk.tag
        note = sk.one_sk[0]
        assert isinstance(note, StateVector)
        assert note.num_qubits == sde.config.mini_n
        assert np.isclose(np.linalg.norm(note.amplitudes), 1.0)

    def test_message_normalization(self):
        rng = make_rng(46)
        sde = sde_setup(CFG, rng)
        sk = sde_kg(sde, sde.msk, rng.bytes(32))
        ct = sde_enc(sde, sde.pk, b"\x0f", rng)
        assert sde_dec(sde, sk, ct) == b"\x0f"
        with pytest.raises(ValueError):
            sde_enc(sde, sde.pk, 16, rng)
        with pytest.raises(ValueError):
            sde_enc(sde, sde.pk, b"\x10", rng)
        with pytest.raises(ValueError):
            sde_enc(sde, sde.pk, b"\x00\x00", rng)
        with pytest.raises(ValueError):
            sde_enc(sde, sde.pk, 1.5, rng)
        with pytest.raises(ValueError):
            sde_enc(sde, sde.pk, bytearray(b"\x0f"), rng)

    def test_usage_errors(self):
        rng = make_rng(47)
        sde = sde_setup(CFG, rng)
        with pytest.raises(ValueError):
            sde_kg(sde, b"wrong-msk", rng.bytes(32))
        with pytest.raises(ValueError):
            sde_setup(CFG, None)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SdeConfig(message_bits=0)
        with pytest.raises(ValueError):
            SdeConfig(message_bits=17)


class TestUe:
    def test_round_trip_100(self):
        rng = make_rng(50)
        sde = sde_setup(CFG, rng)
        keys = ue_kg(sde, rng)
        for _ in range(100):
            value = int(rng.integers(0, 16))
            ct = ue_enc(sde, keys.ek, value, rng.bytes(32))
            assert ue_dec(sde, keys.dk, ct) == bytes([value])

    def test_pad_length_matches_message_length(self):
        rng = make_rng(51)
        sde = sde_setup(CFG, rng)
        keys = ue_kg(sde, rng)
        msk, s = keys.ek
        assert msk == sde.msk
        assert len(s) == sde.config.msg_len

    def test_decryption_key_is_a_ciphertext_of_the_pad(self):
        rng = make_rng(52)
        sde = sde_setup(CFG, rng)
        keys = ue_kg(sde, rng)
        ct = ue_enc(sde, keys.ek, 7, rng.bytes(32))
        # the shipped instance opens the key ciphertext to the pad, and
        # the mask cancels: m = (m xor s) xor s
        s = sde_dec(sde, ct.sde_sk, keys.dk)
        assert s == keys.ek[1]
        assert bytes(a ^ b for a, b in zip(ct.masked, s)) == bytes([7])

    def test_enc_classically_determined(self):
        rng = make_rng(53)
        sde = sde_setup(CFG, rng)
        keys = ue_kg(sde, rng)
        r = b"shared-kg-randomness-0000"
        a = ue_enc(sde, keys.ek, 3, r)
        b = ue_enc(sde, keys.ek, 3, r)
        assert a.masked == b.masked
        assert a.sde_sk.fsk == b.sde_sk.fsk
        assert a.sde_sk.one_pk == b.sde_sk.one_pk
        assert np.array_equal(a.sde_sk.one_sk[0].amplitudes,
                              b.sde_sk.one_sk[0].amplitudes)
        c = ue_enc(sde, keys.ek, 3, b"different-randomness-0000")
        assert c.sde_sk.one_pk != a.sde_sk.one_pk

    def test_wrong_key_ciphertext_fails(self):
        rng = make_rng(54)
        sde = sde_setup(CFG, rng)
        keys = ue_kg(sde, rng)
        ct = ue_enc(sde, keys.ek, 7, rng.bytes(32))
        assert ue_dec(sde, bytes(len(keys.dk)), ct) is None


class TestEkdkWrapper:
    def test_keys_identical(self):
        rng = make_rng(60)
        sde = sde_setup(CFG, rng)
        wrapper = ue_ekdk_transform(sde)
        for _ in range(5):
            ek, dk = wrapper.kg(rng)
            assert ek == dk
            assert len(ek) == sde_ct_len(sde.config)

    def test_round_trip_100(self):
        rng = make_rng(61)
        sde = sde_setup(CFG, rng)
        wrapper = ue_ekdk_transform(sde)
        ek, dk = wrapper.kg(rng)
        for _ in range(100):
            value = int(rng.integers(0, 16))
            ct = wrapper.enc(ek, value, rng)
            assert wrapper.dec(dk, ct) == bytes([value])

    def test_wrong_pad_fails(self):
        rng = make_rng(62)
        sde = sde_setup(CFG, rng)
        wrapper = ue_ekdk_transform(sde)
        ek, dk = wrapper.kg(rng)
        ct = wrapper.enc(ek, 4, rng)
        wrong = bytes([dk[0] ^ 1]) + dk[1:]
        assert wrapper.dec(wrong, ct) is None
        with pytest.raises(ValueError):
            wrapper.dec(dk[:-1], ct)
        with pytest.raises(ValueError):
            wrapper.enc(ek[:-1], 4, rng)


class TestGameOutcomes:
    def test_honest_forwarder_distinguishing(self):
        # q key-holders sit at eigenvalue exactly 1, the blind guesser at
        # exactly 1/2, so the bits are deterministic for every gamma
        for gamma in (0.01, 0.25, 0.5):
            report = run_game("strong-anti-piracy", "honest-forwarder", 2,
                              gamma, make_rng(70))
            assert report["test_bits"] == [1, 1, 0]
            assert report["game_bit"] == 0

    def test_perfect_decryptors_distinguishing(self):
        report = run_game("strong-anti-piracy", "perfect-decryptors", 2, 0.5,
                          make_rng(71))
        assert report["test_bits"] == [1, 1, 1]
        assert report["game_bit"] == 1

    def test_honest_forwarder_search(self):
        report = run_game("strong-search", "honest-forwarder", 2, 0.1,
                          make_rng(72))
        assert report["test_bits"][:2] == [1, 1]

    @pytest.mark.parametrize("game", ("strong-anti-piracy", "strong-search"))
    def test_challenge_memory_flat_in_samples(self, game):
        # each challenge's indicator row is added as it is drawn, so 16x the
        # samples holds no more; keeping every row would add ~27 KB at 128
        def peak(samples):
            return peak_traced_bytes(lambda: run_game(
                game, "ghz-guessers", 2, 0.1, make_rng(73),
                challenge_samples=samples))[1]

        peak(8)  # first-call allocations
        assert peak(128) - peak(8) <= 4096

    def test_identical_challenge_perfect(self):
        # a shared classical key makes q+1 perfect decryptors: the mock
        # world offers no security, only wiring
        report = run_game("identical-challenge", "perfect-decryptors", 2, 0.1,
                          make_rng(73), trials=20)
        assert report["success_rate"] == 1.0
        assert report["test_bits"] == [1, 1, 1]

    def test_multi_challenge_junk_rate(self):
        trials = 3000
        report = run_game("multi-challenge-ue", "junk", 2, 0.1, make_rng(74),
                          trials=trials)
        p = (1 / 16) ** 3
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(report["success_rate"] - p) <= 4 * sigma
        assert report["stderr"] <= 4 * sigma

    def test_multi_copy_honest_forwarder(self):
        report = run_game("multi-copy-ue", "honest-forwarder", 2, 0.1,
                          make_rng(75))
        assert report["test_bits"] == [1, 1, 0]
        assert report["game_bit"] == 0

    def test_multi_challenge_perfect(self):
        report = run_game("multi-challenge-ue", "perfect-decryptors", 2, 0.1,
                          make_rng(76), trials=10)
        assert report["success_rate"] == 1.0

    def test_ghz_answers_agree(self):
        # entangled guessers answer identically: the collapse after the
        # first register's measurement fixes the rest
        for seed in range(40):
            report = run_game("identical-challenge", "ghz-guessers", 2, 0.1,
                              make_rng(600 + seed))
            bits = report["test_bits"]
            assert bits[0] == bits[1] == bits[2]

    def test_report_deterministic_per_seed(self):
        a = run_game("strong-anti-piracy", "honest-forwarder", 1, 0.2,
                     make_rng(77), trials=2)
        b = run_game("strong-anti-piracy", "honest-forwarder", 1, 0.2,
                     make_rng(77), trials=2)
        assert a == b

    def test_report_fields(self):
        report = run_game("identical-challenge", "junk", 1, 0.5, make_rng(78),
                          trials=3)
        assert report["game"] == "identical-challenge"
        assert report["q"] == 1
        assert report["trials"] == 3
        assert report["message_bits"] == 4
        assert 0.0 <= report["success_rate"] <= 1.0
        assert report["stderr"] >= 0.0
        assert set(report) >= {"game_bit", "test_bits", "transcript"}


class TestGameTranscripts:
    def _steps(self, transcript):
        steps = []
        for line in transcript:
            if line.startswith("step "):
                steps.append(int(line.split(":")[0].split()[1]))
        return steps

    def test_key_game_step_order(self):
        for game in ("strong-anti-piracy", "strong-search"):
            report = run_game(game, "honest-forwarder", 2, 0.1, make_rng(80))
            assert self._steps(report["transcript"]) == [1, 2, 3, 4, 4, 4]
            assert report["transcript"][-1] == f"game bit: {report['game_bit']}"

    def test_identical_challenge_step_order(self):
        report = run_game("identical-challenge", "perfect-decryptors", 2, 0.1,
                          make_rng(81))
        assert self._steps(report["transcript"]) == [1, 2, 3, 4, 4, 4, 4]

    def test_ue_game_step_order(self):
        for game in ("multi-challenge-ue", "multi-copy-ue"):
            report = run_game(game, "honest-forwarder", 2, 0.1, make_rng(82))
            assert self._steps(report["transcript"]) == [1, 2, 3, 4, 5, 5, 5]


class TestGameValidation:
    def test_unknown_names(self):
        with pytest.raises(ValueError, match="unknown game"):
            run_game("tic-tac-toe", "junk", 1, 0.1, make_rng(90))
        with pytest.raises(ValueError, match="unknown adversary"):
            run_game("strong-search", "nobody", 1, 0.1, make_rng(90))

    def test_parameter_caps(self):
        rng = make_rng(91)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 0, 0.1, rng)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 4, 0.1, rng)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 1, 0.0, rng)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 1, 0.6, rng)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 1, 0.1, rng, trials=0)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 1, 0.1, rng, challenge_samples=0)
        with pytest.raises(ValueError):
            run_game("strong-search", "junk", 1, 0.1, None)
        with pytest.raises(ValueError):
            run_game("strong-search", 7, 1, 0.1, rng)

    def test_wrong_decryptor_count(self):
        def short(view):
            state = np.ones(1, dtype=np.complex128)
            return DeskDecryptors(state, (1,), (lambda ct, z: b"\x00",))

        with pytest.raises(ValueError, match="decryptors"):
            run_game("strong-search", short, 2, 0.1, make_rng(92))

    def test_wrong_return_shape(self):
        with pytest.raises(ValueError, match="DeskDecryptors"):
            run_game("strong-search", lambda view: "junk", 1, 0.1, make_rng(93))
        with pytest.raises(ValueError, match="message_pairs"):
            run_game("strong-anti-piracy", lambda view: "junk", 1, 0.1,
                     make_rng(93))

    def test_decryptor_state_validation(self):
        ok = lambda ct, z: 0
        with pytest.raises(ValueError, match="power"):
            DeskDecryptors(np.ones(3) / np.sqrt(3), (3,), (ok,))
        with pytest.raises(ValueError, match="power"):
            DeskDecryptors(np.ones(128) / np.sqrt(128), (128,), (ok,))
        with pytest.raises(ValueError, match="length"):
            DeskDecryptors(np.ones(4) / 2.0, (2,), (ok,))
        with pytest.raises(ValueError, match="normalized"):
            DeskDecryptors(np.ones(2), (2,), (ok,))
        with pytest.raises(ValueError, match="per decoder"):
            DeskDecryptors(np.ones(2), (2,), (ok, ok))

    def test_joint_state_capped_before_conversion(self):
        # four 64-dim registers: 2^24 amplitudes, over the dense cap; the
        # broadcast view costs no memory unless the state is converted
        ok = lambda ct, z: 0
        state = np.broadcast_to(np.complex128(2.0 ** -12), (1 << 24,))

        def build():
            with pytest.raises(ValueError, match="dense cap"):
                DeskDecryptors(state, (64,) * 4, (ok,) * 4)

        _, peak = peak_traced_bytes(build)
        assert peak < 1 << 20

    def test_nan_state_rejected(self):
        ok = lambda ct, z: 0
        for bad in (np.array([np.nan]), np.array([1.0, np.nan]) / 2 ** 0.5):
            with pytest.raises(ValueError, match="normalized"):
                DeskDecryptors(bad, (len(bad),), (ok,))


class TestGameReportsPinned:
    # sha256 over the sorted-key JSON of each report, in GAMES x sorted
    # adversary order, recorded before the game runners were merged
    DIGEST = "ea316a5cd46c3a89deee7a02b7a7460432bf1f3d1d7b8137ce443877afe70a9e"

    def test_all_game_adversary_pairs(self):
        h = hashlib.sha256()
        for game in GAMES:
            for adversary in sorted(ADVERSARIES):
                report = run_game(game, adversary, 2, 0.1, make_rng(0),
                                  trials=2, challenge_samples=4)
                h.update(json.dumps(report, sort_keys=True).encode())
        assert h.hexdigest() == self.DIGEST
