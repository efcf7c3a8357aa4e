"""Coin scheme tests: exact projector arithmetic plus game envelopes.

Per-branch labels are recomputed from the secret key with an independent
walk (PRF eval, banknote gen, signing) rather than trusting gen_banknote.
Acceptance probabilities for tampered and padded notes have exact dyadic
oracles: a dead branch costs its |amplitude|^2, and the all-zero payload
overlaps the subspace state in exactly 2^{-mini_n/2}.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unclonelab import coin, detsig
from unclonelab.coin import (
    ATTACKS,
    Coin,
    CoinParams,
    coin_setup,
    coin_verify,
    counterfeit_game,
    gen_banknote,
)
from unclonelab.hilbert import HybridState, basis_state
from unclonelab.minischeme import mini_gen
from unclonelab.primitives import pprf_eval
from unclonelab.rng import make_rng


@pytest.fixture(scope="module")
def eqsup_instance():
    vk, sk = coin_setup("eqsup", CoinParams(), make_rng(101))
    return vk, sk, gen_banknote(sk)


@pytest.fixture(scope="module")
def prs_instance():
    vk, sk = coin_setup("prs", CoinParams(), make_rng(102))
    return vk, sk, gen_banknote(sk)


class TestSetup:
    def test_variant_key_material(self, eqsup_instance, prs_instance):
        _, sk_eq, _ = eqsup_instance
        _, sk_prs, _ = prs_instance
        assert sk_eq.prs_key is None
        assert sk_eq.id_bits == 4
        assert sk_prs.prs_key is not None
        assert sk_prs.prs_key.n == sk_prs.id_bits

    def test_fixed_seed_determinism(self):
        a = coin_setup("eqsup", CoinParams(), make_rng(77))
        b = coin_setup("eqsup", CoinParams(), make_rng(77))
        coin_a = gen_banknote(a[1]).state
        coin_b = gen_banknote(b[1]).state
        assert coin_a.allclose(coin_b)
        assert coin_a.labels() == coin_b.labels()

    def test_caps(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            coin_setup("other", CoinParams(), rng)
        with pytest.raises(ValueError):
            coin_setup("prs", CoinParams(id_bits=7), rng)
        with pytest.raises(ValueError):
            coin_setup("prs", CoinParams(mini_n=12), rng)
        with pytest.raises(ValueError):
            coin_setup("prs", CoinParams(mini_n=5), rng)
        with pytest.raises(ValueError):
            coin_setup("prs", CoinParams())


class TestGenBanknote:
    def test_returns_fixed_pure_state(self, eqsup_instance):
        _, sk, coin = eqsup_instance
        again = gen_banknote(sk)
        assert isinstance(coin, Coin)
        assert coin.state.allclose(again.state)
        assert coin.state.inner(again.state) == 1.0
        assert coin.state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_branch_count_and_label_shape(self, eqsup_instance):
        _, sk, coin = eqsup_instance
        labels = coin.state.labels()
        assert len(labels) == 1 << sk.id_bits
        assert sorted(lab[0] for lab in labels) == list(range(16))
        for lab in labels:
            assert isinstance(lab[1], bytes) and isinstance(lab[2], bytes)

    def test_branches_recomputable_from_secret_key(self, eqsup_instance):
        # independent walk: PRF randomness, banknote, signature per id
        vk, sk, coin = eqsup_instance
        for x, sn, sig in coin.state.labels():
            bank = mini_gen(sk.mini_n, pprf_eval(sk.prf, x))
            assert sn == bank.sn
            expected = detsig.sign(sk.sgk, _sn_msg(sn)).to_bytes()
            assert sig == expected
            assert detsig.verify(vk.vk, _sn_msg(sn), sig)
            vec = coin.state.branch_vector((x, sn, sig))
            assert np.allclose(vec, 0.25 * bank.note.amplitudes)

    def test_eqsup_amplitudes_exactly_uniform(self, eqsup_instance):
        _, _, coin = eqsup_instance
        for _, amp, _ in coin.state.branch_items():
            assert abs(amp) == 0.25

    def test_prs_amplitudes_signed_uniform(self, prs_instance):
        _, _, coin = prs_instance
        for _, amp, _ in coin.state.branch_items():
            assert abs(amp) == 0.25


def _sn_msg(sn: bytes) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha256(sn).digest()[:5], "big")


class TestVerify:
    def test_honest_coin_accepted_exactly(self, eqsup_instance, prs_instance):
        for vk, _, coin in (eqsup_instance, prs_instance):
            bit, post, p = coin_verify(vk, coin.state)
            assert bit == 1
            assert p == 1.0
            assert post.allclose(coin.state)

    def test_idempotent_on_accepted_states(self, eqsup_instance):
        vk, _, coin = eqsup_instance
        _, post, _ = coin_verify(vk, coin.state)
        bit2, post2, p2 = coin_verify(vk, post)
        assert bit2 == 1
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert post2.allclose(post)

    def test_flipped_sig_byte_costs_that_branch(self, eqsup_instance):
        vk, _, coin = eqsup_instance
        x0, sn0, sig0 = coin.state.labels()[0]
        bad = bytes([sig0[0] ^ 1]) + sig0[1:]
        tampered = coin.state.map_labels(
            lambda lab: (lab[0], lab[1], bad) if lab[0] == x0 else lab)
        bit, post, p = coin_verify(vk, tampered)
        assert bit == 0
        assert p == 1.0 - 0.25**2
        assert post is not None
        assert (x0, sn0, bad) not in post.labels()

    def test_only_accepted_signatures_remembered(self):
        vk, sk = coin_setup("eqsup", CoinParams(), make_rng(103))
        state = gen_banknote(sk).state
        x0, sn0, sig0 = state.labels()[0]
        bad = sig0[:-1] + bytes([sig0[-1] ^ 1])
        tampered = state.map_labels(
            lambda lab: (lab[0], lab[1], bad) if lab[0] == x0 else lab)
        for _ in range(2):
            assert coin_verify(vk, tampered)[2] == 1.0 - 0.25**2
            assert (sn0, bad) not in vk._accepted
            assert set(vk._accepted) == {(sn, sig) for _, sn, sig in tampered.labels()
                                         if sig != bad}
        assert coin_verify(vk, state)[2] == 1.0
        assert (sn0, sig0) in vk._accepted

    def test_one_cap_bounds_every_store(self, monkeypatch):
        _, want_sk = coin_setup("eqsup", CoinParams(), make_rng(104))
        want = gen_banknote(want_sk).state
        monkeypatch.setattr(detsig, "STORE_CAP", 3)
        vk, sk = coin_setup("eqsup", CoinParams(), make_rng(104))
        state = gen_banknote(sk).state
        # signing past the cap derives the same keys it no longer keeps
        assert state.labels() == want.labels()
        assert len(sk.sgk._cache) == 3
        for _ in range(2):
            assert coin_verify(vk, state)[::2] == (1, 1.0)
            assert len(vk._accepted) == 3
            assert len(vk.vk._verified) == 3

    def test_zero_padded_forgery_probability(self, eqsup_instance):
        vk, _, coin = eqsup_instance
        x0, sn0, sig0 = coin.state.labels()[0]
        forged = HybridState.from_terms(
            vk.mini_n, [((x0, sn0, sig0), 1.0, basis_state(vk.mini_n, 0))])
        bit, post, p = coin_verify(vk, forged)
        assert bit == 0
        assert p == 2.0 ** (-vk.mini_n / 2)
        # the surviving state is the branch subspace state, so it now
        # passes verification outright
        assert coin_verify(vk, post)[2] == pytest.approx(1.0, abs=1e-12)

    def test_unsigned_labels_rejected_outright(self, eqsup_instance):
        vk, _, _ = eqsup_instance
        blank = HybridState.from_terms(
            vk.mini_n, [((0, b"", b""), 1.0, basis_state(vk.mini_n, 0))])
        assert coin_verify(vk, blank) == (0, None, 0.0)

    def test_shape_errors(self, eqsup_instance):
        vk, _, coin = eqsup_instance
        with pytest.raises(ValueError):
            coin_verify(vk, HybridState.from_terms(
                2, [((0, b"", b""), 1.0, basis_state(2, 0))]))
        with pytest.raises(ValueError):
            coin_verify(vk, coin.state.map_labels(lambda lab: lab[:2]))

    def test_honest_acceptance_random_setups(self):
        rng = make_rng(103)
        for i in range(6):
            variant = "prs" if i % 2 else "eqsup"
            vk, sk = coin_setup(variant, CoinParams(), rng)
            state = gen_banknote(sk).state
            bit, post, p = coin_verify(vk, state)
            assert (bit, p) == (1, 1.0)
            assert post.allclose(state)

    @settings(max_examples=20)
    @given(variant=st.sampled_from(["prs", "eqsup"]),
           id_bits=st.integers(1, 3), mini_n=st.sampled_from([2, 4, 6]),
           seed=st.integers(0, 2**32 - 1))
    def test_honest_acceptance_is_exact(self, variant, id_bits, mini_n,
                                        seed):
        vk, sk = coin_setup(variant, CoinParams(id_bits, mini_n),
                            make_rng(seed))
        state = gen_banknote(sk).state
        bit, post, p = coin_verify(vk, state)
        assert (bit, p) == (1, 1.0)
        assert post.allclose(state)


class TestCounterfeitGame:
    def test_zero_pad_rate_near_envelope(self):
        out = counterfeit_game("eqsup", 1, "zero-pad", make_rng(104),
                               trials=2000)
        p = 2.0**-4
        sigma = math.sqrt(p * (1 - p) / 2000)
        assert abs(out["success_rate"] - p) <= 4 * sigma
        assert out["accept_probabilities"] == [1.0, p]

    def test_measure_clone_bounded_by_envelope(self):
        out = counterfeit_game("eqsup", 1, "measure-clone", make_rng(105),
                               trials=2000)
        assert out["success_rate"] <= 2.0**-4
        # both emitted notes are the same classical readout, each with
        # the exact zero-overlap probability of a measured subspace point
        assert out["accept_probabilities"] == [2.0**-4, 2.0**-4]

    def test_null_attack_never_wins(self):
        out = counterfeit_game("eqsup", 0, "null", make_rng(106), trials=50)
        assert out["success"] is False
        assert out["success_rate"] == 0.0
        assert out["accept_probabilities"] == [0.0]

    def test_report_fields(self):
        out = counterfeit_game("prs", 1, "zero-pad", make_rng(107), trials=4)
        assert out["variant"] == "prs"
        assert out["t"] == 1
        assert out["attack"] == "zero-pad"
        assert out["trials"] == 4
        assert 0.0 <= out["success_rate"] <= 1.0
        assert out["stderr"] >= 0.0

    @pytest.mark.parametrize("t, attack, calls", [(4, "zero-pad", 1),
                                                  (0, "null", 0)])
    def test_coin_state_derived_once(self, monkeypatch, t, attack, calls):
        derived = []

        def counting(sk):
            derived.append(sk)
            return gen_banknote(sk)

        monkeypatch.setattr(coin, "gen_banknote", counting)
        out = counterfeit_game("eqsup", t, attack, make_rng(109),
                               params=CoinParams(1, 2), trials=3)
        assert len(derived) == calls
        assert len(out["accept_probabilities"]) == t + 1

    def test_custom_attack_must_return_t_plus_one(self):
        def lazy(vk, coins, rng):
            return coins

        with pytest.raises(ValueError):
            counterfeit_game("eqsup", 1, lazy, make_rng(108))

    def test_game_caps(self):
        with pytest.raises(ValueError):
            counterfeit_game("eqsup", 5, "zero-pad", make_rng(0))
        with pytest.raises(ValueError):
            counterfeit_game("eqsup", 1, "zero-pad", make_rng(0), trials=0)
        with pytest.raises(ValueError):
            ATTACKS["zero-pad"](None, [], make_rng(0))
