"""Anti-piracy and unclonable-encryption game harnesses.

A desk-scale quantum decryptor is one register of a shared pure state
plus a deterministic decode function mapping (challenge, measured basis
index) to an answer. Running a decryptor means measuring its register
in the computational basis and decoding; testing a decryptor means
building the mixture-of-projectors test operator over a sampled
challenge family and threshold-measuring it on the register, so the
pass bit is an actual projective outcome on the shared state and
entanglement between registers carries through the post-state.

Games:

  strong-anti-piracy   q keys issued; adversary returns q+1 message
                       pairs and q+1 decryptors; each register is
                       threshold-tested at 1/2 + gamma against the
                       coin-guessing mixture for its pair.
  strong-search        as above without pairs; the mixture samples a
                       random message and the threshold is
                       1/|M| + gamma.
  identical-challenge  one message is sampled and encrypted once; every
                       decryptor runs on that same ciphertext and must
                       output the message.
  multi-challenge-ue   q independent ciphertexts of one message go to
                       the adversary, which splits a state into q+1
                       registers; each party then receives the
                       decryption key and must output the message.
  multi-copy-ue        as above with q exact copies generated under one
                       explicit randomness; the harness checks the
                       copies are branch-identical before proceeding.

The distinguishing-test challenge family is balanced over the coin, so
a decoder that ignores its input sits at eigenvalue exactly 1/2 and
fails the threshold for every gamma > 0.

Adversary callbacks receive a GameView carrying everything the mock
world exposes, the scheme instance included: the mocks cannot even run
Dec without it, and no hardness is claimed, so harnesses demonstrate
wiring and measurement statistics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..hilbert import (
    measure_register_projective,
    mixture_povm,
    threshold_measure_register,
)
from .compiler import (
    Sde,
    SdeConfig,
    SdeSecretKey,
    message_to_bytes,
    sde_dec,
    sde_enc,
    sde_kg,
    sde_setup,
)
from .fail import FAIL
from .ue import UeCiphertext, _random_message, ue_dec, ue_enc, ue_kg

GAMES = (
    "strong-anti-piracy",
    "strong-search",
    "identical-challenge",
    "multi-challenge-ue",
    "multi-copy-ue",
)

MAX_Q = 3
MAX_DECRYPTOR_QUBITS = 6
_NORM_ATOL = 1e-9


@dataclass(frozen=True)
class DeskDecryptors:
    """Joint state over per-party registers plus per-party decoders.

    decoders[i] is called as decode(challenge, z) with z the measured
    basis index of register i. Distinguishing tests expect a coin in
    {0, 1}; search-type games expect message bytes.
    """

    state: np.ndarray
    dims: tuple[int, ...]
    decoders: tuple[Callable, ...]

    def __post_init__(self):
        object.__setattr__(self, "state",
                           np.asarray(self.state, dtype=np.complex128))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "decoders", tuple(self.decoders))
        if len(self.dims) != len(self.decoders):
            raise ValueError("one register dimension per decoder required")
        for d in self.dims:
            if d < 1 or d > (1 << MAX_DECRYPTOR_QUBITS) or d & (d - 1):
                raise ValueError(
                    f"register dims must be powers of two at most "
                    f"{1 << MAX_DECRYPTOR_QUBITS}"
                )
        if self.state.shape != (int(np.prod(self.dims)),):
            raise ValueError("state length must match the register dims")
        if abs(np.linalg.norm(self.state) - 1.0) > _NORM_ATOL:
            raise ValueError("state must be normalized")


@dataclass(frozen=True)
class GameView:
    """What the adversary callback sees at its single move."""

    game: str
    q: int
    gamma: float
    config: SdeConfig
    rng: np.random.Generator
    sde: Sde
    pk: bytes | None = None
    sks: tuple[SdeSecretKey, ...] | None = None
    cts: tuple[UeCiphertext, ...] | None = None


def _check_decryptors(decs, count: int) -> DeskDecryptors:
    if not isinstance(decs, DeskDecryptors):
        raise ValueError("adversary must return DeskDecryptors")
    if len(decs.decoders) != count:
        raise ValueError(
            f"adversary returned {len(decs.decoders)} decryptors, need {count}"
        )
    return decs


def _measure_register_basis(vec, dims, idx, rng):
    d = dims[idx]
    projectors = []
    for z in range(d):
        p = np.zeros((d, d))
        p[z, z] = 1.0
        projectors.append(p)
    return measure_register_projective(vec, dims, idx, projectors, rng)


def _answer_projector(decoder, challenge, expected, dim: int) -> np.ndarray:
    proj = np.zeros((dim, dim))
    for z in range(dim):
        if decoder(challenge, z) == expected:
            proj[z, z] = 1.0
    return proj


def _cpa_test_povm(sde, pair, decoder, dim, samples, rng):
    # balanced over the coin: a blind decoder sits at exactly 1/2
    weight = 1.0 / (2 * samples)
    components = []
    for _ in range(samples):
        for coin in (0, 1):
            ct = sde_enc(sde, sde.pk, pair[coin], rng)
            components.append((weight, _answer_projector(decoder, ct, coin, dim)))
    return mixture_povm(components)


def _search_test_povm(sde, decoder, dim, samples, rng):
    weight = 1.0 / samples
    components = []
    for _ in range(samples):
        m = _random_message(sde.config, rng)
        ct = sde_enc(sde, sde.pk, m, rng)
        components.append((weight, _answer_projector(decoder, ct, m, dim)))
    return mixture_povm(components)


def _issue_keys(q, rng, config, transcript):
    sde = sde_setup(config, rng)
    transcript.append("step 1: setup ran; public key sent to adversary")
    sks = tuple(sde_kg(sde, sde.msk, rng) for _ in range(q))
    transcript.append(
        f"step 2: adversary sent 1^{q}; {q} decryption keys issued and sent"
    )
    return sde, sks


def _run_strong_anti_piracy(adversary, q, gamma, rng, config, samples):
    transcript: list[str] = []
    sde, sks = _issue_keys(q, rng, config, transcript)
    view = GameView(game="strong-anti-piracy", q=q, gamma=gamma, config=config,
                    rng=rng, sde=sde, pk=sde.pk, sks=sks)
    out = adversary(view)
    if not isinstance(out, tuple) or len(out) != 2:
        raise ValueError("adversary must return (message_pairs, decryptors)")
    raw_pairs, decs = out
    pairs = tuple(
        (message_to_bytes(config, a), message_to_bytes(config, b))
        for a, b in raw_pairs
    )
    if len(pairs) != q + 1:
        raise ValueError(f"adversary returned {len(pairs)} message pairs, need {q + 1}")
    decs = _check_decryptors(decs, q + 1)
    transcript.append(
        f"step 3: adversary returned {q + 1} message pairs and {q + 1} decryptors"
    )
    vec = decs.state
    bits = []
    for i in range(q + 1):
        povm = _cpa_test_povm(sde, pairs[i], decs.decoders[i], decs.dims[i],
                              samples, rng)
        bit, vec = threshold_measure_register(povm, 0.5 + gamma, vec, decs.dims,
                                              i, rng)
        bits.append(int(bit))
        transcript.append(
            f"step 4: distinguishing test on decryptor {i + 1}: pass={bit}"
        )
    game_bit = int(all(bits))
    transcript.append(f"game bit: {game_bit}")
    return game_bit, bits, transcript


def _run_strong_search(adversary, q, gamma, rng, config, samples):
    transcript: list[str] = []
    sde, sks = _issue_keys(q, rng, config, transcript)
    view = GameView(game="strong-search", q=q, gamma=gamma, config=config,
                    rng=rng, sde=sde, pk=sde.pk, sks=sks)
    decs = _check_decryptors(adversary(view), q + 1)
    transcript.append(f"step 3: adversary returned {q + 1} decryptors")
    threshold = 1.0 / (1 << config.message_bits) + gamma
    vec = decs.state
    bits = []
    for i in range(q + 1):
        povm = _search_test_povm(sde, decs.decoders[i], decs.dims[i], samples, rng)
        bit, vec = threshold_measure_register(povm, threshold, vec, decs.dims,
                                              i, rng)
        bits.append(int(bit))
        transcript.append(f"step 4: search test on decryptor {i + 1}: pass={bit}")
    game_bit = int(all(bits))
    transcript.append(f"game bit: {game_bit}")
    return game_bit, bits, transcript


def _run_identical_challenge(adversary, q, gamma, rng, config, samples):
    transcript: list[str] = []
    sde, sks = _issue_keys(q, rng, config, transcript)
    view = GameView(game="identical-challenge", q=q, gamma=gamma, config=config,
                    rng=rng, sde=sde, pk=sde.pk, sks=sks)
    decs = _check_decryptors(adversary(view), q + 1)
    transcript.append(f"step 3: adversary returned {q + 1} decryptors")
    m = _random_message(config, rng)
    ct = sde_enc(sde, sde.pk, m, rng)
    transcript.append("step 4: challenge message sampled and encrypted once")
    vec = decs.state
    bits = []
    for i in range(q + 1):
        z, vec = _measure_register_basis(vec, decs.dims, i, rng)
        bits.append(int(decs.decoders[i](ct, z) == m))
        transcript.append(
            f"step 4: decryptor {i + 1} ran on the common ciphertext: "
            f"match={bits[-1]}"
        )
    game_bit = int(all(bits))
    transcript.append(f"game bit: {game_bit}")
    return game_bit, bits, transcript


def _run_ue_game(adversary, q, gamma, rng, config, *, exact_copies: bool):
    name = "multi-copy-ue" if exact_copies else "multi-challenge-ue"
    transcript: list[str] = []
    sde = sde_setup(config, rng)
    keys = ue_kg(sde, rng)
    transcript.append("step 1: key generation ran; security parameter sent")
    transcript.append(f"step 2: adversary sent 1^{q}")
    m = _random_message(config, rng)
    if exact_copies:
        kg_randomness = rng.bytes(32)
        cts = tuple(
            ue_enc(sde, keys.ek, m, kg_randomness=kg_randomness) for _ in range(q)
        )
        first = cts[0]
        for ct in cts[1:]:
            same = (
                ct.masked == first.masked
                and ct.sde_sk.fsk == first.sde_sk.fsk
                and np.array_equal(ct.sde_sk.one_sk[0].amplitudes,
                                   first.sde_sk.one_sk[0].amplitudes)
            )
            if not same:
                raise RuntimeError("encryption is not classically determined")
        transcript.append(
            f"step 3: one message sampled; {q} exact copies under one "
            f"randomness sent"
        )
    else:
        cts = tuple(ue_enc(sde, keys.ek, m, rng) for _ in range(q))
        transcript.append(
            f"step 3: one message sampled; {q} independent ciphertexts sent"
        )
    view = GameView(game=name, q=q, gamma=gamma, config=config, rng=rng,
                    sde=sde, cts=cts)
    decs = _check_decryptors(adversary(view), q + 1)
    transcript.append(f"step 4: adversary split its state into {q + 1} registers")
    vec = decs.state
    bits = []
    for i in range(q + 1):
        z, vec = _measure_register_basis(vec, decs.dims, i, rng)
        bits.append(int(decs.decoders[i](keys.dk, z) == m))
        transcript.append(
            f"step 5: decryption key sent to party {i + 1}: match={bits[-1]}"
        )
    game_bit = int(all(bits))
    transcript.append(f"game bit: {game_bit}")
    return game_bit, bits, transcript


def _run_multi_challenge_ue(adversary, q, gamma, rng, config, samples):
    return _run_ue_game(adversary, q, gamma, rng, config, exact_copies=False)


def _run_multi_copy_ue(adversary, q, gamma, rng, config, samples):
    return _run_ue_game(adversary, q, gamma, rng, config, exact_copies=True)


_RUNNERS = {
    "strong-anti-piracy": _run_strong_anti_piracy,
    "strong-search": _run_strong_search,
    "identical-challenge": _run_identical_challenge,
    "multi-challenge-ue": _run_multi_challenge_ue,
    "multi-copy-ue": _run_multi_copy_ue,
}


def run_game(game: str, adversary, q: int, gamma: float,
             rng: np.random.Generator, *, config: SdeConfig | None = None,
             trials: int = 1, challenge_samples: int = 8) -> dict:
    """Run a game for some trials; report rates plus the last transcript."""
    if game not in _RUNNERS:
        raise ValueError(f"unknown game {game!r}; choose from {', '.join(GAMES)}")
    if isinstance(adversary, str):
        if adversary not in ADVERSARIES:
            raise ValueError(
                f"unknown adversary {adversary!r}; choose from "
                f"{', '.join(sorted(ADVERSARIES))}"
            )
        adversary = ADVERSARIES[adversary]
    if not callable(adversary):
        raise ValueError("adversary must be a callable or a registered name")
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"q must be in [1, {MAX_Q}]")
    if not 0.0 < gamma <= 0.5:
        raise ValueError("gamma must be in (0, 1/2]")
    if trials < 1:
        raise ValueError("trials must be positive")
    if challenge_samples < 1:
        raise ValueError("challenge_samples must be positive")
    if rng is None:
        raise ValueError("run_game needs an rng")
    config = config or SdeConfig()

    runner = _RUNNERS[game]
    wins = 0
    last = None
    for _ in range(trials):
        game_bit, bits, transcript = runner(adversary, q, gamma, rng, config,
                                            challenge_samples)
        wins += game_bit
        last = (game_bit, bits, transcript)
    rate = wins / trials
    return {
        "game": game,
        "q": q,
        "gamma": gamma,
        "trials": trials,
        "message_bits": config.message_bits,
        "challenge_samples": challenge_samples,
        "success_rate": rate,
        "stderr": math.sqrt(rate * (1.0 - rate) / trials),
        "game_bit": last[0],
        "test_bits": list(last[1]),
        "transcript": list(last[2]),
    }


# -- example adversaries -------------------------------------------------------


def _classical_registers(count: int) -> tuple[np.ndarray, tuple[int, ...]]:
    # decryptors with no quantum memory: every register is trivial
    return np.ones(1, dtype=np.complex128), (1,) * count


def _key_cpa_decoder(sde, sk, pair):
    def decode(ct, z):
        return 0 if sde_dec(sde, sk, ct) == pair[0] else 1

    return decode


def _key_search_decoder(sde, sk):
    blank = bytes(sde.config.msg_len)

    def decode(ct, z):
        m = sde_dec(sde, sk, ct)
        return m if m is not FAIL else blank

    return decode


def _ct_ue_decoder(sde, ct):
    blank = bytes(sde.config.msg_len)

    def decode(dk, z):
        m = ue_dec(sde, dk, ct)
        return m if m is not FAIL else blank

    return decode


def honest_forwarder(view: GameView):
    """Each issued key (or received ciphertext) powers one decryptor; the
    one extra party answers blind, so the full game should fail."""
    q = view.q
    state, dims = _classical_registers(q + 1)
    if view.game == "strong-anti-piracy":
        pair = (message_to_bytes(view.config, 0), message_to_bytes(view.config, 1))
        decoders = tuple(_key_cpa_decoder(view.sde, sk, pair) for sk in view.sks)
        decoders += (lambda ct, z: 0,)
        pairs = tuple(pair for _ in range(q + 1))
        return pairs, DeskDecryptors(state, dims, decoders)
    blank = bytes(view.config.msg_len)
    if view.game in ("strong-search", "identical-challenge"):
        decoders = tuple(_key_search_decoder(view.sde, sk) for sk in view.sks)
    else:
        decoders = tuple(_ct_ue_decoder(view.sde, ct) for ct in view.cts)
    decoders += (lambda ch, z: blank,)
    return DeskDecryptors(state, dims, decoders)


def perfect_decryptors(view: GameView):
    """All q+1 parties share one key. Classical mock keys copy freely, so
    every test passes: the harness exercises wiring, not security."""
    q = view.q
    state, dims = _classical_registers(q + 1)
    if view.game == "strong-anti-piracy":
        pair = (message_to_bytes(view.config, 0), message_to_bytes(view.config, 1))
        decoders = tuple(
            _key_cpa_decoder(view.sde, view.sks[0], pair) for _ in range(q + 1)
        )
        pairs = tuple(pair for _ in range(q + 1))
        return pairs, DeskDecryptors(state, dims, decoders)
    if view.game in ("strong-search", "identical-challenge"):
        decoders = tuple(
            _key_search_decoder(view.sde, view.sks[0]) for _ in range(q + 1)
        )
    else:
        decoders = tuple(
            _ct_ue_decoder(view.sde, view.cts[0]) for _ in range(q + 1)
        )
    return DeskDecryptors(state, dims, decoders)


def junk_adversary(view: GameView):
    """Ignores everything; each party outputs an independent fixed guess."""
    q = view.q
    state, dims = _classical_registers(q + 1)
    if view.game == "strong-anti-piracy":
        pair = (message_to_bytes(view.config, 0), message_to_bytes(view.config, 1))
        coins = [int(view.rng.random() < 0.5) for _ in range(q + 1)]
        decoders = tuple((lambda ct, z, c=c: c) for c in coins)
        pairs = tuple(pair for _ in range(q + 1))
        return pairs, DeskDecryptors(state, dims, decoders)
    guesses = [_random_message(view.config, view.rng) for _ in range(q + 1)]
    decoders = tuple((lambda ch, z, g=g: g) for g in guesses)
    return DeskDecryptors(state, dims, decoders)


def ghz_guessers(view: GameView):
    """One qubit per party in a GHZ state; each party answers with its
    measured bit, so answers agree across parties but ignore the
    challenge. Demonstrates post-measurement correlation threading."""
    q = view.q
    n = q + 1
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = state[-1] = 1.0 / math.sqrt(2.0)
    dims = (2,) * n
    config = view.config
    if view.game == "strong-anti-piracy":
        pair = (message_to_bytes(config, 0), message_to_bytes(config, 1))
        decoders = tuple((lambda ct, z: int(z)) for _ in range(n))
        pairs = tuple(pair for _ in range(n))
        return pairs, DeskDecryptors(state, dims, decoders)
    decoders = tuple(
        (lambda ch, z: message_to_bytes(config, int(z))) for _ in range(n)
    )
    return DeskDecryptors(state, dims, decoders)


ADVERSARIES = {
    "honest-forwarder": honest_forwarder,
    "perfect-decryptors": perfect_decryptors,
    "junk": junk_adversary,
    "ghz-guessers": ghz_guessers,
}
