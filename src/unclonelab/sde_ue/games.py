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
    MAX_STATE_AMPLITUDES,
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
        # checked before the state is converted, so an oversized joint state
        # is never copied
        size = math.prod(self.dims)
        if size > MAX_STATE_AMPLITUDES:
            raise ValueError(
                f"joint state of {size} amplitudes exceeds the dense cap of "
                f"{MAX_STATE_AMPLITUDES}"
            )
        object.__setattr__(self, "state",
                           np.asarray(self.state, dtype=np.complex128))
        if self.state.shape != (size,):
            raise ValueError("state length must match the register dims")
        if not abs(np.linalg.norm(self.state) - 1.0) <= _NORM_ATOL:  # and NaN too
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
    projectors = [np.diag(row) for row in np.eye(dims[idx])]
    return measure_register_projective(vec, dims, idx, projectors, rng)


def _challenge_povm(sde, decoder, dim, challenges, rng):
    """Equal-weight mixture over the drawn (message, expected answer) pairs
    of the projector onto the basis indices whose decoded answer to a fresh
    encryption of the message is the expected one."""
    projectors = []
    for m, expected in challenges:
        ct = sde_enc(sde, sde.pk, m, rng)
        projectors.append(
            np.diag([float(decoder(ct, z) == expected) for z in range(dim)])
        )
    weight = 1.0 / len(projectors)
    return mixture_povm([(weight, proj) for proj in projectors])


def _decode_test(decs, challenge, expected, rng):
    """Register test: measure in the computational basis, then decode."""
    def test(i, vec):
        z, vec = _measure_register_basis(vec, decs.dims, i, rng)
        return decs.decoders[i](challenge, z) == expected, vec

    return test


def _test_registers(decs, test, line, transcript):
    """Run test(i, vec) -> (bit, vec) on each register in order, threading
    the post-measurement state through; the game bit is the AND."""
    vec = decs.state
    bits = []
    for i in range(len(decs.decoders)):
        bit, vec = test(i, vec)
        bits.append(int(bit))
        transcript.append(line.format(i=i + 1, bit=bits[-1]))
    game_bit = int(all(bits))
    transcript.append(f"game bit: {game_bit}")
    return game_bit, bits, transcript


def _run_key_game(game, adversary, q, gamma, rng, config, samples):
    sde = sde_setup(config, rng)
    sks = tuple(sde_kg(sde, sde.msk, rng) for _ in range(q))
    transcript = [
        "step 1: setup ran; public key sent to adversary",
        f"step 2: adversary sent 1^{q}; {q} decryption keys issued and sent",
    ]
    out = adversary(GameView(game=game, q=q, gamma=gamma, config=config,
                             rng=rng, sde=sde, pk=sde.pk, sks=sks))
    n = q + 1
    pairs = None
    if game == "strong-anti-piracy":
        if not isinstance(out, tuple) or len(out) != 2:
            raise ValueError("adversary must return (message_pairs, decryptors)")
        raw_pairs, out = out
        pairs = tuple(
            (message_to_bytes(config, a), message_to_bytes(config, b))
            for a, b in raw_pairs
        )
        if len(pairs) != n:
            raise ValueError(f"adversary returned {len(pairs)} message pairs, need {n}")
    decs = _check_decryptors(out, n)
    returned = f"{n} message pairs and " if pairs else ""
    transcript.append(f"step 3: adversary returned {returned}{n} decryptors")
    if game == "identical-challenge":
        m = _random_message(config, rng)
        ct = sde_enc(sde, sde.pk, m, rng)
        transcript.append("step 4: challenge message sampled and encrypted once")
        return _test_registers(
            decs, _decode_test(decs, ct, m, rng),
            "step 4: decryptor {i} ran on the common ciphertext: match={bit}",
            transcript)
    if pairs:
        # balanced over the coin: a blind decoder sits at exactly 1/2
        def draw(i):
            return ((pairs[i][c], c) for _ in range(samples) for c in (0, 1))

        threshold = 0.5 + gamma
        line = "step 4: distinguishing test on decryptor {i}: pass={bit}"
    else:
        def draw(i):
            return ((m, m) for _ in range(samples)
                    for m in (_random_message(config, rng),))

        threshold = 1.0 / (1 << config.message_bits) + gamma
        line = "step 4: search test on decryptor {i}: pass={bit}"

    def test(i, vec):
        povm = _challenge_povm(sde, decs.decoders[i], decs.dims[i], draw(i), rng)
        return threshold_measure_register(povm, threshold, vec, decs.dims, i, rng)

    return _test_registers(decs, test, line, transcript)


def _run_ue_game(game, adversary, q, gamma, rng, config, samples):
    sde = sde_setup(config, rng)
    keys = ue_kg(sde, rng)
    transcript = [
        "step 1: key generation ran; security parameter sent",
        f"step 2: adversary sent 1^{q}",
    ]
    m = _random_message(config, rng)
    if game == "multi-copy-ue":
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
    view = GameView(game=game, q=q, gamma=gamma, config=config, rng=rng,
                    sde=sde, cts=cts)
    decs = _check_decryptors(adversary(view), q + 1)
    transcript.append(f"step 4: adversary split its state into {q + 1} registers")
    return _test_registers(
        decs, _decode_test(decs, keys.dk, m, rng),
        "step 5: decryption key sent to party {i}: match={bit}", transcript)


_RUNNERS = {
    "strong-anti-piracy": _run_key_game,
    "strong-search": _run_key_game,
    "identical-challenge": _run_key_game,
    "multi-challenge-ue": _run_ue_game,
    "multi-copy-ue": _run_ue_game,
}


def run_game(game: str, adversary, q: int, gamma: float,
             rng: np.random.Generator, *, trials: int = 1,
             challenge_samples: int = 8) -> dict:
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
    config = SdeConfig()

    runner = _RUNNERS[game]
    wins = 0
    last = None
    for _ in range(trials):
        game_bit, bits, transcript = runner(game, adversary, q, gamma, rng,
                                            config, challenge_samples)
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


def _decoder(view: GameView, i: int):
    """Party i's decoder: the i-th issued key decrypts the challenge
    ciphertext, or the challenge decryption key opens the i-th received
    ciphertext. The distinguishing game answers the coin of the (0, 1) pair."""
    sde, blank = view.sde, bytes(view.config.msg_len)
    if view.sks is None:
        def run(dk):
            return ue_dec(sde, dk, view.cts[i])
    else:
        def run(ct):
            return sde_dec(sde, view.sks[i], ct)
    if view.game == "strong-anti-piracy":
        zero = message_to_bytes(view.config, 0)
        return lambda ct, z: 0 if run(ct) == zero else 1

    def decode(challenge, z):
        m = run(challenge)
        return m if m is not FAIL else blank

    return decode


def _reply(view: GameView, decoders, state=None, dims=None):
    """The adversary's answer. Registers default to trivial ones (decryptors
    with no quantum memory); the distinguishing game also gets the (0, 1)
    message pair for each party."""
    if state is None:
        state, dims = np.ones(1, dtype=np.complex128), (1,) * len(decoders)
    decs = DeskDecryptors(state, dims, decoders)
    if view.game == "strong-anti-piracy":
        return ((0, 1),) * len(decoders), decs
    return decs


def honest_forwarder(view: GameView):
    """Each issued key (or received ciphertext) powers one decryptor; the
    one extra party answers blind, so the full game should fail."""
    blind = 0 if view.game == "strong-anti-piracy" else bytes(view.config.msg_len)
    decoders = tuple(_decoder(view, i) for i in range(view.q))
    return _reply(view, decoders + (lambda ch, z: blind,))


def perfect_decryptors(view: GameView):
    """All q+1 parties share one key. Classical mock keys copy freely, so
    every test passes: the harness exercises wiring, not security."""
    return _reply(view, tuple(_decoder(view, 0) for _ in range(view.q + 1)))


def junk_adversary(view: GameView):
    """Ignores everything; each party outputs an independent fixed guess."""
    n = view.q + 1
    if view.game == "strong-anti-piracy":
        guesses = [int(view.rng.random() < 0.5) for _ in range(n)]
    else:
        guesses = [_random_message(view.config, view.rng) for _ in range(n)]
    return _reply(view, tuple((lambda ch, z, g=g: g) for g in guesses))


def ghz_guessers(view: GameView):
    """One qubit per party in a GHZ state; each party answers with its
    measured bit, so answers agree across parties but ignore the
    challenge. Demonstrates post-measurement correlation threading."""
    n = view.q + 1
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = state[-1] = 1.0 / math.sqrt(2.0)
    if view.game == "strong-anti-piracy":
        answer = int
    else:
        def answer(z):
            return message_to_bytes(view.config, int(z))
    decoders = tuple((lambda ch, z: answer(z)) for _ in range(n))
    return _reply(view, decoders, state, (2,) * n)


ADVERSARIES = {
    "honest-forwarder": honest_forwarder,
    "perfect-decryptors": perfect_decryptors,
    "junk": junk_adversary,
    "ghz-guessers": ghz_guessers,
}
