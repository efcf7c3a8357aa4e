"""Quantum-coin constructions over the toy subspace banknotes.

Both variants issue one fixed pure state: a superposition over an id
register whose branch x carries the serial number, a signature over it,
and the banknote payload, all derived deterministically from the secret
key. The prs variant weights branch x by a pseudorandom binary phase;
the eqsup variant uses uniform amplitudes.

Verification is realized as exact projector arithmetic: the acceptance
projector keeps branches whose signature verifies and projects their
payload onto the branch's subspace state. Honest coins lie inside the
acceptance subspace, so they pass with probability exactly 1 and come
back unchanged, which is the desk-scale stand-in for coherent
verification followed by rewinding.

Each verify key maps the (sn, sig) labels it accepted to their accept
vectors, so a branch costs one lookup. A miss runs detsig.verify, then
decodes the subspace; the map follows detsig's store rule and cap.

Same caveat as the banknote layer: serial numbers expose their subspace
in the clear, so nothing here is presumed unforgeable beyond the toy
counterfeiting games in this module.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import detsig
from .hilbert import HybridState, StateVector, basis_state, measure
from .minischeme import mini_gen, note_state, randomness_len, subspace_from_sn
# pprf_eval stays bound here as coin.pprf_eval, a binding that
# perfbench/tests/test_tracing.py checks the tracer restores
from .primitives import PprfKey, pprf_eval, pprf_eval_many, pprf_gen  # noqa: F401
from .prs import PrsKey, prs_amplitudes, prs_setup

MAX_ID_BITS = 6
MAX_MINI_BITS = 10
MAX_COINS_ISSUED = 4

# fixed signer message width: serial numbers are hashed down to 40 bits
# before signing, the usual arbitrary-length-message composition
SN_MESSAGE_BITS = 40

TAG_BITS = 64
# 16-bit link digests keep signing cheap; tamper rejection rests on
# preimages, not on the digest width
DIGEST_BITS = 16


@dataclass(frozen=True)
class CoinParams:
    id_bits: int = 4
    mini_n: int = 8


@dataclass(frozen=True)
class CoinSecretKey:
    variant: str
    sgk: detsig.TreeSigSecretKey
    prf: PprfKey
    prs_key: PrsKey | None
    id_bits: int
    mini_n: int


@dataclass(frozen=True)
class CoinVerifyKey:
    variant: str
    vk: detsig.TreeSigVerifyKey
    id_bits: int
    mini_n: int
    # (sn, sig) of an accepted label -> its accept vector, None when sn
    # names no subspace of mini_n qubits
    _accepted: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)


@dataclass(frozen=True)
class Coin:
    state: HybridState


def _sn_message(sn: bytes) -> int:
    digest = hashlib.sha256(sn).digest()
    return int.from_bytes(digest[: SN_MESSAGE_BITS // 8], "big")


def coin_setup(variant: str, params: CoinParams | None = None,
               rng: np.random.Generator | None = None,
               ) -> tuple[CoinVerifyKey, CoinSecretKey]:
    if variant not in ("prs", "eqsup"):
        raise ValueError("variant must be 'prs' or 'eqsup'")
    if params is None:
        params = CoinParams()
    if rng is None:
        raise ValueError("coin_setup needs an rng")
    if not 1 <= params.id_bits <= MAX_ID_BITS:
        raise ValueError(f"id_bits must be in [1, {MAX_ID_BITS}]")
    if params.mini_n % 2 or not 2 <= params.mini_n <= MAX_MINI_BITS:
        raise ValueError(f"mini_n must be even and in [2, {MAX_MINI_BITS}]")
    prf = pprf_gen(params.id_bits, 8 * randomness_len(params.mini_n), rng)
    vk, sgk = detsig.setup(SN_MESSAGE_BITS, TAG_BITS, rng, digest_bits=DIGEST_BITS)
    prs_key = prs_setup(params.id_bits, rng) if variant == "prs" else None
    return (
        CoinVerifyKey(variant, vk, params.id_bits, params.mini_n),
        CoinSecretKey(variant, sgk, prf, prs_key, params.id_bits, params.mini_n),
    )


def gen_banknote(sk: CoinSecretKey) -> Coin:
    """One coin: branch x holds |x, sn_x, sig_x> with the banknote payload.

    Everything downstream of the keys is deterministic, so repeated calls
    return the identical pure state.
    """
    size = 1 << sk.id_bits
    if sk.variant == "prs":
        amps = prs_amplitudes(sk.prs_key)
    else:
        amps = np.full(size, 2.0 ** (-sk.id_bits / 2))
    terms = []
    for x, rand in enumerate(pprf_eval_many(sk.prf, range(size))):
        bank = mini_gen(sk.mini_n, rand)
        sig = detsig.sign(sk.sgk, _sn_message(bank.sn))
        terms.append(((x, bank.sn, sig.to_bytes()), complex(amps[x]), bank.note))
    return Coin(HybridState.from_terms(sk.mini_n, terms))


def _accept_vector(vk: CoinVerifyKey, sn: bytes, sig: bytes) -> np.ndarray | None:
    # a rejected label is whatever bytes its submitter chose, so it is
    # never stored
    key = (sn, sig)
    try:
        return vk._accepted[key]
    except KeyError:
        pass
    if not detsig.verify(vk.vk, _sn_message(sn), sig):
        return None
    try:
        space = subspace_from_sn(sn)
    except ValueError:
        vec = None
    else:
        vec = note_state(space).amplitudes if space.n == vk.mini_n else None
    if len(vk._accepted) < detsig.STORE_CAP:
        vk._accepted[key] = vec
    return vec


def coin_verify(vk: CoinVerifyKey, candidate: HybridState,
                ) -> tuple[int, HybridState | None, float]:
    """Apply the acceptance projector and report its exact probability.

    Branches survive when their label is (id, sn, sig) with a valid
    signature; the payload is projected onto the subspace state named by
    sn. Returns (bit, post-state, probability) where bit is 1 only for
    states lying in the acceptance subspace and the post-state is the
    renormalized projection (None when the probability is zero).
    """
    if candidate.payload_qubits != vk.mini_n:
        raise ValueError("payload register width does not match the scheme")
    kept = []
    prob = 0.0
    for label in candidate.labels():
        if len(label) != 3:
            raise ValueError("coin labels are (id, sn, sig) triples")
        ident, sn, sig = label
        if not isinstance(ident, int) or not isinstance(sn, bytes) \
                or not isinstance(sig, bytes):
            raise ValueError("coin labels are (id, sn, sig) triples")
        avec = _accept_vector(vk, sn, sig)
        if avec is None:
            continue
        coef = complex(np.vdot(avec, candidate.branch_vector(label)))
        if coef == 0:
            continue
        prob += abs(coef) ** 2
        kept.append((label, coef, avec))
    if not kept:
        return 0, None, 0.0
    bit = 1 if prob >= 1.0 - 1e-9 else 0
    scale = 1.0 / math.sqrt(prob)
    post = HybridState.from_terms(vk.mini_n, [
        (label, coef * scale, StateVector(vk.mini_n, avec))
        for label, coef, avec in kept
    ])
    return bit, post, float(min(prob, 1.0))


def _zero_pad_attack(vk: CoinVerifyKey, coins: list[HybridState],
                     rng: np.random.Generator) -> list[HybridState]:
    # read one coin's labels, then pad the leaked (id, sn, sig) with the
    # all-zero payload; the measured coin itself still verifies
    if not coins:
        raise ValueError("attack needs at least one issued coin")
    observed, collapsed = coins[0].measure_labels(rng)
    forged = HybridState.from_terms(
        vk.mini_n, [(observed, 1.0, basis_state(vk.mini_n, 0))])
    return [collapsed] + coins[1:] + [forged]


def _measure_clone_attack(vk: CoinVerifyKey, coins: list[HybridState],
                          rng: np.random.Generator) -> list[HybridState]:
    # collapse one coin fully classical and submit the readout twice
    if not coins:
        raise ValueError("attack needs at least one issued coin")
    observed, collapsed = coins[0].measure_labels(rng)
    payload = collapsed.branch_items()[0][2]
    outcome, _ = measure(payload, list(range(payload.num_qubits)), rng)
    note = HybridState.from_terms(
        vk.mini_n, [(observed, 1.0, basis_state(vk.mini_n, outcome))])
    return [note, note] + coins[1:]


def _null_attack(vk: CoinVerifyKey, coins: list[HybridState],
                 rng: np.random.Generator) -> list[HybridState]:
    # no key material: emit unsigned blanks for every demanded note
    blank = HybridState.from_terms(
        vk.mini_n, [((0, b"", b""), 1.0, basis_state(vk.mini_n, 0))])
    return [blank] * (len(coins) + 1)


ATTACKS: dict[str, Callable] = {
    "zero-pad": _zero_pad_attack,
    "measure-clone": _measure_clone_attack,
    "null": _null_attack,
}


def counterfeit_game(variant: str, t: int, attack, rng: np.random.Generator,
                     *, params: CoinParams | None = None,
                     trials: int = 1) -> dict:
    """Issue t identical coins, run the attack, verify its t+1 outputs.

    A trial succeeds when every submitted note passes a Born-sampled
    verification. The attack is re-run each trial against the original
    coins, so collapse randomness is fresh per trial. success reports
    whether any trial won; success_rate carries the statistics.
    """
    if not 0 <= t <= MAX_COINS_ISSUED:
        raise ValueError(f"t must be in [0, {MAX_COINS_ISSUED}]")
    if trials < 1:
        raise ValueError("trials must be positive")
    attack_name = attack if isinstance(attack, str) else getattr(
        attack, "__name__", "custom")
    attack_fn = ATTACKS[attack] if isinstance(attack, str) else attack
    vk, sk = coin_setup(variant, params, rng)
    # gen_banknote is deterministic: derive the state once, issue it t times
    coins = [gen_banknote(sk).state] * t if t else []
    successes = 0
    last_probs: list[float] = []
    for _ in range(trials):
        candidates = attack_fn(vk, list(coins), rng)
        if len(candidates) != t + 1:
            raise ValueError("attack must return exactly t+1 notes")
        ok = True
        last_probs = []
        for cand in candidates:
            _, _, p = coin_verify(vk, cand)
            last_probs.append(p)
            if not rng.random() < p:
                ok = False
        successes += ok
    rate = successes / trials
    return {
        "variant": variant,
        "t": t,
        "attack": attack_name,
        "id_bits": vk.id_bits,
        "mini_n": vk.mini_n,
        "trials": trials,
        "success": bool(successes),
        "success_rate": rate,
        "stderr": math.sqrt(rate * (1.0 - rate) / trials),
        "accept_probabilities": last_probs,
    }
