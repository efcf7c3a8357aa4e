"""Deterministic tree signatures with one-time keys at every prefix.

A message is an n-bit integer addressing a leaf of a depth-n binary tree.
Every tree prefix owns a one-time keypair; all of them except the root are
re-derived on demand from a puncturable PRF, so the secret key is constant
size and signing is a pure function of (sk, m). Each signature carries, per
level, both child verification keys and the parent's one-time signature over
their concatenation, then a PRF tag for the message signed by the leaf key.

A toy plus-one forgery game is included: an adversary with superposition
access to the signing oracle (as label-register XOR on a HybridState) must
produce one more distinct valid message/signature pair than its query budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import HybridState
from .primitives import (
    OtsKeypair,
    PprfKey,
    ots_gen,
    ots_setup_from_seed,
    ots_sig_len,
    ots_sign,
    ots_verify,
    ots_vk_len,
    pprf_eval,
    pprf_eval_many,
    pprf_gen,
)

MAX_MESSAGE_BITS = 56  # prefix encoding prepends a length byte

# One rule for every per-key store (the signer's keypairs, the verifier's
# links, the coin verifier's labels): keep derived keys or checks that
# passed, never a rejection, and stop growing at STORE_CAP entries. Read at
# call time, so one patch bounds all three.
STORE_CAP = 1 << 12


@dataclass(frozen=True)
class TreeSigSecretKey:
    sk_root: OtsKeypair
    key_prf: PprfKey         # derives per-prefix keypair seeds
    tag_prf: PprfKey         # n-bit message -> tag_bits tag
    n: int
    digest_bits: int
    tag_bits: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class TreeSigVerifyKey:
    vk_root: bytes
    n: int
    digest_bits: int
    tag_bits: int
    # tree node -> (parent vk, link bytes) of a link that passed ots_verify
    _verified: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)


@dataclass(frozen=True)
class TreeSignature:
    links: tuple[tuple[bytes, bytes, bytes], ...]  # (vk child 0, vk child 1, parent sig)
    y: bytes
    isig: bytes

    def to_bytes(self) -> bytes:
        return b"".join(b"".join(link) for link in self.links) + self.y + self.isig


def signature_len(n: int, digest_bits: int, tag_bits: int) -> int:
    vk_len = ots_vk_len(digest_bits)
    sig_len = ots_sig_len(digest_bits)
    return n * (2 * vk_len + sig_len) + tag_bits // 8 + sig_len


def signature_from_bytes(blob: bytes, n: int, digest_bits: int, tag_bits: int) -> TreeSignature:
    if len(blob) != signature_len(n, digest_bits, tag_bits):
        raise ValueError("signature blob has wrong length")
    vk_len = ots_vk_len(digest_bits)
    sig_len = ots_sig_len(digest_bits)
    links = []
    off = 0
    for _ in range(n):
        pl0 = blob[off : off + vk_len]
        pl1 = blob[off + vk_len : off + 2 * vk_len]
        sigpl = blob[off + 2 * vk_len : off + 2 * vk_len + sig_len]
        links.append((pl0, pl1, sigpl))
        off += 2 * vk_len + sig_len
    y = blob[off : off + tag_bits // 8]
    isig = blob[off + tag_bits // 8 :]
    return TreeSignature(tuple(links), y, isig)


def _prefix_input(depth: int, value: int, n: int) -> int:
    # length byte then the prefix bits left-aligned in an n-bit field, so
    # prefixes of different depths never collide
    return (depth << n) | (value << (n - depth))


def setup(n: int, tag_bits: int, rng: np.random.Generator,
          digest_bits: int = 24) -> tuple[TreeSigVerifyKey, TreeSigSecretKey]:
    if not 1 <= n <= MAX_MESSAGE_BITS:
        raise ValueError(f"message bits must be in [1, {MAX_MESSAGE_BITS}]")
    if tag_bits < 8 or tag_bits % 8:
        raise ValueError("tag_bits must be a positive multiple of 8")
    sk_root = ots_gen(digest_bits, rng)
    key_prf = pprf_gen(8 + n, 256, rng)
    tag_prf = pprf_gen(n, tag_bits, rng)
    sk = TreeSigSecretKey(sk_root, key_prf, tag_prf, n, digest_bits, tag_bits)
    vk = TreeSigVerifyKey(sk_root.vk_bytes(), n, digest_bits, tag_bits)
    return vk, sk


def sign(sk: TreeSigSecretKey, m: int) -> TreeSignature:
    if not 0 <= m < (1 << sk.n):
        raise ValueError("message out of range for this key")
    n = sk.n
    # both children of every prefix of m, (depth, value) for depth 1..n; the
    # keypairs not yet cached derive from one walk over their PRF inputs
    nodes = [(t, (m >> (n - t)) ^ side) for t in range(1, n + 1) for side in (0, 1)]
    keys = {node: sk._cache.get(node) for node in nodes}
    missing = [node for node, kp in keys.items() if kp is None]
    seeds = pprf_eval_many(sk.key_prf, [_prefix_input(t, v, n) for t, v in missing])
    for node, seed in zip(missing, seeds):
        keys[node] = ots_setup_from_seed(sk.digest_bits, seed)
        if len(sk._cache) < STORE_CAP:
            sk._cache[node] = keys[node]
    keys[(0, 0)] = sk.sk_root
    links = []
    for t in range(1, n + 1):
        parent_value = m >> (n - (t - 1))
        pl0 = keys[(t, parent_value << 1)].vk_bytes()
        pl1 = keys[(t, (parent_value << 1) | 1)].vk_bytes()
        links.append((pl0, pl1, ots_sign(keys[(t - 1, parent_value)], pl0 + pl1)))
    y = pprf_eval(sk.tag_prf, m)
    isig = ots_sign(keys[(n, m)], y)
    return TreeSignature(tuple(links), y, isig)


# Verified-link store, one per verify key, in the manner of SPHINCS path
# reuse. It maps a tree node, (depth, prefix of m), to the parent key and the
# link bytes that passed ots_verify there; the leaf check (y, isig) is node
# (n, m). A lookup hits only when both are byte-equal to the stored ones, so a
# hit stands for a check with exactly those inputs.
def _link_verified(vk: TreeSigVerifyKey, node: tuple[int, int], parent: bytes,
                   link: bytes, split: int) -> bool:
    store = vk._verified
    if store.get(node) == (parent, link):
        return True
    if not ots_verify(parent, link[:split], link[split:], vk.digest_bits):
        return False
    if len(store) < STORE_CAP:
        store[node] = (parent, link)
    return True


def verify(vk: TreeSigVerifyKey, m: int, sig: TreeSignature | bytes) -> bool:
    if not 0 <= m < (1 << vk.n):
        return False
    vk_len = ots_vk_len(vk.digest_bits)
    sig_len = ots_sig_len(vk.digest_bits)
    tag_len = vk.tag_bits // 8
    if isinstance(sig, (bytes, bytearray)):
        sig = bytes(sig)
    else:
        # check every field: joined, mis-sized fields could shift into a
        # blob of valid length
        if (len(sig.links) != vk.n
                or any(tuple(map(len, link)) != (vk_len, vk_len, sig_len)
                       for link in sig.links)
                or len(sig.y) != tag_len or len(sig.isig) != sig_len):
            return False
        sig = sig.to_bytes()
    if len(sig) != signature_len(vk.n, vk.digest_bits, vk.tag_bits):
        return False
    step = 2 * vk_len + sig_len
    current = vk.vk_root
    for t in range(vk.n):
        link = sig[t * step : (t + 1) * step]
        if not _link_verified(vk, (t, m >> (vk.n - t)), current, link, 2 * vk_len):
            return False
        side = (m >> (vk.n - 1 - t)) & 1
        current = link[side * vk_len : (side + 1) * vk_len]
    return _link_verified(vk, (vk.n, m), current, sig[vk.n * step :], tag_len)


class QueryBudgetExceeded(RuntimeError):
    pass


class SigningOracle:
    """Superposition signing access for the toy plus-one game.

    Branch labels are (message int, signature register bytes); a query XORs
    the signature of each branch's message into its signature register.
    """

    def __init__(self, sk: TreeSigSecretKey, budget: int):
        self._sk = sk
        self._budget = budget
        self.queries = 0
        self.sig_bytes = signature_len(sk.n, sk.digest_bits, sk.tag_bits)

    def _charge(self):
        if self.queries >= self._budget:
            raise QueryBudgetExceeded(f"query budget {self._budget} exhausted")
        self.queries += 1

    def query(self, state: HybridState) -> HybridState:
        self._charge()

        def xor_sig(label):
            m, w = label
            sig = sign(self._sk, m).to_bytes()
            return (m, bytes(a ^ b for a, b in zip(w, sig, strict=True)))

        return state.map_labels(xor_sig)

    def query_classical(self, m: int) -> bytes:
        self._charge()
        return sign(self._sk, m).to_bytes()

    def fresh_register(self, m: int) -> HybridState:
        # |m> with an all-zero signature register, ready for one query
        return HybridState.from_terms(0, [((m, bytes(self.sig_bytes)), 1.0, None)])


def bz_game_harness(adversary, k: int, rng: np.random.Generator, *,
                    n: int = 3, digest_bits: int = 4, tag_bits: int = 8,
                    query_budget: int | None = None) -> bool:
    """Run the plus-one forgery game: k oracle queries, k+1 pairs to win.

    The adversary callback receives (vk, oracle, rng) and returns a list of
    (message, signature bytes) pairs. It wins iff it returns exactly k+1
    pairs with pairwise-distinct messages that all verify. query_budget
    overrides the allowed query count (the game's k is unchanged), which
    lets tests hand an honest signer enough queries to demonstrate the
    verification path.
    """
    if n > 4:
        raise ValueError("toy game only supports n <= 4")
    if digest_bits > 8:
        raise ValueError("toy game only supports digest_bits <= 8")
    vk, sk = setup(n, tag_bits, rng, digest_bits=digest_bits)
    oracle = SigningOracle(sk, k if query_budget is None else query_budget)
    pairs = adversary(vk, oracle, rng)
    if len(pairs) != k + 1:
        return False
    messages = [m for m, _ in pairs]
    if len(set(messages)) != len(messages):
        return False
    return all(verify(vk, m, sig) for m, sig in pairs)
