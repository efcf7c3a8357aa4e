"""Deterministic tree signatures with one-time keys at every prefix.

A message is an n-bit integer addressing a leaf of a depth-n binary tree.
Every tree prefix owns a one-time keypair; all of them except the root are
re-derived on demand from a puncturable PRF, so the secret key is constant
size and signing is a pure function of (sk, m). Each signature carries, per
level, both child verification keys and the parent's one-time signature over
their concatenation, then a PRF tag for the message signed by the leaf key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .primitives.ots import (
    OtsKeypair,
    ots_setup_from_seed,
    ots_sig_len,
    ots_sign,
    ots_verify,
    ots_vk_len,
)
from .primitives.pprf import PprfKey, pprf_eval, pprf_eval_many, pprf_gen

if TYPE_CHECKING:
    import numpy as np

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
    # tree node -> the one-time keypair derived there
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class TreeSigVerifyKey:
    vk_root: bytes
    n: int
    digest_bits: int
    tag_bits: int
    # tree node -> link bytes that passed ots_verify there
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
    if n < 1 or digest_bits < 1 or tag_bits < 8 or tag_bits % 8:
        raise ValueError("signature widths out of range")
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


def _prefix_input(node: int, n: int) -> int:
    # length byte then the prefix bits left-aligned in an n-bit field, so
    # prefixes of different depths never collide
    depth = node.bit_length() - 1
    return (depth << n) | (node ^ 1 << depth) << (n - depth)


def setup(n: int, tag_bits: int, rng: np.random.Generator,
          digest_bits: int = 24) -> tuple[TreeSigVerifyKey, TreeSigSecretKey]:
    if not 1 <= n <= MAX_MESSAGE_BITS:
        raise ValueError(f"message bits must be in [1, {MAX_MESSAGE_BITS}]")
    if tag_bits < 8 or tag_bits % 8:
        raise ValueError("tag_bits must be a positive multiple of 8")
    sk_root = ots_setup_from_seed(digest_bits, rng.bytes(32))
    key_prf = pprf_gen(8 + n, 256, rng)
    tag_prf = pprf_gen(n, tag_bits, rng)
    sk = TreeSigSecretKey(sk_root, key_prf, tag_prf, n, digest_bits, tag_bits)
    vk = TreeSigVerifyKey(sk_root.vk, n, digest_bits, tag_bits)
    return vk, sk


def sign(sk: TreeSigSecretKey, m: int) -> TreeSignature:
    if not 0 <= m < (1 << sk.n):
        raise ValueError("message out of range for this key")
    n = sk.n
    leaf = m | 1 << n
    # nodes by id prefix | 1 << depth: m's node at depth t is leaf >> (n - t),
    # its sibling node ^ 1 and its parent node >> 1. Of both children at
    # depths 1..n, the keypairs not yet cached derive from one PRF walk
    path = [leaf >> (n - t) for t in range(1, n + 1)]
    keys = {node: sk._cache.get(node) for on in path for node in (on, on ^ 1)}
    missing = [node for node, kp in keys.items() if kp is None]
    seeds = pprf_eval_many(sk.key_prf, [_prefix_input(node, n) for node in missing])
    for node, seed in zip(missing, seeds):
        keys[node] = ots_setup_from_seed(sk.digest_bits, seed)
        if len(sk._cache) < STORE_CAP:
            sk._cache[node] = keys[node]
    keys[1] = sk.sk_root
    links = []
    for node in path:
        pl0, pl1 = keys[node & ~1].vk, keys[node | 1].vk
        links.append((pl0, pl1, ots_sign(keys[node >> 1], pl0 + pl1)))
    y = pprf_eval(sk.tag_prf, m)
    isig = ots_sign(keys[leaf], y)
    return TreeSignature(tuple(links), y, isig)


# Verified-link store, one per verify key, in the manner of SPHINCS path
# reuse. It maps a tree node, by its integer id prefix | 1 << depth, to the
# link bytes that passed ots_verify there; the leaf check (y, isig) is node
# m | 1 << n. Entries are write-once and chained: a call stores a node only
# into an empty slot below the cap, and only while every level above it in
# this call matched its stored link or was stored by this call. So each
# stored link passed under the on-path child key inside its parent node's
# stored link (vk_root at depth 0), and while a call stays chained that is
# the blob's parent key too: a hit is one in-place compare of the stored
# link against the blob. The store is read only while the call is chained;
# from the first level that did not match, every level runs ots_verify.
# Only a check slices the parent, message and preimages from the blob. When
# a chained level meets a stored node and the blob repeats that link's
# message, the blob's preimages differ from the stored ones, which passed:
# the highest set bit of their XOR lies in the first preimage where the
# blob departs, and ots_verify checks that one first. That orders the
# checks and skips none: an accept still hashes all L preimages, and the
# verdict is the AND of the same checks.
def verify(vk: TreeSigVerifyKey, m: int, sig: TreeSignature | bytes) -> bool:
    """Whether sig, a TreeSignature or its bytes, signs m under vk.

    A TreeSignature counts only as the parse of its own bytes, so its
    fields must have the sizes signature_from_bytes gives them and its
    links must be tuples. Any other type of sig, bytearray and memoryview
    included, raises TypeError.
    """
    n = vk.n
    if not 0 <= m < (1 << n):
        return False
    vk_len = ots_vk_len(vk.digest_bits)
    sig_len = ots_sig_len(vk.digest_bits)
    tag_len = vk.tag_bits // 8
    if isinstance(sig, TreeSignature):
        # joined, mis-sized fields could shift into a blob of valid length
        blob = sig.to_bytes()
        try:  # raises on a wrong length, or on widths that setup refuses
            if signature_from_bytes(blob, n, vk.digest_bits, vk.tag_bits) != sig:
                return False
        except ValueError:
            return False
        sig = blob
    elif not isinstance(sig, bytes):
        raise TypeError(f"signature must be bytes or a TreeSignature, "
                        f"got {type(sig).__name__}")
    if len(sig) != signature_len(n, vk.digest_bits, vk.tag_bits):
        return False
    store = vk._verified
    step = 2 * vk_len + sig_len
    leaf = m | 1 << n  # the node id at depth t is leaf >> (n - t)
    chained = True  # every level so far matched its stored link or was stored
    for t in range(n + 1):
        off = t * step
        node = leaf >> (n - t)
        hit = store.get(node) if chained else None
        if hit is None or not sig.startswith(hit, off):
            # the parent key is vk_root at depth 0, else m's child key in
            # link t - 1
            parent_at = off - step + (node & 1) * vk_len
            parent = vk.vk_root if t == 0 else sig[parent_at : parent_at + vk_len]
            split = off + (2 * vk_len if t < n else tag_len)
            end = split + sig_len
            first = 0
            if hit is not None and sig.startswith(memoryview(hit)[: split - off], off):
                gap = (int.from_bytes(sig[split:end], "big")
                       ^ int.from_bytes(hit[split - off :], "big"))
                first = (sig_len - (gap.bit_length() + 7) // 8) // 32
            if not ots_verify(parent, sig[off:split], sig[split:end],
                              vk.digest_bits, first):
                return False
            chained = chained and hit is None and len(store) < STORE_CAP
            if chained:
                store[node] = sig[off:end]
    return True
