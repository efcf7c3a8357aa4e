"""Lamport one-time signatures with hash-then-sign.

Messages of any length are first hashed; the first L digest bits select one
preimage per position. Keypairs derive deterministically from a 32-byte seed,
so a PRF output can stand in for the key-generation randomness.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .hashes import TAG_OTS, sha256

__all__ = [
    "OtsKeypair",
    "ots_setup_from_seed",
    "ots_gen",
    "ots_sign",
    "ots_verify",
    "ots_vk_len",
    "ots_sig_len",
]


@dataclass(frozen=True)
class OtsKeypair:
    """sk and vk are 2 x L tables of 32-byte strings with vk[b][i] = H(sk[b][i])."""

    L: int
    sk: tuple[tuple[bytes, ...], tuple[bytes, ...]]
    vk: tuple[tuple[bytes, ...], tuple[bytes, ...]]

    def vk_bytes(self) -> bytes:
        return b"".join(self.vk[0]) + b"".join(self.vk[1])


def ots_vk_len(L: int) -> int:
    return 2 * L * 32


def ots_sig_len(L: int) -> int:
    return L * 32


# the (bit, position) tail of every hashes.ots_preimage input, per bit
_PREIMAGE_SUFFIXES = tuple(
    tuple(bytes([b]) + struct.pack("<H", i) for i in range(256)) for b in (0, 1)
)


def ots_setup_from_seed(L: int, seed: bytes) -> OtsKeypair:
    if not 1 <= L <= 256:
        raise ValueError("digest length L must be in [1, 256]")
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    # sk[b][i] is hashes.ots_preimage(seed, b, i)
    prefix = TAG_OTS + seed
    sk = tuple(
        tuple(sha256(prefix + suffix) for suffix in row[:L])
        for row in _PREIMAGE_SUFFIXES
    )
    vk = tuple(tuple(sha256(p) for p in row) for row in sk)
    return OtsKeypair(L, sk, vk)


def ots_gen(L: int, rng: np.random.Generator) -> OtsKeypair:
    return ots_setup_from_seed(L, rng.bytes(32))


def _digest_bits(message: bytes, L: int) -> list[int]:
    digest = int.from_bytes(sha256(message), "big")
    return [(digest >> (255 - i)) & 1 for i in range(L)]


def ots_sign(keypair: OtsKeypair, message: bytes) -> bytes:
    bits = _digest_bits(message, keypair.L)
    return b"".join(keypair.sk[bit][i] for i, bit in enumerate(bits))


def ots_verify(vk_bytes: bytes, message: bytes, sig: bytes, L: int,
               first: int = 0) -> bool:
    """Whether sig signs message under vk_bytes: every one of the L
    preimages hashes to its vk entry.

    first only orders the checks: preimages first, first + 1, ..., L - 1,
    then 0, ..., first - 1, so a caller that knows which preimage is
    likely bad can reject it at once. The verdict does not depend on it;
    a first outside [0, L) raises ValueError.
    """
    if not 1 <= L <= 256:
        return False
    if not 0 <= first < L:
        raise ValueError("first preimage to check must be in [0, L)")
    if len(vk_bytes) != ots_vk_len(L) or len(sig) != ots_sig_len(L):
        return False
    # position i's bit is digest bit 255 - i; read each as it is needed and
    # stop at the first preimage that does not hash to its vk entry
    digest = int.from_bytes(sha256(message), "big")
    for i in range(first, first + L):
        i %= L
        at = 32 * ((digest >> (255 - i) & 1) * L + i)
        if not vk_bytes.startswith(sha256(sig[32 * i : 32 * i + 32]), at):
            return False
    return True
