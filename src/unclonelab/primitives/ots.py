"""Lamport one-time signatures with hash-then-sign.

Messages of any length are first hashed; the first L digest bits select one
preimage per position. Keypairs derive deterministically from a 32-byte seed,
so a PRF output can stand in for the key-generation randomness.

A keypair's secret and verify keys are each one byte string of 2L 32-byte
entries, row 0 then row 1: entry (b, i), the preimage or its hash for digest
bit b at position i, sits at offset 32 * (b * L + i). The verify key is the
byte string that detsig links carry and ots_verify reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .hashes import TAG_OTS, sha256

__all__ = [
    "MAX_DIGEST_BITS",
    "OtsKeypair",
    "ots_setup_from_seed",
    "ots_sign",
    "ots_verify",
    "ots_vk_len",
    "ots_sig_len",
]


@dataclass(frozen=True)
class OtsKeypair:
    """sk and vk are 2L x 32 bytes each, row 0 then row 1: entry (b, i) is
    at offset 32 * (b * L + i), and vk's entry is H of sk's entry."""

    L: int
    sk: bytes
    vk: bytes


def ots_vk_len(L: int) -> int:
    return 2 * L * 32


def ots_sig_len(L: int) -> int:
    return L * 32


# L ranges over [1, MAX_DIGEST_BITS], the bits of one SHA-256 digest;
# ots_verify, the verifier's hot path, spells the same bound as a literal
MAX_DIGEST_BITS = 256

# the (bit, position) tail of every preimage derivation input, per bit
_PREIMAGE_SUFFIXES = tuple(
    tuple(bytes([b]) + struct.pack("<H", i) for i in range(MAX_DIGEST_BITS))
    for b in (0, 1)
)


def ots_setup_from_seed(L: int, seed: bytes) -> OtsKeypair:
    if not 1 <= L <= MAX_DIGEST_BITS:
        raise ValueError(f"digest length L must be in [1, {MAX_DIGEST_BITS}]")
    if len(seed) != 32:
        raise ValueError("seed must be exactly 32 bytes")
    # entry (b, i) of sk is sha256(TAG_OTS + seed + bytes([b]) + i as <H)
    prefix = TAG_OTS + seed
    preimages = [sha256(prefix + suffix)
                 for row in _PREIMAGE_SUFFIXES for suffix in row[:L]]
    vk = b"".join([sha256(p) for p in preimages])
    return OtsKeypair(L, b"".join(preimages), vk)


def ots_sign(keypair: OtsKeypair, message: bytes) -> bytes:
    L, sk = keypair.L, keypair.sk
    # position i's bit is digest bit 255 - i, as ots_verify reads it
    digest = int.from_bytes(sha256(message), "big")
    at = [32 * ((digest >> (255 - i) & 1) * L + i) for i in range(L)]
    return b"".join([sk[a : a + 32] for a in at])


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
