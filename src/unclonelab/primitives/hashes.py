"""Domain-separated SHA-256 derivations shared by the classical primitives.

Single-byte prefixes keep every derivation context distinct:
0x00 left child, 0x01 right child (the GGM length-doubling PRG),
0x02 output expansion, 0x03 one-time-signature chains.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = [
    "TAG_LEFT",
    "TAG_RIGHT",
    "TAG_EXPAND",
    "TAG_OTS",
    "sha256",
    "prg_child",
    "expand_stream",
    "ots_preimage",
    "xor_bytes",
]

TAG_LEFT = b"\x00"
TAG_RIGHT = b"\x01"
TAG_EXPAND = b"\x02"
TAG_OTS = b"\x03"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def prg_child(seed: bytes, bit: int) -> bytes:
    """One half of the length-doubling PRG: the left (0) or right (1) child seed."""
    return sha256((TAG_RIGHT if bit else TAG_LEFT) + seed)


def expand_stream(seed: bytes, num_bytes: int) -> bytes:
    """Deterministic expansion of a seed to num_bytes via counter blocks."""
    blocks = []
    for counter in range((num_bytes + 31) // 32):
        blocks.append(sha256(TAG_EXPAND + seed + struct.pack("<I", counter)))
    return b"".join(blocks)[:num_bytes]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """a XOR b, byte by byte; unequal lengths raise ValueError."""
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def ots_preimage(seed: bytes, bit: int, position: int) -> bytes:
    """Secret preimage (bit, position) of a seed-derived one-time keypair."""
    return sha256(TAG_OTS + seed + bytes([bit]) + struct.pack("<H", position))
