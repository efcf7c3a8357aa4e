"""Unclonable-encryption layer: ciphertexts and keys swap roles.

The encryption key holds the decryptor-scheme master key plus a random
pad s; the decryption key IS a decryptor-scheme ciphertext hiding s.
Encrypting a message issues a fresh decryption-key instance and sends
it along with m xor s; whoever holds the pad ciphertext can open it
with the shipped instance and strip the pad. The quantum part of a
ciphertext is therefore the issued key's banknote state, which is what
makes the ciphertext the unclonable object in this layer.

ue_enc is classically determined whenever the caller supplies the key
generation randomness explicitly: the same bytes reproduce the same
instance (note amplitudes included) and the masking is deterministic.

The ekdk wrapper makes the two keys identical: both become a random
string s as long as a decryption key, and each ciphertext carries the
real decryption key one-time-padded under s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..primitives.hashes import xor_bytes
from .compiler import (
    Sde,
    SdeSecretKey,
    message_to_bytes,
    random_message,
    sde_ct_len,
    sde_dec,
    sde_enc,
    sde_kg,
)
from .fail import FAIL


@dataclass(frozen=True)
class UeKeys:
    ek: tuple[bytes, bytes]
    dk: bytes


@dataclass(frozen=True)
class UeCiphertext:
    sde_sk: SdeSecretKey
    masked: bytes


def ue_kg(sde: Sde, rng: np.random.Generator) -> UeKeys:
    if rng is None:
        raise ValueError("ue_kg needs an rng")
    s = random_message(sde.config, rng)
    dk = sde_enc(sde, sde.pk, s, rng)
    return UeKeys(ek=(sde.msk, s), dk=dk)


def ue_enc(sde: Sde, ek: tuple[bytes, bytes], m,
           rng: np.random.Generator | None = None, *,
           kg_randomness: bytes | None = None) -> UeCiphertext:
    msk, s = ek
    m = message_to_bytes(sde.config, m)
    sk = sde_kg(sde, msk, rng, randomness=kg_randomness)
    return UeCiphertext(sde_sk=sk, masked=xor_bytes(m, s))


def ue_dec(sde: Sde, dk: bytes, ct: UeCiphertext):
    s = sde_dec(sde, ct.sde_sk, dk)
    if s is FAIL:
        return FAIL
    return xor_bytes(ct.masked, s)


# -- identical encryption and decryption keys ---------------------------------


@dataclass(frozen=True)
class EkdkCiphertext:
    inner: UeCiphertext
    pad: bytes


@dataclass
class EkdkUe:
    """Wrapper scheme whose encryption and decryption keys coincide."""

    sde: Sde
    pad_len: int

    def kg(self, rng: np.random.Generator) -> tuple[bytes, bytes]:
        if rng is None:
            raise ValueError("kg needs an rng")
        s = rng.bytes(self.pad_len)
        return s, s

    def enc(self, ek_prime: bytes, m, rng: np.random.Generator) -> EkdkCiphertext:
        if len(ek_prime) != self.pad_len:
            raise ValueError(f"key must be {self.pad_len} bytes")
        keys = ue_kg(self.sde, rng)
        inner = ue_enc(self.sde, keys.ek, m, rng)
        return EkdkCiphertext(inner=inner, pad=xor_bytes(keys.dk, ek_prime))

    def dec(self, dk_prime: bytes, ct: EkdkCiphertext):
        if len(dk_prime) != self.pad_len:
            raise ValueError(f"key must be {self.pad_len} bytes")
        dk = xor_bytes(dk_prime, ct.pad)
        return ue_dec(self.sde, dk, ct.inner)


def ue_ekdk_transform(sde: Sde) -> EkdkUe:
    """Wrap the role-swapped scheme so that ek and dk are one string.

    The pad length equals the decryption-key length, which is the fixed
    ciphertext width of the underlying decryptor scheme.
    """
    return EkdkUe(sde=sde, pad_len=sde_ct_len(sde.config))
