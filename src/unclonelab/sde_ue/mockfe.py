"""Mock public-key functional encryption, correctness only.

A ciphertext seals the plaintext under an authenticated symmetric layer
(sha256 keystream plus HMAC) held by the scheme instance. Functional
decryption keys are handles into a registry of python callables; Dec
authenticates the ciphertext, recovers the plaintext, and applies the
registered function. Anyone holding the instance can decrypt anything,
so the hiding property is explicitly vacuous. What the mock preserves
is the data flow Dec(KG(msk, f), Enc(pk, x)) = f(x), which is the part
the surrounding compiler exercises.

Key handles are random bytes checked on use: passing keys from one
instance to another fails loudly instead of silently decrypting under
the wrong registry.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..primitives import expand_stream, sha256, xor_bytes
from .fail import FAIL

_NONCE_LEN = 16
_MAC_LEN = 16

# registry guard: issuing unboundedly many keys in a loop is a bug in a
# desk-scale harness, not a use case
MAX_ISSUED_KEYS = 256


@dataclass
class MockFe:
    pk: bytes
    msk: bytes
    issued_keys: dict[bytes, tuple[bytes, Callable[[bytes], bytes]]] = field(
        default_factory=dict, repr=False
    )
    _seal_key: bytes = field(default=b"", repr=False)


def fe_setup(rng: np.random.Generator) -> MockFe:
    if rng is None:
        raise ValueError("fe_setup needs an rng")
    return MockFe(pk=rng.bytes(16), msk=rng.bytes(16), _seal_key=rng.bytes(32))


def fe_kg(fe: MockFe, msk: bytes, fn: Callable[[bytes], bytes],
          descriptor: bytes) -> bytes:
    """Register fn and return its key handle.

    The handle is derived from (msk, descriptor), so issuing a key for
    the same function descriptor twice yields the same handle: key
    generation stays classically determined when the caller's
    randomness is.
    """
    if msk != fe.msk:
        raise ValueError("master key does not belong to this instance")
    if not callable(fn):
        raise ValueError("functional key needs a callable")
    if len(fe.issued_keys) >= MAX_ISSUED_KEYS:
        raise ValueError("issued-key registry is full")
    handle = sha256(b"fskey" + msk + descriptor)[:16]
    fe.issued_keys[handle] = (descriptor, fn)
    return handle


def _keystream(seal_key: bytes, nonce: bytes, num_bytes: int) -> bytes:
    return expand_stream(sha256(seal_key + nonce), num_bytes)


def fe_enc(fe: MockFe, pk: bytes, x: bytes, rng: np.random.Generator) -> bytes:
    if pk != fe.pk:
        raise ValueError("public key does not belong to this instance")
    if rng is None:
        raise ValueError("fe_enc needs an rng")
    nonce = rng.bytes(_NONCE_LEN)
    body = xor_bytes(x, _keystream(fe._seal_key, nonce, len(x)))
    mac = hmac.new(fe._seal_key, nonce + body, "sha256").digest()[:_MAC_LEN]
    return nonce + body + mac


def fe_ct_len(plaintext_len: int) -> int:
    return _NONCE_LEN + plaintext_len + _MAC_LEN


def fe_dec(fe: MockFe, fsk: bytes, ct: bytes):
    """Authenticate ct, recover x, and return fn(x); FAIL on foreign bytes."""
    if fsk not in fe.issued_keys:
        raise ValueError("unknown functional key handle")
    if len(ct) < _NONCE_LEN + _MAC_LEN:
        return FAIL
    nonce = ct[:_NONCE_LEN]
    body = ct[_NONCE_LEN:-_MAC_LEN]
    mac = ct[-_MAC_LEN:]
    want = hmac.new(fe._seal_key, nonce + body, "sha256").digest()[:_MAC_LEN]
    if not hmac.compare_digest(mac, want):
        return FAIL
    x = xor_bytes(body, _keystream(fe._seal_key, nonce, len(body)))
    _, fn = fe.issued_keys[fsk]
    return fn(x)
