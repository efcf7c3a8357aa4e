"""Mock single-key decryptor encryption over subspace banknotes.

Each instance owns a 16-byte ordering tag, a 16-byte token, and a
subspace banknote. The public key serializes tag, token, and serial
number together so that the re-encryption function, which sees only
public-key bytes, can both order instances by tag and encrypt to them.
The decryption key pairs the banknote state (the quantum part handed
around by the surrounding compiler) with the token (the classical part
that actually decrypts). Embedding the token in the public key makes
the scheme's secrecy vacuous by construction; only the interface shape
and correctness are meant.

Key generation is classically determined: the same randomness bytes
reproduce the same tag, token, subspace, and therefore the same note
amplitudes. Encryption takes explicit randomness for the same reason,
so a caller deriving it from a PRF gets bit-identical ciphertexts.

Dec authenticates the token via the ciphertext MAC and returns None on
foreign bytes. It does not measure the note, where a real scheme would
consume its quantum key.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from ..hilbert.states import StateVector
from ..minischeme import (
    note_state,
    randomness_len,
    sn_bytes,
    sn_len,
    subspace_from_randomness,
)
from ..primitives.hashes import expand_stream, sha256, xor_bytes

TAG_LEN = 16
_TOKEN_LEN = 16
_ENC_R_LEN = 16
_MAC_LEN = 16

MIN_SETUP_RANDOMNESS = 8


@dataclass(frozen=True)
class MockOneSde:
    one_pk: bytes
    one_sk: tuple[StateVector, bytes]
    tag: bytes


def one_pk_len(n: int) -> int:
    return TAG_LEN + _TOKEN_LEN + sn_len(n)


def one_ct_len(msg_len: int) -> int:
    return _ENC_R_LEN + msg_len + _MAC_LEN


def tag_of_pk(pk: bytes) -> bytes:
    if len(pk) < TAG_LEN:
        raise ValueError("public key too short to carry a tag")
    return pk[:TAG_LEN]


def _token_of_pk(pk: bytes) -> bytes:
    return pk[TAG_LEN:TAG_LEN + _TOKEN_LEN]


def one_setup(n: int, randomness: bytes) -> MockOneSde:
    """Derive a full instance from explicit randomness, deterministically."""
    if len(randomness) < MIN_SETUP_RANDOMNESS:
        raise ValueError(f"setup randomness must be >= {MIN_SETUP_RANDOMNESS} bytes")
    stream = expand_stream(sha256(b"onekey" + randomness),
                           TAG_LEN + _TOKEN_LEN + randomness_len(n))
    tag = stream[:TAG_LEN]
    token = stream[TAG_LEN:TAG_LEN + _TOKEN_LEN]
    space = subspace_from_randomness(n, stream[TAG_LEN + _TOKEN_LEN:])
    pk = tag + token + sn_bytes(space)
    return MockOneSde(one_pk=pk, one_sk=(note_state(space), token), tag=tag)


def one_enc(pk: bytes, m: bytes, randomness: bytes) -> bytes:
    """Encrypt m to pk; deterministic in (pk, m, randomness)."""
    if len(randomness) != _ENC_R_LEN:
        raise ValueError(f"encryption randomness must be {_ENC_R_LEN} bytes")
    token = _token_of_pk(pk)
    stream = expand_stream(sha256(b"onectr" + token + randomness), len(m))
    body = xor_bytes(m, stream)
    mac = hmac.new(token, randomness + body, "sha256").digest()[:_MAC_LEN]
    return randomness + body + mac


def one_dec(one_sk: tuple[StateVector, bytes], ct: bytes):
    """Token-check ct and recover m; None on foreign bytes."""
    _, token = one_sk
    if len(ct) < _ENC_R_LEN + _MAC_LEN:
        return None
    r = ct[:_ENC_R_LEN]
    body = ct[_ENC_R_LEN:-_MAC_LEN]
    mac = ct[-_MAC_LEN:]
    want = hmac.new(token, r + body, "sha256").digest()[:_MAC_LEN]
    if not hmac.compare_digest(mac, want):
        return None
    stream = expand_stream(sha256(b"onectr" + token + r), len(body))
    return xor_bytes(body, stream)
