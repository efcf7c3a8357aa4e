"""Collusion-resistant decryptor encryption from a single-key mock.

Composition: the master keypair is a mock functional-encryption
keypair. Every decryption key wraps a fresh single-key instance plus a
functional key for the re-encryption function of that instance, so a
ciphertext is a functional sealing of (message, PRF key, mode, spare
public-key slot, spare ciphertext slot). Honest encryption always seals
mode 0 with zeroed spare slots; the other modes and slots exist so that
the re-encryption function's full branch table is exercised directly in
tests. Key generation is a function of its randomness bytes. Decryption
applies the functional key, which re-encrypts the message under the
wrapped single-key instance with PRF-derived randomness, then opens that
inner ciphertext; None stands for a failed MAC at either layer.

The re-encryption branch table, given constants one_pk with tag t and
input fields (m, K, mode, one_pk', one_ct*), with t' the tag of
one_pk' and all randomness F_K(one_pk):

  mode 0:          encrypt m
  mode 1, t <= t': encrypt zeros     mode 1, t > t': encrypt m
  mode 2, t <  t': encrypt zeros
  mode 2, t == t': output one_ct* verbatim
  mode 2, t >  t': encrypt m

Tag comparison is lexicographic on the 16-byte tags. F_K is evaluated
at the first 64 bits of sha256(one_pk), folding the variable-width
public key into the PRF domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hilbert.states import StateVector
from ..primitives.hashes import sha256
from ..primitives.pprf import (
    PprfKey,
    pprf_eval,
    pprf_gen,
    pprf_key_from_bytes,
    pprf_key_to_bytes,
)
from .mockfe import MockFe, fe_ct_len, fe_dec, fe_enc, fe_kg, fe_setup
from .onesde import (
    MockOneSde,
    one_ct_len,
    one_dec,
    one_enc,
    one_pk_len,
    one_setup,
    tag_of_pk,
)

_PPRF_KEY_LEN = 35  # fixed serialization width

MAX_MESSAGE_BITS = 16

PRF_INPUT_BITS = 64
# the inner encryption consumes exactly 16 randomness bytes
PRF_OUTPUT_BITS = 128


@dataclass(frozen=True)
class SdeConfig:
    message_bits: int = 4
    mini_n = 8  # qubits of the one-shot SDE's subspace note, alike for every config

    def __post_init__(self):
        if not 1 <= self.message_bits <= MAX_MESSAGE_BITS:
            raise ValueError(f"message_bits must be in [1, {MAX_MESSAGE_BITS}]")

    @property
    def msg_len(self) -> int:
        return (self.message_bits + 7) // 8

    @property
    def pk_len(self) -> int:
        return one_pk_len(self.mini_n)

    @property
    def inner_ct_len(self) -> int:
        return one_ct_len(self.msg_len)

    @property
    def input_len(self) -> int:
        return self.msg_len + _PPRF_KEY_LEN + 1 + self.pk_len + self.inner_ct_len


@dataclass(frozen=True)
class ReInput:
    m: bytes
    key: bytes
    mode: int
    one_pk: bytes
    one_ct: bytes


def message_to_bytes(config: SdeConfig, m) -> bytes:
    """Normalize an int or bytes message to the configured width."""
    value = m
    if isinstance(m, bytes):
        if len(m) != config.msg_len:
            raise ValueError(f"message must be {config.msg_len} bytes")
        value = int.from_bytes(m, "big")
    elif not isinstance(m, int):
        raise ValueError("message must be int or bytes")
    if not 0 <= value < (1 << config.message_bits):
        raise ValueError(f"message out of range for {config.message_bits} bits")
    return value.to_bytes(config.msg_len, "big")


def random_message(config: SdeConfig, rng: np.random.Generator) -> bytes:
    """A uniform message of the configured width, as message bytes."""
    value = int.from_bytes(rng.bytes(config.msg_len), "big")
    return (value & ((1 << config.message_bits) - 1)).to_bytes(config.msg_len, "big")


def re_input_to_bytes(x: ReInput, config: SdeConfig) -> bytes:
    if len(x.m) != config.msg_len:
        raise ValueError("message field has the wrong width")
    if len(x.key) != _PPRF_KEY_LEN:
        raise ValueError("PRF key field has the wrong width")
    if not 0 <= x.mode <= 255:
        raise ValueError("mode must fit one byte")
    if len(x.one_pk) != config.pk_len:
        raise ValueError("public-key field has the wrong width")
    if len(x.one_ct) != config.inner_ct_len:
        raise ValueError("ciphertext field has the wrong width")
    return x.m + x.key + bytes([x.mode]) + x.one_pk + x.one_ct


def re_input_from_bytes(data: bytes, config: SdeConfig) -> ReInput:
    if len(data) != config.input_len:
        raise ValueError(f"input must be {config.input_len} bytes")
    off = config.msg_len
    m = data[:off]
    key = data[off:off + _PPRF_KEY_LEN]
    off += _PPRF_KEY_LEN
    mode = data[off]
    off += 1
    pk = data[off:off + config.pk_len]
    off += config.pk_len
    return ReInput(m=m, key=key, mode=mode, one_pk=pk, one_ct=data[off:])


def _prf_randomness(key: PprfKey, one_pk: bytes) -> bytes:
    point = int.from_bytes(sha256(one_pk)[:8], "big") >> (64 - key.input_bits)
    return pprf_eval(key, point)


def re_eval(one: MockOneSde, data: bytes, config: SdeConfig) -> bytes:
    """Run the re-encryption branch table of instance one on encoded input."""
    x = re_input_from_bytes(data, config)
    if x.mode not in (0, 1, 2):
        raise ValueError(f"malformed mode {x.mode}")
    rand = _prf_randomness(pprf_key_from_bytes(x.key), one.one_pk)
    zeros = bytes(len(x.m))
    if x.mode == 0:
        return one_enc(one.one_pk, x.m, rand)
    other = tag_of_pk(x.one_pk)
    if x.mode == 1:
        return one_enc(one.one_pk, zeros if one.tag <= other else x.m, rand)
    if one.tag < other:
        return one_enc(one.one_pk, zeros, rand)
    if one.tag == other:
        return x.one_ct
    return one_enc(one.one_pk, x.m, rand)


@dataclass
class Sde:
    fe: MockFe
    config: SdeConfig

    @property
    def pk(self) -> bytes:
        return self.fe.pk

    @property
    def msk(self) -> bytes:
        return self.fe.msk


@dataclass(frozen=True)
class SdeSecretKey:
    one_sk: tuple[StateVector, bytes]
    fsk: bytes
    # public half of the wrapped instance, kept for inspection
    one_pk: bytes
    tag: bytes


def sde_setup(config: SdeConfig, rng: np.random.Generator) -> Sde:
    if rng is None:
        raise ValueError("sde_setup needs an rng")
    return Sde(fe=fe_setup(rng), config=config)


def sde_kg(sde: Sde, msk: bytes, randomness: bytes) -> SdeSecretKey:
    """Issue a decryption key: fresh single-key instance + functional key.

    The output is classically determined: the same randomness bytes
    reproduce the same instance, note amplitudes, and key handle.
    """
    config = sde.config
    one = one_setup(config.mini_n, randomness)

    def fn(xb: bytes) -> bytes:
        return re_eval(one, xb, config)

    fsk = fe_kg(sde.fe, msk, fn, descriptor=one.one_pk)
    return SdeSecretKey(one_sk=one.one_sk, fsk=fsk, one_pk=one.one_pk, tag=one.tag)


def sde_enc(sde: Sde, pk: bytes, m, rng: np.random.Generator) -> bytes:
    config = sde.config
    m = message_to_bytes(config, m)
    if rng is None:
        raise ValueError("sde_enc needs an rng")
    prf = pprf_gen(PRF_INPUT_BITS, PRF_OUTPUT_BITS, rng)
    x = ReInput(
        m=m,
        key=pprf_key_to_bytes(prf),
        mode=0,
        one_pk=bytes(config.pk_len),
        one_ct=bytes(config.inner_ct_len),
    )
    return fe_enc(sde.fe, pk, re_input_to_bytes(x, config), rng)


def sde_dec(sde: Sde, sk: SdeSecretKey, ct: bytes):
    """Decrypt via the functional key; None on foreign ciphertexts."""
    inner = fe_dec(sde.fe, sk.fsk, ct)
    return None if inner is None else one_dec(sk.one_sk, inner)


def sde_ct_len(config: SdeConfig) -> int:
    return fe_ct_len(config.input_len)
