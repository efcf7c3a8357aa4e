"""GGM puncturable PRF over a binary tree of hash-derived seeds.

Evaluation descends from the root by the input's bits (most significant
first), applying the length-doubling PRG at each level, then expands the leaf
seed to the output width. pprf_eval_many evaluates a full key at many inputs
in one walk over the trie of their paths: it visits the inputs in sorted
order and keeps the seeds along the previous input's path, so each input
descends only below the longest prefix it shares with its predecessor and
every tree node is hashed exactly once. pprf_eval on a full key is the
one-input walk. Puncturing at a set S hands out the seeds of the maximal
subtrees covering everything outside S's root-to-leaf paths (the copath),
which reproduces every value except those at S.

Outputs are byte strings of ceil(output_bits / 8) bytes holding the first
output_bits bits MSB-first; trailing pad bits are zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .hashes import expand_stream, prg_child

__all__ = [
    "MAX_INPUT_BITS",
    "MAX_OUTPUT_BITS",
    "PprfKey",
    "PuncturedKey",
    "PuncturedPointError",
    "pprf_gen",
    "pprf_eval",
    "pprf_eval_many",
    "pprf_puncture",
    "pprf_key_to_bytes",
    "pprf_key_from_bytes",
    "punctured_key_to_bytes",
    "punctured_key_from_bytes",
]

MAX_INPUT_BITS = 64
MAX_OUTPUT_BITS = 0xFFFF  # both key encodings pack output_bits as uint16


class PuncturedPointError(ValueError):
    """Raised when evaluating a punctured key at a punctured point."""


def _check_params(input_bits: int, output_bits: int) -> None:
    if not 1 <= input_bits <= MAX_INPUT_BITS:
        raise ValueError(f"input_bits must be in [1, {MAX_INPUT_BITS}]")
    if not 1 <= output_bits <= MAX_OUTPUT_BITS:
        raise ValueError(f"output_bits must be in [1, {MAX_OUTPUT_BITS}]")


@dataclass(frozen=True)
class PprfKey:
    root_seed: bytes
    input_bits: int
    output_bits: int

    def __post_init__(self):
        if len(self.root_seed) != 32:
            raise ValueError("root seed must be 32 bytes")
        _check_params(self.input_bits, self.output_bits)


@dataclass(frozen=True)
class PuncturedKey:
    """Copath seeds keyed by tree position (depth, index); depth 1 is below the root."""

    punctured_set: tuple[int, ...]
    copath_nodes: dict[tuple[int, int], bytes]
    input_bits: int
    output_bits: int

    def __post_init__(self):
        _check_params(self.input_bits, self.output_bits)
        if not self.punctured_set:
            raise ValueError("punctured set must be non-empty")


def pprf_gen(input_bits: int, output_bits: int, rng: np.random.Generator) -> PprfKey:
    _check_params(input_bits, output_bits)
    return PprfKey(rng.bytes(32), input_bits, output_bits)


def _expand_output(leaf_seed: bytes, output_bits: int) -> bytes:
    out = bytearray(expand_stream(leaf_seed, (output_bits + 7) // 8))
    pad = 8 * len(out) - output_bits
    if pad:
        out[-1] &= 0xFF << pad
    return bytes(out)


def _check_input(key: PprfKey | PuncturedKey, x: int) -> None:
    if not 0 <= x < (1 << key.input_bits):
        raise ValueError(f"input {x} out of range for {key.input_bits} bits")


def pprf_eval_many(key: PprfKey, xs) -> list[bytes]:
    """pprf_eval(key, x) for every x in xs, in order, from one trie walk.

    Duplicates and unsorted inputs are allowed; each distinct tree node on
    the inputs' paths costs one PRG call and each distinct input one output
    expansion.
    """
    xs = list(xs)
    for x in xs:
        _check_input(key, x)
    bits = key.input_bits
    outputs: dict[int, bytes] = {}
    path = [key.root_seed]  # path[d]: seed at depth d on the last input's path
    prev = None
    for x in sorted(set(xs)):
        # the previous input's seeds stay valid down to the deepest shared node
        shared = 0 if prev is None else bits - (x ^ prev).bit_length()
        del path[shared + 1:]
        seed = path[shared]
        for d in range(shared, bits):
            seed = prg_child(seed, (x >> (bits - 1 - d)) & 1)
            path.append(seed)
        outputs[x] = _expand_output(seed, key.output_bits)
        prev = x
    return [outputs[x] for x in xs]


def pprf_eval(key: PprfKey | PuncturedKey, x: int) -> bytes:
    if isinstance(key, PprfKey):
        return pprf_eval_many(key, (x,))[0]
    _check_input(key, x)
    if x in key.punctured_set:
        raise PuncturedPointError(f"input {x} is a punctured point")
    # Find the copath subtree containing x, then walk the remaining levels.
    for depth in range(1, key.input_bits + 1):
        node = (depth, x >> (key.input_bits - depth))
        seed = key.copath_nodes.get(node)
        if seed is not None:
            for d in range(depth, key.input_bits):
                seed = prg_child(seed, (x >> (key.input_bits - 1 - d)) & 1)
            return _expand_output(seed, key.output_bits)
    raise PuncturedPointError(f"no copath node covers input {x}")


def _check_punctured(punctured, input_bits: int) -> None:
    # PuncturedKey itself rejects an empty set
    if len(punctured) > 64:
        raise ValueError("punctured set too large for desk scale")
    if len(set(punctured)) != len(punctured):
        raise ValueError("duplicate entries in punctured set")
    for x in punctured:
        if not 0 <= x < (1 << input_bits):
            raise ValueError(f"punctured input {x} out of range")


def pprf_puncture(key: PprfKey, punctured: list[int]) -> PuncturedKey:
    _check_punctured(punctured, key.input_bits)
    # one top-down pass: an on-path node's children are on-path seeds (never
    # a punctured leaf itself) or copath seeds, one PRG call each
    bits = key.input_bits
    copath: dict[tuple[int, int], bytes] = {}
    level = {0: key.root_seed}  # on-path seeds one level up, by index
    for depth in range(1, bits + 1):
        on_path = {x >> (bits - depth) for x in punctured}
        below = {}
        for index, seed in level.items():
            for bit in (0, 1):
                child = (index << 1) | bit
                if child not in on_path:
                    copath[(depth, child)] = prg_child(seed, bit)
                elif depth < bits:
                    below[child] = prg_child(seed, bit)
        level = below
    return PuncturedKey(
        tuple(sorted(punctured)), copath, key.input_bits, key.output_bits
    )


# -- canonical byte encodings (little-endian, length-prefixed) ----------------


def pprf_key_to_bytes(key: PprfKey) -> bytes:
    return struct.pack("<BH", key.input_bits, key.output_bits) + key.root_seed


def pprf_key_from_bytes(data: bytes) -> PprfKey:
    if len(data) != 3 + 32:
        raise ValueError("malformed PPRF key encoding")
    input_bits, output_bits = struct.unpack_from("<BH", data, 0)
    return PprfKey(data[3:], input_bits, output_bits)


def punctured_key_to_bytes(key: PuncturedKey) -> bytes:
    parts = [
        struct.pack(
            "<BHHH",
            key.input_bits,
            key.output_bits,
            len(key.punctured_set),
            len(key.copath_nodes),
        )
    ]
    for x in key.punctured_set:
        parts.append(struct.pack("<Q", x))
    for (depth, index) in sorted(key.copath_nodes):
        parts.append(struct.pack("<BQ", depth, index) + key.copath_nodes[(depth, index)])
    return b"".join(parts)


def punctured_key_from_bytes(data: bytes) -> PuncturedKey:
    if len(data) < 7:
        raise ValueError("truncated punctured key encoding")
    input_bits, output_bits, num_punctured, num_nodes = struct.unpack_from("<BHHH", data, 0)
    size = 7 + 8 * num_punctured + (9 + 32) * num_nodes
    if len(data) < size:
        raise ValueError("truncated punctured key encoding")
    punctured = struct.unpack_from(f"<{num_punctured}Q", data, 7)
    _check_punctured(punctured, input_bits)
    off = 7 + 8 * num_punctured
    nodes = {}
    for _ in range(num_nodes):
        nodes[struct.unpack_from("<BQ", data, off)] = data[off + 9 : off + 41]
        off += 41
    key = PuncturedKey(tuple(sorted(punctured)), nodes, input_bits, output_bits)
    # the points are in range, so this also keeps every node inside the tree
    if set(nodes) != _copath(input_bits, punctured):
        raise ValueError("copath nodes do not cover exactly the unpunctured inputs")
    # the key holds its points sorted and the encoder sorts its nodes, so
    # unsorted points, repeated or unsorted nodes and trailing bytes all
    # change the bytes
    if punctured_key_to_bytes(key) != data:
        raise ValueError("non-canonical punctured key encoding")
    return key


def _copath(input_bits: int, punctured) -> set[tuple[int, int]]:
    """Positions of the maximal subtrees that avoid every punctured path."""
    on_path = {(d, x >> (input_bits - d))
               for x in punctured for d in range(1, input_bits + 1)}
    return {(d, i ^ 1) for d, i in on_path} - on_path
