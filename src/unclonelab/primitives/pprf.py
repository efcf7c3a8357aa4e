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


class PuncturedPointError(ValueError):
    """Raised when evaluating a punctured key at a punctured point."""


def _check_params(input_bits: int, output_bits: int) -> None:
    if not 1 <= input_bits <= MAX_INPUT_BITS:
        raise ValueError(f"input_bits must be in [1, {MAX_INPUT_BITS}]")
    if output_bits < 1:
        raise ValueError("output_bits must be positive")


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


def _descend(seed: bytes, bits: list[int]) -> bytes:
    for bit in bits:
        seed = prg_child(seed, bit)
    return seed


def _path_bits(x: int, input_bits: int) -> list[int]:
    return [(x >> (input_bits - 1 - d)) & 1 for d in range(input_bits)]


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
            rest = _path_bits(x, key.input_bits)[depth:]
            return _expand_output(_descend(seed, rest), key.output_bits)
    raise PuncturedPointError(f"no copath node covers input {x}")


def pprf_puncture(key: PprfKey, punctured: list[int]) -> PuncturedKey:
    if not punctured:
        raise ValueError("punctured set must be non-empty")
    if len(punctured) > 64:
        raise ValueError("punctured set too large for desk scale")
    if len(set(punctured)) != len(punctured):
        raise ValueError("duplicate entries in punctured set")
    for x in punctured:
        if not 0 <= x < (1 << key.input_bits):
            raise ValueError(f"punctured input {x} out of range")

    on_path = set()
    for x in punctured:
        for depth in range(1, key.input_bits + 1):
            on_path.add((depth, x >> (key.input_bits - depth)))
    copath: dict[tuple[int, int], bytes] = {}
    for x in punctured:
        for depth in range(1, key.input_bits + 1):
            sibling = (depth, (x >> (key.input_bits - depth)) ^ 1)
            if sibling not in on_path and sibling not in copath:
                prefix_bits = [(sibling[1] >> (depth - 1 - d)) & 1 for d in range(depth)]
                copath[sibling] = _descend(key.root_seed, prefix_bits)
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
    if len(data) > size:
        raise ValueError("trailing bytes in punctured key encoding")
    punctured = struct.unpack_from(f"<{num_punctured}Q", data, 7)
    for x in punctured:
        if x >= 1 << input_bits:
            raise ValueError(f"punctured input {x} out of range")
    off = 7 + 8 * num_punctured
    nodes = {}
    for _ in range(num_nodes):
        depth, index = struct.unpack_from("<BQ", data, off)
        if not 1 <= depth <= input_bits or index >= 1 << depth:
            raise ValueError(f"copath node ({depth}, {index}) outside the tree")
        nodes[(depth, index)] = data[off + 9 : off + 41]
        off += 41
    return PuncturedKey(punctured, nodes, input_bits, output_bits)
