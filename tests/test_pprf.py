"""GGM puncturable PRF: eval against an independent tree-walk oracle,
minimal-cover copath structure, exhaustive punctured correctness on
small domains, and frozen golden vectors."""

import hashlib
import itertools
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclonelab.primitives.pprf import (
    PprfKey,
    PuncturedKey,
    PuncturedPointError,
    pprf_eval,
    pprf_eval_many,
    pprf_gen,
    pprf_key_from_bytes,
    pprf_key_to_bytes,
    pprf_puncture,
    punctured_key_from_bytes,
    punctured_key_to_bytes,
)
from unclonelab.primitives import hashes
from unclonelab.rng import make_rng


# Independent re-derivation of the tree, written against the documented
# byte-level derivations only (domain tags 0x00/0x01 for children, 0x02
# for output expansion).

def _child(seed, bit):
    return hashlib.sha256(bytes([bit]) + seed).digest()


def _node_seed(root_seed, depth, index):
    seed = root_seed
    for level in range(depth, 0, -1):
        seed = _child(seed, (index >> (level - 1)) & 1)
    return seed


def _expand(seed, output_bits):
    num_bytes = (output_bits + 7) // 8
    out = b""
    counter = 0
    while len(out) < num_bytes:
        out += hashlib.sha256(b"\x02" + seed + struct.pack("<I", counter)).digest()
        counter += 1
    out = bytearray(out[:num_bytes])
    if output_bits % 8:
        out[-1] &= (0xFF << (8 - output_bits % 8)) & 0xFF
    return bytes(out)


def _oracle_eval(key, x):
    return _expand(_node_seed(key.root_seed, key.input_bits, x), key.output_bits)


def _oracle_copath(input_bits, punctured):
    # Minimal subtree cover of the complement: siblings of path nodes
    # that are not themselves on any punctured path.
    on_path = {(d, x >> (input_bits - d)) for x in punctured for d in range(input_bits + 1)}
    return {
        (d, idx ^ 1)
        for (d, idx) in on_path
        if d >= 1 and (d, idx ^ 1) not in on_path
    }


GOLDEN_KEY_SEED1_HEX = (
    "0880003acec06bbdef19117ecf792cdf313a140b9ae001f59b7a013fcbf3addf7f7ace"
)
GOLDEN_EVAL_X00_HEX = "e47bbb988272a813efbba657b2df6eae"
GOLDEN_EVAL_XFF_HEX = "7e917fa1e25c92eab6926a723b871ff9"
GOLDEN_PUNCTURED_HEX = (
    "042000010004000300000000000000010100000000000000b6b40b9b278b6c01414735"
    "a686c04802a17782fab13ba015fcd7e6ae3e17a450020100000000000000d34e52f1d1"
    "36caaab92402f1f1a2a6effdf81ad80c0fa3eaf614d1661d12c401030000000000000"
    "0008ff830f6ba27a1c561b6fcba202ad3ff774f61dc3c9bcebcf9936e9a4d5f515b04"
    "0200000000000000e345140c1ea545419ee35f2c2797e27cdb6b999afb0f1a64a2cec4"
    "cd4c325808"
)


class TestGen:
    def test_min_params_valid(self):
        key = pprf_gen(1, 8, make_rng(0))
        assert key.input_bits == 1
        assert key.output_bits == 8
        assert len(pprf_eval(key, 0)) == 1

    def test_single_output_bit_valid(self):
        key = pprf_gen(4, 1, make_rng(0))
        out = pprf_eval(key, 7)
        assert len(out) == 1
        assert out[0] & 0x7F == 0

    def test_rejects_bad_widths(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            pprf_gen(0, 8, rng)
        with pytest.raises(ValueError):
            pprf_gen(65, 8, rng)
        with pytest.raises(ValueError):
            pprf_gen(8, 0, rng)

    def test_output_width_fits_the_uint16_encodings(self):
        # both key encodings pack output_bits as uint16
        with pytest.raises(ValueError, match="output_bits"):
            pprf_gen(4, 1 << 16, make_rng(0))
        key = pprf_gen(4, 0xFFFF, make_rng(0))
        assert pprf_key_from_bytes(pprf_key_to_bytes(key)) == key
        pk = pprf_puncture(key, [5])
        assert punctured_key_from_bytes(punctured_key_to_bytes(pk)) == pk
        assert pprf_eval(pk, 6) == pprf_eval(key, 6)
        assert len(pprf_eval(key, 6)) == 0x10000 // 8

    def test_deterministic_under_seed(self):
        a = pprf_gen(8, 64, make_rng(42))
        b = pprf_gen(8, 64, make_rng(42))
        assert a.root_seed == b.root_seed
        assert all(pprf_eval(a, x) == pprf_eval(b, x) for x in range(256))

    def test_distinct_seeds_distinct_keys(self):
        seeds = {pprf_gen(8, 64, make_rng(i)).root_seed for i in range(100)}
        assert len(seeds) == 100


class TestEval:
    def test_golden_key_bytes(self):
        key = pprf_gen(8, 128, make_rng(1))
        assert pprf_key_to_bytes(key).hex() == GOLDEN_KEY_SEED1_HEX

    def test_golden_eval(self):
        key = pprf_gen(8, 128, make_rng(1))
        assert pprf_eval(key, 0x00).hex() == GOLDEN_EVAL_X00_HEX
        assert pprf_eval(key, 0xFF).hex() == GOLDEN_EVAL_XFF_HEX

    def test_golden_eval_bit_truncation(self):
        # Same seed, 5-bit output: first 5 bits of the 128-bit stream above.
        key = pprf_gen(8, 5, make_rng(1))
        assert pprf_eval(key, 0x00).hex() == "e0"

    def test_matches_tree_walk_oracle(self):
        for li, (l1, l2) in enumerate([(4, 32), (8, 128), (8, 1), (6, 5), (16, 256), (3, 520)]):
            key = pprf_gen(l1, l2, make_rng(100 + li))
            xs = range(2**l1) if l1 <= 8 else [0, 1, 2**l1 - 1, 12345, 54321]
            for x in xs:
                assert pprf_eval(key, x) == _oracle_eval(key, x)

    def test_trailing_bits_zero(self):
        key = pprf_gen(6, 13, make_rng(2))
        for x in range(64):
            out = pprf_eval(key, x)
            assert len(out) == 2
            assert out[1] & 0x07 == 0

    def test_rejects_out_of_range_input(self):
        key = pprf_gen(4, 8, make_rng(0))
        with pytest.raises(ValueError):
            pprf_eval(key, -1)
        with pytest.raises(ValueError):
            pprf_eval(key, 16)


class TestEvalMany:
    def test_matches_eval_and_oracle_at_every_width(self):
        rng = make_rng(40)
        for bits in range(1, 65):
            key = pprf_gen(bits, 13, make_rng(400 + bits))
            # unsorted, with repeats, and both ends of the domain
            xs = [int.from_bytes(rng.bytes(8), "big") >> (64 - bits)
                  for _ in range(12)]
            xs += [xs[3], xs[0], 0, (1 << bits) - 1, 0]
            got = pprf_eval_many(key, xs)
            assert got == [pprf_eval(key, x) for x in xs]
            assert got == [_oracle_eval(key, x) for x in xs]

    def test_empty_input(self):
        key = pprf_gen(8, 16, make_rng(43))
        assert pprf_eval_many(key, []) == []

    def test_rejects_out_of_range_input(self):
        key = pprf_gen(4, 8, make_rng(0))
        for bad in ([-1], [3, 16], [1 << 64]):
            with pytest.raises(ValueError):
                pprf_eval_many(key, bad)

    def test_hashes_each_trie_node_once(self, monkeypatch):
        calls = []
        real = hashes.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(hashes, "sha256", counting)
        rng = make_rng(44)
        for bits, out_bits, size in ((8, 8, 40), (20, 300, 25), (48, 256, 30)):
            key = pprf_gen(bits, out_bits, rng)
            xs = [int(v) for v in rng.integers(0, 1 << bits, size=size)]
            xs += xs[:5]
            calls.clear()
            pprf_eval_many(key, xs)
            nodes = {(d, x >> (bits - d)) for x in xs for d in range(1, bits + 1)}
            blocks = -(-out_bits // 256)
            assert len(calls) == len(nodes) + len(set(xs)) * blocks


class TestPuncture:
    def test_singleton_copath_count(self):
        key = pprf_gen(8, 64, make_rng(3))
        pk = pprf_puncture(key, [0x5A])
        assert len(pk.copath_nodes) == 8

    def test_sibling_pair_copath_count(self):
        # Two bottom-level siblings jointly cover their parent subtree, so
        # the cover is one sibling per level above the bottom.
        key = pprf_gen(8, 64, make_rng(3))
        pk = pprf_puncture(key, [0x5A, 0x5B])
        assert len(pk.copath_nodes) == 7
        assert set(pk.copath_nodes) == _oracle_copath(8, [0x5A, 0x5B])

    def test_copath_matches_oracle_structure_and_seeds(self):
        key = pprf_gen(8, 32, make_rng(4))
        rng = make_rng(5)
        for trial in range(50):
            size = int(rng.integers(1, 7))
            s = list({int(v) for v in rng.integers(0, 256, size=size)})
            pk = pprf_puncture(key, s)
            assert set(pk.copath_nodes) == _oracle_copath(8, s)
            for (depth, index), seed in pk.copath_nodes.items():
                assert seed == _node_seed(key.root_seed, depth, index)

    def test_copath_is_exact_disjoint_cover(self):
        key = pprf_gen(8, 32, make_rng(6))
        for s in ([0], [0, 255], [1, 2, 3], [7, 200, 201]):
            pk = pprf_puncture(key, s)
            covered = []
            for depth, index in pk.copath_nodes:
                width = 1 << (8 - depth)
                covered.append(range(index * width, (index + 1) * width))
            flat = sorted(x for r in covered for x in r)
            assert len(flat) == len(set(flat))
            assert flat == sorted(set(range(256)) - set(s))

    def test_copath_size_bound(self):
        key = pprf_gen(8, 32, make_rng(7))
        rng = make_rng(8)
        for trial in range(30):
            s = list({int(v) for v in rng.integers(0, 256, size=5)})
            pk = pprf_puncture(key, s)
            assert len(pk.copath_nodes) <= len(s) * 8

    def test_one_pass_hashes_each_node_once(self, monkeypatch):
        # every on-path node above the leaves and every copath node costs one
        # PRG call; the keys match a root descent per copath node
        calls = []
        real = hashes.sha256

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(hashes, "sha256", counting)
        rng = make_rng(46)
        for bits, size in ((1, 1), (4, 3), (8, 6), (20, 17), (64, 62)):
            key = pprf_gen(bits, 16, rng)
            s = {int.from_bytes(rng.bytes(8), "big") >> (64 - bits)
                 for _ in range(size)}
            # points sharing long prefixes, for the shared part of the trie
            s |= {min(s) ^ 1, min(s) ^ 2} if bits > 1 else set()
            s = sorted(s, reverse=True)
            calls.clear()
            pk = pprf_puncture(key, s)
            inner = {(d, x >> (bits - d)) for x in s for d in range(1, bits)}
            copath = _oracle_copath(bits, s)
            assert len(calls) == len(inner) + len(copath)
            oracle = PuncturedKey(
                tuple(sorted(s)),
                {(d, i): _node_seed(key.root_seed, d, i) for d, i in copath},
                bits, 16)
            assert punctured_key_to_bytes(pk) == punctured_key_to_bytes(oracle)
            assert pk == oracle

    def test_rejects_bad_sets(self):
        key = pprf_gen(4, 8, make_rng(0))
        with pytest.raises(ValueError):
            pprf_puncture(key, [])
        with pytest.raises(ValueError):
            pprf_puncture(key, [1, 1])
        with pytest.raises(ValueError):
            pprf_puncture(key, [16])
        with pytest.raises(ValueError):
            pprf_puncture(key, list(range(16)) * 5)

    def test_eval_at_punctured_point_raises(self):
        key = pprf_gen(8, 16, make_rng(9))
        pk = pprf_puncture(key, [3, 77, 254])
        for x in (3, 77, 254):
            with pytest.raises(PuncturedPointError):
                pprf_eval(pk, x)

    def test_punctured_eval_range_check(self):
        key = pprf_gen(4, 8, make_rng(0))
        pk = pprf_puncture(key, [3])
        with pytest.raises(ValueError):
            pprf_eval(pk, 16)


class TestPuncturedCorrectness:
    def test_exhaustive_l1_4_all_sets_up_to_3(self):
        key = pprf_gen(4, 16, make_rng(10))
        full = [pprf_eval(key, x) for x in range(16)]
        points = range(16)
        for size in (1, 2, 3):
            for s in itertools.combinations(points, size):
                pk = pprf_puncture(key, list(s))
                for x in points:
                    if x in s:
                        continue
                    assert pprf_eval(pk, x) == full[x]

    def test_l1_8_singleton_exhaustive(self):
        key = pprf_gen(8, 8, make_rng(11))
        full = [pprf_eval(key, x) for x in range(256)]
        for punct in (0, 1, 127, 128, 200, 255):
            pk = pprf_puncture(key, [punct])
            for x in range(256):
                if x != punct:
                    assert pprf_eval(pk, x) == full[x]

    def test_l1_8_structured_pairs_and_triples(self):
        key = pprf_gen(8, 8, make_rng(12))
        full = [pprf_eval(key, x) for x in range(256)]
        families = [
            [0x10, 0x11], [0x10, 0x90], [0x00, 0xFF], [0x42, 0x43, 0x44],
            [0x00, 0x01, 0x80], [0x7F, 0x80, 0xFF],
        ]
        for s in families:
            pk = pprf_puncture(key, s)
            for x in range(256):
                if x not in s:
                    assert pprf_eval(pk, x) == full[x]

    @given(data=st.data(), bits=st.integers(1, 64), out_bits=st.integers(1, 64),
           seed=st.binary(min_size=32, max_size=32))
    def test_punctured_key_property(self, data, bits, out_bits, seed):
        # off S, the neighbours x - 1 and x + 1 of every point included, the
        # punctured key agrees with the full key; on S it raises; and its
        # encoding round-trips
        inputs = st.integers(0, (1 << bits) - 1)
        s = data.draw(st.lists(inputs, min_size=1, max_size=64, unique=True))
        others = data.draw(st.lists(inputs, max_size=16))
        key = PprfKey(seed, bits, out_bits)
        pk = pprf_puncture(key, s)
        near = {y for x in s for y in (x - 1, x + 1) if 0 <= y < 1 << bits}
        off = sorted((near | set(others)) - set(s))
        assert [pprf_eval(pk, x) for x in off] == pprf_eval_many(key, off)
        for x in s:
            with pytest.raises(PuncturedPointError):
                pprf_eval(pk, x)
        assert punctured_key_from_bytes(punctured_key_to_bytes(pk)) == pk


class TestSerialization:
    def test_key_layout(self):
        key = pprf_gen(8, 128, make_rng(1))
        blob = pprf_key_to_bytes(key)
        assert len(blob) == 35
        l1, l2 = struct.unpack_from("<BH", blob)
        assert (l1, l2) == (8, 128)
        assert blob[3:] == key.root_seed

    def test_punctured_golden(self):
        key = pprf_gen(4, 32, make_rng(7))
        pk = pprf_puncture(key, [3])
        assert punctured_key_to_bytes(pk).hex() == GOLDEN_PUNCTURED_HEX

    def test_punctured_nodes_sorted(self):
        key = pprf_gen(8, 16, make_rng(13))
        pk = pprf_puncture(key, [200, 3, 77])
        blob = punctured_key_to_bytes(pk)
        _, _, num_punct, num_nodes = struct.unpack_from("<BHHH", blob)
        assert num_punct == 3
        off = 7 + 8 * num_punct
        seen = []
        for _ in range(num_nodes):
            depth, index = struct.unpack_from("<BQ", blob, off)
            seen.append((depth, index))
            off += 9 + 32
        assert seen == sorted(seen)
        assert off == len(blob)

    def test_punctured_round_trip(self):
        key = pprf_gen(8, 16, make_rng(15))
        for s in ([0], [3, 77, 254], [0x10, 0x11]):
            pk = pprf_puncture(key, s)
            back = punctured_key_from_bytes(punctured_key_to_bytes(pk))
            assert back == pk
            for x in range(256):
                if x not in s:
                    assert pprf_eval(back, x) == pprf_eval(key, x)

    def test_punctured_decoder_rejects_truncation_and_trailing_bytes(self):
        blob = punctured_key_to_bytes(pprf_puncture(pprf_gen(8, 16, make_rng(16)), [3, 200]))
        for end in range(len(blob)):
            with pytest.raises(ValueError):
                punctured_key_from_bytes(blob[:end])
        with pytest.raises(ValueError):
            punctured_key_from_bytes(blob + b"\x00")

    def test_punctured_decoder_rejects_points_outside_the_tree(self):
        key = pprf_gen(8, 16, make_rng(17))
        blob = bytearray(punctured_key_to_bytes(pprf_puncture(key, [3, 200])))
        node = 7 + 8 * 2  # first copath node: depth byte, then 8-byte index

        def patched(offset, raw):
            bad = bytearray(blob)
            bad[offset : offset + len(raw)] = raw
            return bytes(bad)

        cases = [
            patched(node, bytes([99])),                 # depth beyond 8 bits
            patched(node, bytes([0])),                  # the root itself
            patched(node, bytes([2]) + struct.pack("<Q", 4)),  # index >= 2^2
            patched(7, struct.pack("<Q", 256)),         # punctured point >= 2^8
            patched(0, bytes([0])),                     # input width 0
        ]
        for bad in cases:
            with pytest.raises(ValueError):
                punctured_key_from_bytes(bad)

    def test_punctured_decoder_rejects_non_canonical_encodings(self):
        key = pprf_gen(8, 16, make_rng(18))
        blob = punctured_key_to_bytes(pprf_puncture(key, [3, 200]))
        head = bytearray(blob[:7])
        points = blob[7 : 7 + 16]
        nodes = [blob[off : off + 41] for off in range(7 + 16, len(blob), 41)]

        def encoding(points, nodes):
            head[5:7] = struct.pack("<H", len(nodes))
            return bytes(head) + points + b"".join(nodes)

        cases = [
            encoding(points, nodes + nodes[:1]),         # first node repeated
            encoding(points, nodes[:-1]),                # a node dropped
            encoding(points, nodes[1:2] + nodes[:1] + nodes[2:]),  # nodes unsorted
            encoding(points[8:] + points[:8], nodes),    # points unsorted
        ]
        assert encoding(points, nodes) == blob
        for bad in cases:
            with pytest.raises(ValueError):
                punctured_key_from_bytes(bad)

    def test_punctured_decoder_rejects_repeated_and_too_many_points(self):
        key = pprf_gen(8, 16, make_rng(19))
        blob = punctured_key_to_bytes(pprf_puncture(key, [3]))
        repeated = struct.pack("<BHHH", 8, 16, 2, 8) + struct.pack("<QQ", 3, 3) \
            + blob[7 + 8 :]
        # canonical in every other respect, but past pprf_puncture's limit
        points = range(0, 130, 2)
        too_many = punctured_key_to_bytes(PuncturedKey(
            tuple(points), {node: bytes(32) for node in _oracle_copath(8, points)},
            8, 16))
        for bad in (repeated, too_many):
            with pytest.raises(ValueError):
                punctured_key_from_bytes(bad)

    def test_punctured_bytes_deterministic(self):
        key = pprf_gen(8, 16, make_rng(14))
        a = punctured_key_to_bytes(pprf_puncture(key, [5, 250, 13]))
        b = punctured_key_to_bytes(pprf_puncture(key, [13, 5, 250]))
        assert a == b
