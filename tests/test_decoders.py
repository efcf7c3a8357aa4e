"""Every byte decoder is total: on any input it either returns a value that
encodes back to exactly that input, or raises ValueError.

Inputs are valid encodings put through random edits (byte changes,
insertions, deletions, truncation, extension), so most of them sit close
to the format instead of failing the first length check.
"""

from hypothesis import given
from hypothesis import strategies as st

from unclonelab import detsig, minischeme
from unclonelab.cli import _load_config_file
from unclonelab.hilbert import haar_sample, state_from_bytes, state_to_bytes
from unclonelab.primitives import (
    pprf_gen,
    pprf_key_from_bytes,
    pprf_key_to_bytes,
    pprf_puncture,
    punctured_key_from_bytes,
    punctured_key_to_bytes,
)
from unclonelab.rng import make_rng
from unclonelab.sde_ue import SdeConfig, re_input_from_bytes, re_input_to_bytes

_EDIT = st.tuples(st.sampled_from(("set", "insert", "delete", "cut", "extend")),
                  st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4))


def _edited(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, at, chunk in edits:
        at = at % (len(out) + 1)
        if op == "set":
            out[at:at + len(chunk)] = chunk
        elif op == "insert":
            out[at:at] = chunk
        elif op == "delete":
            del out[at:at + len(chunk)]
        elif op == "cut":
            del out[at:]
        else:
            out += chunk
    return bytes(out)


def _near(valid: st.SearchStrategy) -> st.SearchStrategy:
    """valid encodings, unchanged or with up to three edits"""
    return st.builds(_edited, valid, st.lists(_EDIT, max_size=3))


def _round_trips_or_value_error(decode, encode, data: bytes) -> None:
    try:
        value = decode(data)
    except ValueError:
        return
    assert encode(value) == data


_SEED = st.integers(0, 1 << 32)


@st.composite
def _pprf_keys(draw):
    return pprf_gen(draw(st.integers(1, 64)), draw(st.integers(1, 512)),
                    make_rng(draw(_SEED)))


@given(data=st.one_of(_near(_pprf_keys().map(pprf_key_to_bytes)),
                      st.binary(max_size=40)))
def test_pprf_key_decoder(data):
    _round_trips_or_value_error(pprf_key_from_bytes, pprf_key_to_bytes, data)


@st.composite
def _punctured_keys(draw):
    key = draw(_pprf_keys())
    points = st.integers(0, (1 << key.input_bits) - 1)
    return pprf_puncture(key, draw(st.lists(points, min_size=1, max_size=6,
                                            unique=True)))


@given(data=_near(_punctured_keys().map(punctured_key_to_bytes)))
def test_punctured_key_decoder(data):
    _round_trips_or_value_error(punctured_key_from_bytes,
                                punctured_key_to_bytes, data)


@given(data=_near(st.builds(
    lambda n, seed: minischeme.mini_gen(
        n, make_rng(seed).bytes(minischeme.randomness_len(n))).sn,
    st.sampled_from(range(2, minischeme.MAX_AMBIENT_BITS + 1, 2)), _SEED)))
def test_serial_number_decoder(data):
    _round_trips_or_value_error(minischeme.subspace_from_sn,
                                minischeme.sn_bytes, data)


@given(data=_near(st.builds(
    lambda q, seed: state_to_bytes(haar_sample(q, make_rng(seed))),
    st.integers(0, 4), _SEED)))
def test_state_decoder(data):
    _round_trips_or_value_error(state_from_bytes, state_to_bytes, data)


@st.composite
def _signature_blobs(draw):
    n = draw(st.integers(1, 4))
    tag_bits = draw(st.sampled_from((8, 16)))
    digest_bits = draw(st.integers(1, 12))
    _, sk = detsig.setup(n, tag_bits, make_rng(draw(_SEED)),
                         digest_bits=digest_bits)
    blob = detsig.sign(sk, draw(st.integers(0, (1 << n) - 1))).to_bytes()
    return blob, n, digest_bits, tag_bits


@given(signed=_signature_blobs(), edits=st.lists(_EDIT, max_size=3),
       widths=st.one_of(st.none(), st.tuples(st.integers(-3, 6),
                                             st.integers(-3, 40),
                                             st.integers(-24, 40))))
def test_signature_decoder(signed, edits, widths):
    """Also when read with other, even invalid, widths n, digest_bits and
    tag_bits: the blob is then first cut or repeated to their length."""
    blob, *signed_widths = signed
    n, digest_bits, tag_bits = widths or signed_widths
    if widths:
        size = max(detsig.signature_len(n, digest_bits, tag_bits), 0)
        blob = (blob * (size // len(blob) + 1))[:size]
    _round_trips_or_value_error(
        lambda b: detsig.signature_from_bytes(b, n, digest_bits, tag_bits),
        detsig.TreeSignature.to_bytes, _edited(blob, edits))


@given(bits=st.integers(1, 16), data=st.data())
def test_re_input_decoder(bits, data):
    config = SdeConfig(message_bits=bits)
    blob = data.draw(_near(st.binary(min_size=config.input_len,
                                     max_size=config.input_len)))
    _round_trips_or_value_error(
        lambda b: re_input_from_bytes(b, config),
        lambda x: re_input_to_bytes(x, config), blob)


_CONFIG_LINE = st.one_of(
    st.sampled_from(("n=3", " t = 1 ", "# a comment", "", "seed=2",
                     "format=csv", "n-x=1", "=", "=5", "n", "config=x",
                     "bogus=1", "t=-1e-9", "n=é")),
    st.text(alphabet="nt=-_#x 1\r\x85 é", max_size=8))


@given(lines=st.lists(_CONFIG_LINE, max_size=6),
       junk=st.sampled_from((b"", b"\xff", b"\xef\xbb\xbf")))
def test_config_file_decoder(tmp_path_factory, lines, junk):
    """A config file yields --key=value flags that, written back as
    key=value lines, load again to the same flags; or a UsageError, which
    is a ValueError."""
    path = tmp_path_factory.getbasetemp() / "decoder.cfg"

    def load(data: bytes) -> list[str]:
        path.write_bytes(data)
        return _load_config_file(str(path), "purify typedist")

    def dump(flags: list[str]) -> bytes:
        return "".join(f"{flag[2:]}\n" for flag in flags).encode()

    data = junk + "\n".join(lines).encode()
    try:
        flags = load(data)
    except ValueError:
        return
    assert load(dump(flags)) == flags
