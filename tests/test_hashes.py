"""xor_bytes against the byte-by-byte reference."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclonelab.primitives.hashes import xor_bytes


@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                        st.binary(min_size=n, max_size=n))))
def test_xor_bytes_matches_bytewise_reference(pair):
    a, b = pair
    out = xor_bytes(a, b)
    assert type(out) is bytes
    assert out == bytes(x ^ y for x, y in zip(a, b))


@pytest.mark.parametrize("a, b", [(b"", b"\x00"), (b"\x01\x02", b"\x01"),
                                  (bytes(100), bytes(101))])
def test_xor_bytes_unequal_lengths_raise(a, b):
    with pytest.raises(ValueError):
        xor_bytes(a, b)
    with pytest.raises(ValueError):
        xor_bytes(b, a)
