"""Fuzzing the decoder: arbitrary bytes must fail *cleanly*.

The wire protocol and on-disk records feed untrusted bytes into
``decode_value`` / ``unpack_record``.  Whatever garbage arrives, the
only acceptable outcomes are a successful decode, a typed
``StorageError`` (``ChecksumError`` is a subclass), or — for container
headers nested deeper than the interpreter's stack — ``RecursionError``.
Nothing else may escape: the WAL scanner treats ``StorageError`` as the
end of the valid log, so a leaked ``IndexError`` or ``struct.error``
would turn a torn tail into a failed recovery.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.serializer import (
    decode_value,
    encode_value,
    pack_record,
    unpack_record,
)

values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12,
)


def decode_cleanly(data: bytes) -> None:
    """Decode ``data``; any exception but the sanctioned two escapes."""
    try:
        decode_value(data)
    except (StorageError, RecursionError):
        pass


@given(garbage=st.binary(max_size=500))
@settings(max_examples=300)
def test_fuzz_decode_value_never_crashes(garbage):
    decode_cleanly(garbage)


@given(garbage=st.lists(
    st.sampled_from([b"N", b"T", b"F", b"i", b"j", b"f", b"s", b"b", b"l",
                     b"t", b"d", b"\x00", b"\x01", b"\x02", b"\xff",
                     b"\x00\x00\x00\x00", b"\x01\x00\x00\x00",
                     b"\x02\x00\x00\x00", b"\xc3"]),
    max_size=60).map(b"".join))
@settings(max_examples=300)
def test_fuzz_decode_tag_soup_never_crashes(garbage):
    """Garbage built from tag bytes and plausible lengths reaches far
    deeper into the decoder than uniform random bytes do."""
    decode_cleanly(garbage)


@given(value=values, data=st.data())
@settings(max_examples=300)
def test_fuzz_mutated_encoding_never_crashes(value, data):
    """Truncate, flip, or splice a valid encoding."""
    encoded = bytearray(encode_value(value))
    position = data.draw(st.integers(0, len(encoded) - 1))
    mutation = data.draw(st.sampled_from(
        ["truncate", "flip", "insert", "delete", "length"]))
    if mutation == "truncate":
        del encoded[position:]
    elif mutation == "flip":
        encoded[position] ^= data.draw(st.integers(1, 255))
    elif mutation == "insert":
        encoded[position:position] = data.draw(
            st.binary(min_size=1, max_size=8))
    elif mutation == "delete":
        del encoded[position]
    else:
        encoded[position:position + 4] = data.draw(
            st.integers(0, 2**32 - 1)).to_bytes(4, "little")
    decode_cleanly(bytes(encoded))


@given(garbage=st.binary(max_size=500))
@settings(max_examples=300)
def test_fuzz_unpack_record_never_crashes(garbage):
    try:
        unpack_record(garbage)
    except StorageError:
        pass


@given(value=st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4),
    max_leaves=10,
), flip_at=st.integers(0, 10_000))
@settings(max_examples=200)
def test_fuzz_bitflip_in_framed_record_detected_or_decodes(value, flip_at):
    """A single flipped bit in a framed record either fails the checksum
    (overwhelmingly) or — if it hit the header length — fails as a
    truncation.  It must never silently yield a record that unpacks to
    different bytes than were framed with a matching checksum."""
    framed = bytearray(pack_record(encode_value(value)))
    position = flip_at % len(framed)
    framed[position] ^= 0x01
    try:
        payload, __ = unpack_record(bytes(framed))
    except StorageError:
        return  # detected — the expected outcome
    # The flip landed such that framing still validates (e.g. flipped a
    # checksum bit AND matching payload bit is impossible with one flip;
    # a flip inside the length field usually truncates).  If unpacking
    # succeeded, the payload must still carry a consistent CRC, so
    # decoding is allowed to succeed or fail cleanly.
    decode_cleanly(payload)
