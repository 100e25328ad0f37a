"""Tests for the binary value encoding and record framing."""

import collections
import enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, StorageError
from repro.storage.serializer import (
    LARGE_BYTES,
    Pieces,
    decode_value,
    encode_items,
    encode_parts,
    encode_value,
    list_header,
    pack_record,
    unpack_record,
)


class _Color(enum.IntEnum):
    RED = 1
    BIG = 300


class _Name(str):
    pass


class _Pair(NamedTuple):
    left: int
    right: str


_NESTED = {"a": [1, (2, "x"), {"k": None}], "b": b"raw", "c": [[], {}]}

#: The on-disk and wire format, pinned byte for byte.  These literals
#: were produced by the original ``isinstance``-chain encoder; every
#: snapshot heap and WAL written since depends on them.
GOLDEN = [
    ("none", None, "4e"),
    ("true", True, "54"),
    ("false", False, "46"),
    ("int_0", 0, "690100000000"),
    ("int_1", 1, "690100000001"),
    ("int_255", 255, "6901000000ff"),
    ("int_256", 256, "69020000000001"),
    ("int_neg_1", -1, "6a0100000001"),
    ("int_2_64", 2**64, "6909000000000000000000000001"),
    ("int_neg_2_64", -(2**64), "6a09000000000000000000000001"),
    ("float", 3.25, "660000000000000a40"),
    ("float_neg_zero", -0.0, "660000000000000080"),
    ("str_empty", "", "7300000000"),
    ("str", "hello", "730500000068656c6c6f"),
    ("str_unicode", "ünï ↯", "7309000000c3bc6ec3af20e286af"),
    ("bytes_empty", b"", "6200000000"),
    ("bytes", b"\x00\xff", "620200000000ff"),
    ("list_empty", [], "6c00000000"),
    ("tuple_empty", (), "7400000000"),
    ("dict_empty", {}, "6400000000"),
    ("nested", _NESTED,
     "64030000007301000000616c03000000690100000001740200000069010000"
     "0002730100000078640100000073010000006b4e7301000000626203000000"
     "7261777301000000636c020000006c000000006400000000"),
    ("intenum", _Color.RED, "690100000001"),
    ("intenum_big", _Color.BIG, "69020000002c01"),
    ("str_subclass", _Name("id"), "73020000006964"),
    ("namedtuple", _Pair(7, "r"), "7402000000690100000007730100000072"),
    ("bool_in_list", [True, False, 1, 0],
     "6c040000005446690100000001690100000000"),
    ("bytearray", bytearray(b"xy"), "62020000007879"),
    ("memoryview", memoryview(b"xy"), "62020000007879"),
    ("ordered_dict", collections.OrderedDict([("z", 1)]),
     "640100000073010000007a690100000001"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("name,value,expected", GOLDEN,
                             ids=[case[0] for case in GOLDEN])
    def test_encoding_is_pinned(self, name, value, expected):
        assert encode_value(value).hex() == expected

    @pytest.mark.parametrize("name,value,expected", GOLDEN,
                             ids=[case[0] for case in GOLDEN])
    def test_golden_bytes_decode(self, name, value, expected):
        decoded = decode_value(bytes.fromhex(expected))
        if isinstance(value, (bytearray, memoryview)):
            value = bytes(value)
        assert decoded == value
        # Subclasses decode as their base type.
        assert type(decoded) in (type(None), bool, int, float, str, bytes,
                                 list, tuple, dict)

    def test_every_tag_is_covered(self):
        tags = {bytes.fromhex(expected)[:1] for __, ___, expected in GOLDEN}
        assert tags == {bytes((tag,)) for tag in b"NTFijfsbltd"}

    def test_bool_keeps_its_own_tags(self):
        assert encode_value(True) == b"T"
        assert encode_value(False) == b"F"
        assert decode_value(b"T") is True
        assert decode_value(b"F") is False


class TestMalformedInput:
    @pytest.mark.parametrize("value", [
        _NESTED,
        {"nodes": [{"index": 7, "body": b"x" * 40, "when": -3,
                    "pos": 1.5, "pair": (2**70, "ü")}]},
    ])
    def test_every_proper_prefix_raises_storage_error(self, value):
        encoded = encode_value(value)
        for cut in range(len(encoded)):
            with pytest.raises(StorageError):
                decode_value(encoded[:cut])

    def test_truncation_messages(self):
        with pytest.raises(StorageError, match="no tag byte"):
            decode_value(b"")
        with pytest.raises(StorageError, match="short fixed-width field"):
            decode_value(b"s\x05\x00")
        with pytest.raises(StorageError, match="short fixed-width field"):
            decode_value(b"f\x00\x00")
        with pytest.raises(StorageError, match="truncated value body"):
            decode_value(b"s\x05\x00\x00\x00abc")

    @pytest.mark.parametrize("body", [b"\xff", b"\xc3", b"\xed\xa0\x80"])
    def test_malformed_utf8_raises_storage_error(self, body):
        data = b"s" + len(body).to_bytes(4, "little") + body
        with pytest.raises(StorageError, match="malformed utf-8"):
            decode_value(data)

    def test_malformed_utf8_inside_a_container(self):
        data = b"l\x01\x00\x00\x00s\x01\x00\x00\x00\xff"
        with pytest.raises(StorageError, match="malformed utf-8"):
            decode_value(data)

    def test_unhashable_dict_key_raises_storage_error(self):
        data = b"d\x01\x00\x00\x00l\x00\x00\x00\x00N"
        with pytest.raises(StorageError, match="unhashable"):
            decode_value(data)

    def test_unknown_tag_message(self):
        with pytest.raises(StorageError, match=r"unknown value tag b'Z'"):
            decode_value(b"l\x01\x00\x00\x00Z")


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**80, -(2**80), 3.25, -0.0,
        "", "hello", "ünïcödé ↯", b"", b"\x00\xff" * 10,
    ])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bool_is_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_bytearray_encodes_as_bytes(self):
        assert decode_value(encode_value(bytearray(b"xy"))) == b"xy"


class TestContainers:
    def test_list_round_trip(self):
        value = [1, "two", b"three", None, [4, 5]]
        assert decode_value(encode_value(value)) == value

    def test_tuple_round_trip_preserves_type(self):
        value = (1, (2, 3))
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert isinstance(decoded, tuple)

    def test_dict_round_trip(self):
        value = {"a": 1, "b": {"c": [True, None]}, "d": b"raw"}
        assert decode_value(encode_value(value)) == value

    def test_dict_preserves_insertion_order(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(decode_value(encode_value(value))) == ["z", "a", "m"]

    def test_deep_nesting(self):
        value = [[[[["deep"]]]]]
        assert decode_value(encode_value(value)) == value

    def test_empty_containers(self):
        for value in ([], (), {}):
            assert decode_value(encode_value(value)) == value


class TestPieces:
    """A bytes value held as parts, and values encoded as parts."""

    BIG = bytes(range(256)) * (LARGE_BYTES // 256)
    SMALL = b"small" * 10

    def test_pieces_encode_as_the_joined_bytes(self):
        parts = (b"ab", memoryview(b"xcd")[1:], b"", self.BIG)
        value = {"v": [Pieces(parts), 7]}
        joined = {"v": [b"".join(parts), 7]}
        assert encode_value(value) == encode_value(joined)
        assert decode_value(encode_value(value)) == joined

    def test_pieces_compare_as_bytes(self):
        pieces = Pieces((b"ab", memoryview(b"cd")))
        assert pieces == b"abcd" and pieces == Pieces((b"abc", b"d"))
        assert pieces != b"abc" and pieces.length == 4
        assert bytes(pieces) == b"abcd"

    def test_items_are_a_list_less_its_header(self):
        values = [1, b"two", ["three"]]
        assert list_header(3) + encode_items(values) == encode_value(values)

    def test_small_values_stay_one_part(self):
        value = {"a": self.SMALL, "b": {"c": [self.BIG]},
                 "d": Pieces((self.SMALL, self.SMALL))}
        row = encode_parts(value)
        assert type(row) is bytes
        assert row == encode_value(value)

    def test_large_values_pass_through_by_reference(self):
        piece = memoryview(self.BIG + b"!")
        value = {"head": 1, "body": self.BIG,
                 "nested": {"deltas": Pieces((list_header(2), self.SMALL,
                                              piece))},
                 "tail": "end"}
        row = encode_parts(value)
        assert type(row) is tuple
        assert b"".join(row) == encode_value(value)
        assert any(part is self.BIG for part in row)
        assert any(part is piece for part in row)
        assert all(len(part) for part in row)

    def test_large_value_at_the_very_end(self):
        row = encode_parts({"x": self.BIG})
        assert row[-1] is self.BIG
        assert b"".join(row) == encode_value({"x": self.BIG})


class TestErrors:
    def test_unsupported_type_raises(self):
        with pytest.raises(StorageError):
            encode_value(object())

    def test_set_is_unsupported(self):
        with pytest.raises(StorageError):
            encode_value({1, 2})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(StorageError):
            decode_value(encode_value(1) + b"junk")

    def test_truncated_value_rejected(self):
        encoded = encode_value("hello world")
        with pytest.raises(StorageError):
            decode_value(encoded[:-3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode_value(b"Z")


class TestRecordFraming:
    def test_pack_unpack_round_trip(self):
        payload = b"some payload bytes"
        framed = pack_record(payload)
        recovered, next_offset = unpack_record(framed)
        assert recovered == payload
        assert next_offset == len(framed)

    def test_multiple_records_in_sequence(self):
        blob = pack_record(b"one") + pack_record(b"two")
        first, offset = unpack_record(blob)
        second, end = unpack_record(blob, offset)
        assert (first, second) == (b"one", b"two")
        assert end == len(blob)

    def test_checksum_corruption_detected(self):
        framed = bytearray(pack_record(b"payload"))
        framed[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            unpack_record(bytes(framed))

    def test_truncated_header_detected(self):
        with pytest.raises(StorageError):
            unpack_record(b"\x01\x02")

    def test_truncated_payload_detected(self):
        framed = pack_record(b"a longer payload")
        with pytest.raises(StorageError):
            unpack_record(framed[:-4])

    def test_empty_payload(self):
        recovered, __ = unpack_record(pack_record(b""))
        assert recovered == b""


# ----------------------------------------------------------------------
# property-based coverage

encodable = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False) | st.text(max_size=30) |
    st.binary(max_size=30),
    lambda children: (
        st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=8), children, max_size=5)),
    max_leaves=20,
)


@given(value=encodable)
@settings(max_examples=200)
def test_property_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(payload=st.binary(max_size=200))
@settings(max_examples=100)
def test_property_record_framing(payload):
    recovered, offset = unpack_record(pack_record(payload))
    assert recovered == payload
