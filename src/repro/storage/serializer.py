"""Compact binary record encoding with checksums.

The HAM's persistent structures (heap records, log records, delta chains)
all share one self-describing binary value encoding, so that every layer
can round-trip plain Python values — ints, strings, bytes, lists, dicts —
without pickling (pickle would tie the on-disk format to Python internals
and is unsafe to load from untrusted files).

Framing: :func:`pack_record` prefixes the payload with a 4-byte length and
a CRC32 checksum; :func:`unpack_record` verifies the checksum and raises
:class:`repro.errors.ChecksumError` on corruption, which the WAL recovery
scanner treats as "end of valid log".

Every value is one tag byte, then (for the variable-width tags) a u32
length or item count, then the body:

====  ==============  ================================================
tag   Python type     body
====  ==============  ================================================
N     None            —
T, F  True, False     —
i, j  int ≥ 0, int<0  u32 length, little-endian magnitude (≥ 1 byte)
f     float           8-byte little-endian IEEE 754 double
s     str             u32 length, UTF-8 bytes
b     bytes           u32 length, raw bytes
l     list            u32 count, items
t     tuple           u32 count, items
d     dict            u32 count, key then value per entry
====  ==============  ================================================

The codec is on the path of every request, log record and snapshot, so
both directions dispatch on the exact type (or the integer tag) in the
order values occur in a snapshot; subclasses and the rare types take the
``isinstance`` fallback and encode exactly as their base type.  The
decoder does not bounds-check fixed-width fields one by one:
:func:`decode_value` translates the ``IndexError``/``struct.error``/
``UnicodeDecodeError`` a short or malformed input raises into
:class:`repro.errors.StorageError` at one place.

Loading a whole snapshot allocates hundreds of thousands of objects that
all survive; :func:`gc_paused` keeps the cyclic collector from
re-walking them while they are built.
"""

from __future__ import annotations

import contextlib
import gc
import struct
import threading
import zlib

from repro.errors import ChecksumError, StorageError

__all__ = ["encode_value", "decode_value", "pack_record", "unpack_record",
           "gc_paused", "RECORD_HEADER"]

#: Record framing header: payload length (u32) then CRC32 of payload (u32).
RECORD_HEADER = struct.Struct("<II")

(_TAG_NONE, _TAG_TRUE, _TAG_FALSE, _TAG_INT, _TAG_NEG_INT, _TAG_FLOAT,
 _TAG_STR, _TAG_BYTES, _TAG_LIST, _TAG_TUPLE, _TAG_DICT) = b"NTFijfsbltd"

#: Tag byte plus u32 length/count, packed in one call.
_pack_header = struct.Struct("<BI").pack
_unpack_u32 = struct.Struct("<I").unpack_from
_F64 = struct.Struct("<d")
#: Pre-encoded ``0 <= n < 256``: a third of a snapshot's ints.
_SMALL_INTS = tuple(_pack_header(_TAG_INT, 1) + bytes((n,))
                    for n in range(256))


def _encode_int(value: int, out: bytearray) -> None:
    magnitude = value if value >= 0 else -value
    raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1,
                             "little")
    out += _pack_header(_TAG_INT if value >= 0 else _TAG_NEG_INT, len(raw))
    out += raw


def _encode_into(value: object, out: bytearray) -> None:
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += _pack_header(_TAG_STR, len(raw))
        out += raw
    elif kind is int:
        if 0 <= value < 256:
            out += _SMALL_INTS[value]
        else:
            _encode_int(value, out)
    elif kind is dict:
        out += _pack_header(_TAG_DICT, len(value))
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
    elif kind is list:
        out += _pack_header(_TAG_LIST, len(value))
        for item in value:
            _encode_into(item, out)
    elif value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif kind is bytes:
        out += _pack_header(_TAG_BYTES, len(value))
        out += value
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _pack_header(_TAG_STR, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += _pack_header(_TAG_BYTES, len(raw))
        out += raw
    elif isinstance(value, list):
        out += _pack_header(_TAG_LIST, len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, tuple):
        out += _pack_header(_TAG_TUPLE, len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out += _pack_header(_TAG_DICT, len(value))
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        raise StorageError(
            f"cannot encode value of type {type(value).__name__}")


def encode_value(value: object) -> bytes:
    """Encode a Python value into the self-describing binary format.

    Supported types: ``None``, ``bool``, ``int`` (arbitrary precision),
    ``float``, ``str``, ``bytes``, ``list``, ``tuple``, ``dict``.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _decode_from(data: bytes, offset: int) -> tuple[object, int]:
    # Short input surfaces as IndexError (tag) or struct.error (length,
    # count, float) and is translated by decode_value; only a body,
    # which slicing would silently shorten, is bounds-checked here.
    tag = data[offset]
    offset += 1
    if tag == _TAG_STR:
        end = offset + 4 + _unpack_u32(data, offset)[0]
        if end > len(data):
            raise StorageError("truncated value body")
        return data[offset + 4:end].decode("utf-8"), end
    if tag == _TAG_INT or tag == _TAG_NEG_INT:
        end = offset + 4 + _unpack_u32(data, offset)[0]
        if end > len(data):
            raise StorageError("truncated value body")
        magnitude = int.from_bytes(data[offset + 4:end], "little")
        return (magnitude if tag == _TAG_INT else -magnitude), end
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        count = _unpack_u32(data, offset)[0]
        offset += 4
        items = []
        for __ in range(count):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_BYTES:
        end = offset + 4 + _unpack_u32(data, offset)[0]
        if end > len(data):
            raise StorageError("truncated value body")
        return data[offset + 4:end], end
    if tag == _TAG_DICT:
        count = _unpack_u32(data, offset)[0]
        offset += 4
        result: dict = {}
        for __ in range(count):
            key, offset = _decode_from(data, offset)
            value, offset = _decode_from(data, offset)
            try:
                result[key] = value
            except TypeError:
                raise StorageError(
                    f"unhashable dict key of type {type(key).__name__}"
                ) from None
        return result, offset
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(data, offset)[0], offset + 8
    raise StorageError(f"unknown value tag {bytes((tag,))!r}")


def decode_value(data: bytes) -> object:
    """Decode a value produced by :func:`encode_value`.

    Raises :class:`repro.errors.StorageError` on any malformed input —
    truncation, an unknown tag, bad UTF-8, an unhashable dict key — and
    if trailing bytes remain: a record must decode exactly.
    """
    try:
        value, offset = _decode_from(data, 0)
    except IndexError:
        raise StorageError("truncated value: no tag byte") from None
    except struct.error:
        raise StorageError(
            "truncated value: short fixed-width field") from None
    except UnicodeDecodeError as exc:
        raise StorageError(
            f"malformed utf-8 in string value: {exc}") from None
    if offset != len(data):
        raise StorageError(
            f"{len(data) - offset} trailing bytes after decoded value")
    return value


_gc_lock = threading.Lock()
_gc_pauses = 0
_gc_was_enabled = False


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a whole-snapshot phase.

    Building a snapshot's ~500 k objects with the collector running
    costs more than building them: every young-generation collection
    re-walks the growing, entirely live structure.  Pauses nest and may
    overlap across threads — the first to enter records whether the
    collector was enabled, the last to leave restores exactly that, on
    success or on an exception — so a caller that had disabled the
    collector finds it still disabled.
    """
    global _gc_pauses, _gc_was_enabled
    with _gc_lock:
        if _gc_pauses == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if _gc_pauses == 0 and _gc_was_enabled:
                gc.enable()


def pack_record(payload: bytes) -> bytes:
    """Frame a payload with length and CRC32 for on-disk storage."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unpack_record(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Read one framed record from ``data`` at ``offset``.

    Returns ``(payload, next_offset)``.  Raises
    :class:`repro.errors.StorageError` on a short read and
    :class:`repro.errors.ChecksumError` on checksum mismatch.
    """
    header_end = offset + RECORD_HEADER.size
    if header_end > len(data):
        raise StorageError("truncated record header")
    length, checksum = RECORD_HEADER.unpack_from(data, offset)
    payload = data[header_end:header_end + length]
    if len(payload) != length:
        raise StorageError("truncated record payload")
    if zlib.crc32(payload) != checksum:
        raise ChecksumError(
            f"record at offset {offset} failed checksum validation")
    return payload, header_end + length
