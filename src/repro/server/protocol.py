"""Wire protocol: length-prefixed, checksummed, self-describing values.

Each message is one value from :mod:`repro.storage.serializer` framed by
:func:`repro.storage.serializer.pack_record` with a 4-byte big-endian
total-length prefix.  Requests are dicts ``{"id", "method", "params"}``;
responses are ``{"id", "ok", "result"}`` or ``{"id", "ok": False,
"error": {"type", "message"}}``.

The serializer already rejects unknown types, so nothing
pickle-executable ever crosses the wire.
"""

from __future__ import annotations

import socket
import struct

from repro.core.operations import PROTOCOL_VERSION
from repro.errors import ProtocolError
from repro.storage.serializer import (
    decode_value,
    encode_value,
    pack_record,
    unpack_record,
)

__all__ = ["FrameDecoder", "encode_message", "read_message",
           "write_message", "MAX_MESSAGE_BYTES", "PROTOCOL_VERSION"]

#: Upper bound on one message; prevents a bad length prefix from
#: allocating unbounded memory.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_message(message: object) -> bytes:
    """Encode and frame one message (length prefix + checksummed record)."""
    framed = pack_record(encode_value(message))
    return _LENGTH.pack(len(framed)) + framed


def write_message(sock: socket.socket, message: object) -> None:
    """Encode, frame, and send one message."""
    sock.sendall(encode_message(message))


class FrameDecoder:
    """Incremental message decoder: one per connection, on both sides.

    Feed it whatever byte chunks ``recv`` produced; it buffers partial
    frames and returns every complete decoded message, preserving
    arrival order.  Framing violations (oversized length prefix, failed
    checksum) raise :class:`repro.errors.ProtocolError` /
    :class:`repro.errors.ChecksumError` — a stream that produced one can
    never be resynchronized and must be dropped.
    """

    __slots__ = ("_buffer",)

    def __init__(self):
        self._buffer = bytearray()

    def __len__(self) -> int:
        """Bytes currently buffered (complete frames not yet consumed)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[object]:
        """Buffer ``data``; return every message it completed."""
        buffer = self._buffer
        buffer.extend(data)
        messages: list[object] = []
        offset = 0
        while len(buffer) - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer, offset)
            if length > MAX_MESSAGE_BYTES:
                raise ProtocolError(
                    f"message of {length} bytes exceeds the "
                    f"{MAX_MESSAGE_BYTES}-byte limit")
            end = offset + _LENGTH.size + length
            if len(buffer) < end:
                break
            payload, __ = unpack_record(
                bytes(buffer[offset + _LENGTH.size:end]))
            messages.append(decode_value(payload))
            offset = end
        if offset:
            del buffer[:offset]
        return messages


#: Bytes asked of one blocking receive.
_CHUNK = 65536


def _read_exact(sock: socket.socket, size: int) -> bytes:
    """One blocking receive of up to ``size`` bytes.

    The socket's own timeout applies (``TimeoutError``; a non-blocking
    socket raises ``BlockingIOError``).  A closed stream raises
    :class:`ConnectionError`.  The name is the one the span table of
    ``bench/trace.py`` wraps as the wire wait.
    """
    data = sock.recv(size)
    if not data:
        raise ConnectionError("peer closed the connection")
    return data


def read_message(sock: socket.socket, decoder: FrameDecoder) -> list[object]:
    """Receive until ``decoder`` completes a message; return all it completed.

    The caller owns ``decoder`` for the life of the connection, so a
    partial frame stays buffered across calls: a timeout anywhere —
    even mid-frame — leaves the stream aligned, and the next call on
    the same socket picks up where this one stopped.  The messages come
    back in arrival order; one receive may complete several (a reply
    and the pushes behind it), and the caller must consume them all.
    """
    while True:
        messages = decoder.feed(_read_exact(sock, _CHUNK))
        if messages:
            return messages
