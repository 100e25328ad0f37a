"""Tests for the wire protocol framing over a socket pair."""

import socket
import threading

import pytest

from repro.errors import ChecksumError, ProtocolError
from repro.server.protocol import (
    FrameDecoder,
    encode_message,
    read_message,
    write_message,
)
from repro.storage.serializer import encode_value, pack_record


@pytest.fixture
def socket_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def read_one(sock, decoder=None):
    """The next message, for a peer that sends one at a time."""
    (message,) = read_message(sock, decoder or FrameDecoder())
    return message


class TestRoundTrip:
    def test_simple_message(self, socket_pair):
        left, right = socket_pair
        write_message(left, {"id": 1, "method": "ping", "params": {}})
        assert read_one(right) == {
            "id": 1, "method": "ping", "params": {}}

    def test_binary_payload(self, socket_pair):
        left, right = socket_pair
        blob = bytes(range(256)) * 100
        write_message(left, {"contents": blob})
        assert read_one(right)["contents"] == blob

    def test_multiple_messages_in_order(self, socket_pair):
        left, right = socket_pair
        for position in range(5):
            write_message(left, ["msg", position])
        decoder, received = FrameDecoder(), []
        while len(received) < 5:
            received.extend(read_message(right, decoder))
        assert received == [["msg", position] for position in range(5)]

    def test_one_receive_returns_every_completed_message(self,
                                                         socket_pair):
        left, right = socket_pair
        left.sendall(b"".join(encode_message(["msg", position])
                              for position in range(3)))
        assert read_message(right, FrameDecoder()) == [
            ["msg", 0], ["msg", 1], ["msg", 2]]

    def test_large_message_in_chunks(self, socket_pair):
        left, right = socket_pair
        big = {"data": b"x" * 500_000}
        received = {}

        def reader():
            received["message"] = read_one(right)

        thread = threading.Thread(target=reader)
        thread.start()
        write_message(left, big)
        thread.join(timeout=10)
        assert received["message"] == big


class TestPartialFrames:
    """A timeout never desyncs the stream: the caller's decoder keeps
    the partial frame, and the next read on the same socket ends it."""

    @pytest.mark.parametrize("cut", [2, 4, 7])
    def test_timeout_mid_frame_keeps_the_stream_aligned(self, socket_pair,
                                                        cut):
        # cut 2: inside the length prefix; 4: prefix whole, no body;
        # 7: inside the body.
        left, right = socket_pair
        frame = encode_message({"id": 7, "result": "whole"})
        right.settimeout(0.05)
        decoder = FrameDecoder()
        left.sendall(frame[:cut])
        with pytest.raises(TimeoutError):
            read_message(right, decoder)
        assert right.fileno() != -1
        assert len(decoder) == cut
        left.sendall(frame[cut:] + encode_message("next"))
        received = []
        while len(received) < 2:
            received.extend(read_message(right, decoder))
        assert received == [{"id": 7, "result": "whole"}, "next"]

    def test_idle_timeout_keeps_the_socket_usable(self, socket_pair):
        left, right = socket_pair
        right.settimeout(0.05)
        decoder = FrameDecoder()
        with pytest.raises(TimeoutError):
            read_message(right, decoder)
        assert right.fileno() != -1 and len(decoder) == 0
        write_message(left, "later")
        assert read_message(right, decoder) == ["later"]


class TestErrors:
    def test_closed_peer_raises_connection_error(self, socket_pair):
        left, right = socket_pair
        left.close()
        with pytest.raises(ConnectionError):
            read_one(right)

    def test_closed_peer_mid_frame_raises_connection_error(self,
                                                           socket_pair):
        left, right = socket_pair
        left.sendall(encode_message("torn")[:6])
        left.close()
        with pytest.raises(ConnectionError):
            read_one(right)

    def test_oversized_length_prefix_rejected(self, socket_pair):
        left, right = socket_pair
        left.sendall((2**31).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            read_one(right)

    def test_corrupt_frame_rejected(self, socket_pair):
        left, right = socket_pair
        framed = bytearray(pack_record(encode_value("hello")))
        framed[-1] ^= 0xFF
        left.sendall(len(framed).to_bytes(4, "big") + bytes(framed))
        with pytest.raises(ChecksumError):
            read_one(right)
