"""One reader per client connection, on scripted fake servers.

Serial replies, change-feed pushes and pipelined replies share the
connection's one ``FrameDecoder``, so a frame whose first bytes one
path read is finished by whichever path reads next.  Each server here
plays a fixed script over a real socket, so where a frame is split is
exact.
"""

from __future__ import annotations

import collections
import socket
import threading

import pytest

from repro.core.operations import PROTOCOL_VERSION
from repro.server.client import RemoteHAM
from repro.server.protocol import FrameDecoder, encode_message


class _Peer:
    """The server end of one connection, as a script sees it."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self._decoder = FrameDecoder()
        self._pending: collections.deque = collections.deque()

    def request(self, method: str) -> dict:
        while not self._pending:
            data = self.conn.recv(65536)
            assert data, f"client hung up before sending {method}"
            self._pending.extend(self._decoder.feed(data))
        request = self._pending.popleft()
        assert request["method"] == method, request
        return request

    @staticmethod
    def reply(request: dict, result) -> bytes:
        return encode_message({"id": request["id"], "ok": True,
                               "result": result})

    def answer(self, method: str, result) -> dict:
        request = self.request(method)
        self.conn.sendall(self.reply(request, result))
        return request

    def send(self, data: bytes) -> None:
        self.conn.sendall(data)


class FakeServer:
    """Accepts one connection, answers the handshake, runs ``script``
    and then holds the connection open until the client hangs up."""

    def __init__(self, script):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self.error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, args=(script,),
                                        daemon=True)
        self._thread.start()

    def _run(self, script) -> None:
        try:
            conn, __ = self._listener.accept()
            with conn:
                peer = _Peer(conn)
                peer.answer("ping", {"pong": True,
                                     "protocol": PROTOCOL_VERSION})
                script(peer)
                conn.settimeout(10.0)
                while conn.recv(65536):
                    pass
        except Exception as exc:  # reported by join()
            self.error = exc

    def join(self) -> None:
        self._thread.join(timeout=10.0)
        self._listener.close()
        assert not self._thread.is_alive(), "the script never finished"
        if self.error is not None:
            raise self.error


def push(seq: int, node: int) -> bytes:
    return encode_message({"push": "events", "sub": 1, "lsn": 10 + seq,
                           "seq": seq, "events": [{"kind": "modifyNode",
                                                   "node": node}]})


@pytest.fixture
def scripted():
    """``start(script)`` -> a client connected to a fake server."""
    opened = []

    def start(script):
        server = FakeServer(script)
        client = RemoteHAM(*server.address, timeout=5.0)
        opened.append((server, client))
        return client

    yield start
    for server, client in opened:
        client.close()
        server.join()


def subscribed(peer: _Peer) -> None:
    peer.answer("subscribe", {"sub": 1, "lsn": 10})


class TestOneReader:
    def test_pipeline_exit_mid_push_then_serial_mutation(self, scripted):
        # The pipelined reply arrives with the first 10 bytes of a push
        # behind it; the pipeline exits holding them.  The serial call
        # after it must finish that push, not read from its middle.
        frame = push(1, node=4)
        release = threading.Event()

        def script(peer):
            subscribed(peer)
            timestamp = peer.request("get_node_timestamp")
            peer.send(peer.reply(timestamp, 3) + frame[:10])
            mutation = peer.request("set_node_attribute_value")
            release.wait(5.0)
            peer.send(frame[10:] + peer.reply(mutation, 7))

        client = scripted(script)
        watch = client.watch()
        with client.pipeline() as pipe:
            stamp = pipe.get_node_timestamp(4)
        assert stamp.result() == 3
        release.set()
        assert client.set_node_attribute_value(node=4, attribute=1,
                                               value="v") == 7
        assert client.reconnects == 0
        event = watch.poll(0)
        assert (event["node"], event["seq"], event["lsn"]) == (4, 1, 11)

    def test_push_split_across_a_poll_timeout(self, scripted):
        frame = push(1, node=9)
        release = threading.Event()

        def script(peer):
            subscribed(peer)
            peer.send(frame[:len(frame) // 2])
            release.wait(5.0)
            peer.send(frame[len(frame) // 2:])

        client = scripted(script)
        watch = client.watch()
        # Poll in short slices until one has timed out mid-frame.
        for __ in range(200):
            assert watch.poll(0.01) is None
            if len(client._decoder):
                break
        assert len(client._decoder) == len(frame) // 2
        release.set()
        event = watch.poll(5.0)
        assert event is not None and event["node"] == 9
        assert client.reconnects == 0 and watch.resubscribes == 0

    def test_reply_and_pushes_in_one_receive(self, scripted):
        def script(peer):
            subscribed(peer)
            request = peer.request("get_node_timestamp")
            peer.send(push(1, node=1) + peer.reply(request, 5)
                      + push(2, node=2))

        client = scripted(script)
        watch = client.watch()
        assert client.get_node_timestamp(1) == 5
        # Both pushes were routed by the read that found the reply.
        assert [event["seq"] for event in watch._buffer] == [1, 2]
        assert len(client._decoder) == 0
        assert [watch.poll(0)["node"], watch.poll(0)["node"]] == [1, 2]
        assert client.reconnects == 0

    def test_pipeline_routes_pushes_between_replies(self, scripted):
        def script(peer):
            subscribed(peer)
            first = peer.request("get_node_timestamp")
            second = peer.request("get_node_timestamp")
            peer.send(peer.reply(first, 1) + push(1, node=5)
                      + peer.reply(second, 2))

        client = scripted(script)
        watch = client.watch()
        with client.pipeline() as pipe:
            futures = [pipe.get_node_timestamp(1),
                       pipe.get_node_timestamp(2)]
        assert [future.result() for future in futures] == [1, 2]
        assert watch.poll(0)["node"] == 5
