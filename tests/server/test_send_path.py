"""The send path: the thread that makes a frame sends it.

Workers send their replies and committer threads their change-feed
pushes straight into the non-blocking socket; the I/O thread only
flushes what the kernel refused.  These tests pin what that must keep:
frame order, the exact outbuf bound, safe closing, and a reply path
that touches neither the selector nor the wake pipe.
"""

import collections
import socket
import threading
import time

import pytest

from repro import HAM
from repro.errors import SubscriptionOverflowError
from repro.server import HAMServer, RemoteHAM, ServerConfig
from repro.server import server as server_module
from repro.server.protocol import FrameDecoder, encode_message
from repro.server.server import _Session
from repro.testing import faults


def _graph(nodes: int, contents: bytes) -> tuple[HAM, list[int]]:
    ham = HAM.ephemeral()
    made = []
    with ham.begin() as txn:
        for __ in range(nodes):
            node, stamp = ham.add_node(txn)
            ham.modify_node(txn, node=node, expected_time=stamp,
                            contents=contents)
            made.append(node)
    return ham, made


def _connect(server, rcvbuf: int | None = None) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.connect(server.address)
    return sock


def _request(request_id, method, **params) -> bytes:
    return encode_message({"id": request_id, "method": method,
                           "params": params})


def _read_until(sock, decoder, frames, done, timeout=30.0) -> None:
    """Append decoded frames to ``frames`` until ``done(frames)``."""
    deadline = time.monotonic() + timeout
    sock.settimeout(0.5)
    while not done(frames):
        assert time.monotonic() < deadline, "frames stopped arriving"
        try:
            data = sock.recv(65536)
        except socket.timeout:
            continue
        assert data, "server closed the connection"
        frames.extend(decoder.feed(data))


def _modify(ham, node, contents) -> None:
    ham.modify_node(node=node, expected_time=ham.get_node_timestamp(node),
                    contents=contents)


def _wait_for(condition, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestOrdering:
    def test_pipelined_replies_and_concurrent_pushes_stay_ordered(self):
        ham, nodes = _graph(6, b"body\n" * 40)
        server = HAMServer(ham, config=ServerConfig(workers=4)).start()
        sock = _connect(server)
        decoder = FrameDecoder()
        frames = []
        try:
            sock.sendall(_request("s1", "subscribe")
                         + _request("s2", "subscribe"))
            _read_until(sock, decoder, frames, lambda got: len(got) >= 2)
            subs = {frame["result"]["sub"] for frame in frames}
            assert len(subs) == 2
            frames.clear()

            committers, per_committer = 3, 30
            threads = [threading.Thread(
                target=lambda node=node: [
                    _modify(ham, node, b"edit %d\n" % round_)
                    for round_ in range(per_committer)])
                for node in nodes[:committers]]
            for thread in threads:
                thread.start()
            ids = list(range(400))
            for start in range(0, len(ids), 50):
                sock.sendall(b"".join(
                    _request(request_id, "open_node",
                             node=nodes[request_id % len(nodes)])
                    for request_id in ids[start:start + 50]))
            for thread in threads:
                thread.join()
            pushes = committers * per_committer

            def complete(got):
                replies = sum(1 for f in got if "push" not in f)
                events = sum(1 for f in got if f.get("push") == "events")
                return replies >= len(ids) and events >= 2 * pushes

            _read_until(sock, decoder, frames, complete)
        finally:
            sock.close()
            server.stop()

        replies = [frame for frame in frames if "push" not in frame]
        counts = collections.Counter(frame["id"] for frame in replies)
        assert sorted(counts) == ids
        assert set(counts.values()) == {1}
        assert all(frame["ok"] for frame in replies)
        seqs = collections.defaultdict(list)
        for frame in frames:
            if frame.get("push") == "events":
                seqs[frame["sub"]].append(frame["seq"])
        assert set(seqs) == subs
        for sub in subs:
            assert seqs[sub] == list(range(1, pushes + 1))


class TestExactBound:
    def test_a_consumer_that_never_reads_is_paused(self):
        ham, nodes = _graph(1, b"x" * 65536)
        config = ServerConfig(max_outbuf_bytes=128 * 1024, workers=2)
        server = HAMServer(ham, config=config).start()
        sock = _connect(server, rcvbuf=4096)
        try:
            sock.sendall(b"".join(_request(number, "open_node",
                                           node=nodes[0])
                                  for number in range(60)))
            _wait_for(lambda: server.stats()["paused_reads"] >= 1)
            session = server._sessions[0]
            _wait_for(lambda: not session.read_registered)
            with session.lock:
                assert session.paused
                assert session.out_bytes > config.max_outbuf_bytes
            # Reading again drains the pile and lifts the pause.
            decoder, frames = FrameDecoder(), []
            _read_until(sock, decoder, frames, lambda got: len(got) >= 60)
            assert sorted(frame["id"] for frame in frames) == list(range(60))
            sock.sendall(_request("after", "ping"))
            _read_until(sock, decoder, frames,
                        lambda got: got[-1].get("id") == "after")
            assert not session.paused
        finally:
            sock.close()
            server.stop()

    def test_push_overflow_is_exact(self, monkeypatch):
        limit = 96 * 1024
        ham, nodes = _graph(1, b"seed\n")
        config = ServerConfig(max_outbuf_bytes=limit, workers=2)
        server = HAMServer(ham, config=config).start()
        sent, raised = [], []
        real_send_locked = _Session.send_locked
        real_push = _Session._push_frame

        def send_locked(self, frames):
            # Runs under the session lock, exactly where the check ran.
            sent.append((self.out_bytes, [len(f) for f in frames],
                         [b"cancel" in f for f in frames]))
            return real_send_locked(self, frames)

        def push(self, frame, unchecked=False):
            try:
                return real_push(self, frame, unchecked)
            except SubscriptionOverflowError as exc:
                raised.append(int(str(exc).split()[2]))  # projected bytes
                raise

        monkeypatch.setattr(_Session, "send_locked", send_locked)
        monkeypatch.setattr(_Session, "_push_frame", push)
        sock = _connect(server, rcvbuf=4096)
        try:
            sock.sendall(_request("sub", "subscribe"))
            _wait_for(lambda: ham.subscription_status()["active"] == 1)
            attr = ham.get_attribute_index("blob")
            payload = "y" * (20 * 1024)
            for round_ in range(400):
                ham.set_node_attribute_value(node=nodes[0], attribute=attr,
                                             value=f"{payload}{round_}")
                if raised:
                    break
            assert raised, "the stalled feed never overflowed"
            _wait_for(lambda: ham.subscription_status()["active"] == 0)
        finally:
            sock.close()
            server.stop()

        assert all(projected > limit for projected in raised)
        checked = [(before, sizes) for before, sizes, cancels in sent
                   if len(sizes) == 1 and sizes[0] > len(payload)
                   and not cancels[0]]
        assert checked, "no push frame was sent"
        for before, sizes in checked:
            assert before + sizes[0] <= limit
        # Frames queued while the kernel refused: the bound was reached
        # by pushes that the check admitted, not overshot.
        assert any(before > 0 for before, __ in checked)


class TestClosing:
    def test_clients_vanishing_mid_reply_leave_no_thread_behind(
            self, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: escaped.append(args))
        ham, nodes = _graph(2, b"z" * 32768)
        server = HAMServer(ham, config=ServerConfig(workers=4)).start()
        stop = threading.Event()

        def committer():
            round_ = 0
            while not stop.is_set():
                _modify(ham, nodes[1], b"tick %d\n" % round_)
                round_ += 1

        def vanishing_client(seed):
            for round_ in range(15):
                sock = _connect(server)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                b"\x01\x00\x00\x00\x00\x00\x00\x00")
                batch = [_request("sub", "subscribe")] if round_ % 2 else []
                batch += [_request(number, "open_node", node=nodes[0])
                          for number in range(20 + seed)]
                sock.sendall(b"".join(batch))
                if round_ % 3 == 0:
                    sock.recv(1000)
                sock.close()  # RST while workers are replying

        pusher = threading.Thread(target=committer)
        pusher.start()
        clients = [threading.Thread(target=vanishing_client, args=(seed,))
                   for seed in range(4)]
        try:
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            # The server still serves after all that.
            remote = RemoteHAM(*server.address)
            try:
                assert remote.open_node(nodes[0])[0] == b"z" * 32768
            finally:
                remote.close()
        finally:
            stop.set()
            pusher.join()
            server.stop()
        assert all(not thread.is_alive() for thread in server.threads())
        assert escaped == []


    def test_a_busy_session_closes_once_its_replies_flush(self):
        server = HAMServer(HAM.ephemeral(),
                           config=ServerConfig(max_connections=1)).start()
        admitted = RemoteHAM(*server.address)
        sock = _connect(server)
        try:
            sock.sendall(_request(1, "ping"))
            frames = []
            _read_until(sock, FrameDecoder(), frames, lambda got: got)
            assert frames[0]["error"]["type"] == "ServerBusyError"
            sock.settimeout(5.0)
            assert sock.recv(65536) == b""
        finally:
            sock.close()
            admitted.close()
            server.stop()


class TestNoSelectorChurn:
    def test_serial_requests_on_an_idle_session_touch_neither(
            self, monkeypatch):
        ham, nodes = _graph(1, b"line\n" * 30)
        server = HAMServer(ham).start()
        client = RemoteHAM(*server.address)
        try:
            client.open_node(nodes[0])  # warm: session registered
            modifies, posts, wake_writes = [], [], []
            real_modify = server._selector.modify
            real_post = server._post
            real_write = server_module.os.write

            def write(fd, data):
                if fd == server._wake_w:
                    wake_writes.append(data)
                return real_write(fd, data)

            monkeypatch.setattr(server._selector, "modify",
                                lambda *a, **k: (modifies.append(a),
                                                 real_modify(*a, **k))[1])
            monkeypatch.setattr(server, "_post",
                                lambda command: (posts.append(command),
                                                 real_post(command))[1])
            monkeypatch.setattr(server_module.os, "write", write)
            for round_ in range(100):
                contents, __, ___, stamp = client.open_node(nodes[0])
                client.modify_node(node=nodes[0], expected_time=stamp,
                                   contents=contents + b"%d\n" % round_)
                client.get_node_timestamp(nodes[0])
            assert modifies == []
            assert posts == []
            assert wake_writes == []
        finally:
            client.close()
            server.stop()

    def test_an_installed_injector_sends_on_the_same_path(
            self, monkeypatch):
        ham, nodes = _graph(1, b"line\n")
        server = HAMServer(ham).start()
        senders = []
        real_flush = _Session.flush_locked

        def flush(self):
            senders.append(threading.current_thread().name)
            return real_flush(self)

        monkeypatch.setattr(_Session, "flush_locked", flush)
        client = RemoteHAM(*server.address)
        try:
            with faults.injected(faults.FaultPlan(
                    (faults.FaultSpec("server.send", "raise", hit=10**6),))):
                for __ in range(20):
                    client.open_node(nodes[0])
                fired = faults.INJECTOR.hits("server.send")
        finally:
            client.close()
            server.stop()
        assert fired >= 20
        assert senders and all(name.startswith("ham-worker")
                               for name in senders)


@pytest.fixture(autouse=True)
def _no_injector():
    yield
    faults.uninstall()
