"""Resilient RemoteHAM sessions: reconnect, retry, and honest failure."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.ham import HAM
from repro.errors import NodeNotFoundError, RetryableError
from repro.server.client import RemoteHAM, RetryPolicy
from repro.server.protocol import FrameDecoder, read_message
from repro.server.server import HAMServer
from repro.testing import faults

FAST = RetryPolicy(max_attempts=4, backoff_base=0.01, backoff_cap=0.1,
                   call_deadline=10.0, seed=7)


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    faults.uninstall()


@pytest.fixture
def served():
    ham = HAM.ephemeral()
    server = HAMServer(ham).start()
    client = RemoteHAM(*server.address, timeout=5.0, retry=FAST)
    yield ham, server, client
    client.close()
    server.stop()


def plan(*specs, seed=0):
    return faults.FaultPlan(specs=tuple(specs), seed=seed)


class TestServerRestart:
    def test_idempotent_reads_survive_a_restart(self):
        ham = HAM.ephemeral()
        server = HAMServer(ham).start()
        port = server.port
        client = RemoteHAM("127.0.0.1", port, timeout=5.0, retry=FAST)
        try:
            node, __ = client.add_node()
            server.stop(disconnect_clients=True)
            server = HAMServer(ham, port=port).start()
            # The old socket is dead; the read must reconnect and retry
            # without surfacing anything to the caller.
            assert client.get_node_timestamp(node) \
                == ham.get_node_timestamp(node)
            assert client.reconnects >= 1
            assert client.server_info is not None
        finally:
            client.close()
            server.stop()

    def test_rebinds_hosted_graph_after_restart(self, tmp_path):
        from repro.server.host import GraphHost
        host = GraphHost(tmp_path / "root")
        server = HAMServer(host=host).start()
        port = server.port
        client = RemoteHAM("127.0.0.1", port, timeout=5.0, retry=FAST)
        try:
            project_id, __ = client.host_create_graph("cad")
            client.host_open_graph(project_id, "cad")
            node, __ = client.add_node()
            server.stop(disconnect_clients=True)
            server = HAMServer(host=host, port=port).start()
            # The reconnect replays host_open_graph, so graph-bound
            # operations keep working on the new session.
            assert client.get_node_timestamp(node) >= 1
            assert client.reconnects >= 1
        finally:
            client.close()
            server.stop()
            host.close()

    def test_mutation_during_outage_is_never_silently_duplicated(self):
        ham = HAM.ephemeral()
        server = HAMServer(ham).start()
        port = server.port
        client = RemoteHAM("127.0.0.1", port, timeout=5.0, retry=FAST)
        try:
            node, __ = client.add_node()
            expected = client.get_node_timestamp(node)
            server.stop(disconnect_clients=True)
            with pytest.raises((RetryableError, ConnectionError, OSError)):
                client.modify_node(node=node, expected_time=expected,
                                   contents=b"during outage")
            versions_before = len(
                ham.store.node(node).content_version_times())
            server = HAMServer(ham, port=port).start()
            time = client.modify_node(
                node=node,
                expected_time=client.get_node_timestamp(node),
                contents=b"after restart")
            assert client.open_node(node, time=time)[0] == b"after restart"
            assert len(ham.store.node(node).content_version_times()) \
                == versions_before + 1
        finally:
            client.close()
            server.stop()


class TestInjectedConnectionFaults:
    def test_lost_reply_of_mutation_raises_retryable(self, served):
        ham, __, client = served
        node, __t = client.add_node()
        expected = client.get_node_timestamp(node)
        versions = len(ham.store.node(node).content_version_times())
        with faults.injected(
                plan(faults.FaultSpec("server.send", "raise"))):
            with pytest.raises(RetryableError):
                client.modify_node(node=node, expected_time=expected,
                                   contents=b"unacknowledged")
        # The server executed the mutation exactly once — the client
        # must refuse to guess, not re-issue it.
        record = ham.store.node(node)
        assert len(record.content_version_times()) == versions + 1
        assert record.contents_at() == b"unacknowledged"
        assert client.retries == 0

    def test_torn_reply_of_read_retries_transparently(self, served):
        ham, __, client = served
        node, __t = client.add_node()
        retries_before = client.retries
        with faults.injected(
                plan(faults.FaultSpec("server.send", "truncate"), seed=3)):
            assert client.get_node_timestamp(node) \
                == ham.get_node_timestamp(node)
        assert client.retries > retries_before
        assert client.reconnects >= 1

    def test_corrupted_reply_of_read_retries_transparently(self, served):
        ham, __, client = served
        node, __t = client.add_node()
        with faults.injected(
                plan(faults.FaultSpec("server.send", "bitflip"), seed=4)):
            assert client.get_node_timestamp(node) \
                == ham.get_node_timestamp(node)
        assert client.retries >= 1

    def test_semantic_errors_pass_through_without_retry(self, served):
        __, __s, client = served
        with pytest.raises(NodeNotFoundError):
            client.get_node_timestamp(424242)
        assert client.retries == 0
        assert client.reconnects == 0  # the stream stayed healthy
        assert client.ping()

    def test_closed_client_refuses_calls(self, served):
        __, __s, client = served
        client.close()
        with pytest.raises(ConnectionError):
            client.ping()


class TestStreamDesync:
    def _half_open_server(self, payload: bytes):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, __ = listener.accept()
            if payload:
                conn.sendall(payload)
            threading.Event().wait(5.0)  # stall, keeping conn open
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener

    def _read_after_stall(self, payload: bytes):
        """Read from a server that sent ``payload`` and then stalled."""
        listener = self._half_open_server(payload)
        try:
            sock = socket.create_connection(listener.getsockname(),
                                            timeout=0.2)
            decoder = FrameDecoder()
            with pytest.raises(TimeoutError):
                read_message(sock, decoder)
            # A timeout never costs the connection: whatever part of a
            # frame arrived waits in the decoder for the next read.
            assert sock.fileno() != -1
            sock.close()
            return decoder
        finally:
            listener.close()

    def test_partial_prefix_timeout_keeps_the_socket(self):
        # Two of four length-prefix bytes arrived.
        assert len(self._read_after_stall(b"\x00\x00")) == 2

    def test_idle_timeout_keeps_the_socket_usable(self):
        # No bytes at all: a plain timeout.
        assert len(self._read_after_stall(b"")) == 0

    def test_partial_body_timeout_keeps_the_socket(self):
        # A full prefix promising 100 bytes, then only 3 arrive.
        assert len(self._read_after_stall(b"\x00\x00\x00\x64abc")) == 7


class TestWalCounters:
    """Commit-pipeline accounting must be visible to session operators."""

    def test_served_commits_reach_the_wal_counters(self, tmp_path):
        from repro.tools.stats import wal_counters, wal_stats

        project_id, __ = HAM.create_graph(tmp_path / "graph")
        ham = HAM.open_graph(project_id, tmp_path / "graph")
        server = HAMServer(ham).start()
        before = wal_counters()
        try:
            sessions = [RemoteHAM(*server.address, timeout=5.0, retry=FAST)
                        for __ in range(3)]
            try:
                def commit_some(client):
                    for __ in range(4):
                        node, __t = client.add_node()
                        client.set_node_attribute_value(
                            node=node,
                            attribute=client.get_attribute_index("k"),
                            value="v")

                pool = [threading.Thread(target=commit_some, args=(c,))
                        for c in sessions]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join()
            finally:
                for client in sessions:
                    client.close()
        finally:
            server.stop()
        stats = wal_stats(ham)
        # 3 sessions x 4 iterations x >= 2 single-op transactions each.
        assert stats.commit_forces >= 24
        assert stats.group_fsyncs >= 1
        assert stats.group_fsyncs == \
            stats.commit_forces - stats.absorbed_commits
        assert stats.bytes_flushed > 0
        assert stats.fsyncs_per_commit <= 1.0
        # The process-wide mirror moved by exactly this log's deltas
        # (no other WAL is active inside this test).
        after = wal_counters()
        assert after["commit_forces"] - before["commit_forces"] \
            >= stats.commit_forces
        assert after["group_fsyncs"] - before["group_fsyncs"] >= 1
        ham.close()

    def test_ephemeral_graph_reports_zero_wal_stats(self, served):
        from repro.tools.stats import wal_stats

        ham, __server, client = served
        client.add_node()
        stats = wal_stats(ham)
        assert stats.commit_forces == 0
        assert stats.appends == 0
