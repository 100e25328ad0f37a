"""Tests for the multi-graph host server."""

import pytest

from repro import HAM
from repro.errors import GraphNotFoundError, ProtocolError
from repro.server import GraphHost, HAMServer, RemoteHAM


@pytest.fixture
def hosted(tmp_path):
    host = GraphHost(tmp_path / "graphs")
    server = HAMServer(host=host).start()
    client = RemoteHAM(*server.address)
    yield host, server, client
    client.close()
    server.stop()
    host.close()


class TestGraphHost:
    def test_create_open_round_trip(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        project_id, __ = host.create_graph("design")
        ham = host.open_graph(project_id, "design")
        assert ham.project_id == project_id

    def test_open_returns_shared_instance(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        project_id, __ = host.create_graph("design")
        first = host.open_graph(project_id, "design")
        second = host.open_graph(project_id, "design")
        assert first is second

    def test_wrong_project_id_rejected(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        project_id, __ = host.create_graph("design")
        host.open_graph(project_id, "design")
        with pytest.raises(GraphNotFoundError):
            host.open_graph(project_id + 1, "design")

    def test_list_graphs(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        host.create_graph("alpha")
        host.create_graph("beta")
        assert host.list_graphs() == ["alpha", "beta"]

    def test_invalid_names_rejected(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(GraphNotFoundError):
                host.create_graph(bad)

    def test_destroy_graph(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        project_id, __ = host.create_graph("temp")
        host.open_graph(project_id, "temp")
        host.destroy_graph(project_id, "temp")
        assert host.list_graphs() == []

    def test_close_checkpoints_open_graphs(self, tmp_path):
        host = GraphHost(tmp_path / "graphs")
        project_id, __ = host.create_graph("durable")
        ham = host.open_graph(project_id, "durable")
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"kept\n")
        host.close()
        reopened = HAM.open_graph(project_id,
                                  tmp_path / "graphs" / "durable")
        assert reopened.open_node(node)[0] == b"kept\n"
        reopened.close()

    def test_serve_as_documented_context_manager(self, tmp_path):
        root = tmp_path / "graphs"
        with GraphHost(root) as host, host.serve() as server:
            project_id, __ = host.create_graph("design")
            ham = host.open_graph(project_id, "design")
            node, time = ham.add_node()
            ham.modify_node(node=node, expected_time=time,
                            contents=b"served\n")
            with RemoteHAM(*server.address) as client:
                client.host_open_graph(project_id, "design")
                assert client.open_node(node)[0] == b"served\n"
        assert not any(thread.is_alive() for thread in server.threads())

    def test_server_start_is_idempotent(self):
        server = HAMServer(ham=HAM.ephemeral())
        try:
            assert server.start() is server
            workers = server.threads()
            assert server.start() is server
            assert server.threads() == workers
        finally:
            server.stop()

    def test_server_requires_exactly_one_mode(self, tmp_path):
        with pytest.raises(ValueError):
            HAMServer()
        with pytest.raises(ValueError):
            HAMServer(ham=HAM.ephemeral(),
                      host=GraphHost(tmp_path / "g"))


class TestHostedSessions:
    def test_create_list_open_over_rpc(self, hosted):
        __, ___, client = hosted
        project_id, ____ = client.host_create_graph("shared")
        assert client.host_list_graphs() == ["shared"]
        client.host_open_graph(project_id, "shared")
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time,
                           contents=b"over rpc\n")
        assert client.open_node(node)[0] == b"over rpc\n"

    def test_unbound_session_rejected(self, hosted):
        __, ___, client = hosted
        with pytest.raises(ProtocolError):
            client.add_node()

    def test_two_sessions_share_one_graph(self, hosted):
        host, server, alice = hosted
        project_id, __ = alice.host_create_graph("team")
        alice.host_open_graph(project_id, "team")
        node, time = alice.add_node()
        alice.modify_node(node=node, expected_time=time,
                          contents=b"from alice\n")
        with RemoteHAM(*server.address) as bob:
            bob.host_open_graph(project_id, "team")
            assert bob.open_node(node)[0] == b"from alice\n"

    def test_sessions_on_different_graphs_are_isolated(self, hosted):
        host, server, alice = hosted
        id_one, __ = alice.host_create_graph("one")
        id_two, __ = alice.host_create_graph("two")
        alice.host_open_graph(id_one, "one")
        node, time = alice.add_node()
        with RemoteHAM(*server.address) as bob:
            bob.host_open_graph(id_two, "two")
            other, ___ = bob.add_node()
            assert bob.now != alice.now or other == node  # separate clocks
            from repro.errors import NodeNotFoundError
            # bob's graph has exactly one node, its own.
            assert bob.get_graph_query().node_indexes == [other]
        assert alice.get_graph_query().node_indexes == [node]

    def test_rebinding_aborts_open_transactions(self, hosted):
        host, server, client = hosted
        id_one, __ = client.host_create_graph("first")
        id_two, __ = client.host_create_graph("second")
        client.host_open_graph(id_one, "first")
        txn = client.begin()
        orphan, __ = client.add_node(txn)
        client.host_open_graph(id_two, "second")  # abandons txn
        client.host_open_graph(id_one, "first")
        from repro.errors import NodeNotFoundError
        with pytest.raises(NodeNotFoundError):
            client.open_node(orphan)

    def test_single_graph_server_rejects_host_methods(self):
        ham = HAM.ephemeral()
        with HAMServer(ham) as server:
            with RemoteHAM(*server.address) as client:
                with pytest.raises(ProtocolError):
                    client.host_list_graphs()


class TestHostDestroyOverRpc:
    def test_destroy_hosted_graph(self, hosted):
        __, ___, client = hosted
        project_id, ____ = client.host_create_graph("doomed")
        client.host_open_graph(project_id, "doomed")
        client.host_destroy_graph(project_id, "doomed")
        assert client.host_list_graphs() == []
        # The session is unbound after destroying its graph.
        with pytest.raises(ProtocolError):
            client.add_node()
