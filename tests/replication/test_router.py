"""Replication-aware routing and session guarantees over real sockets."""

from __future__ import annotations

import time

import pytest

from repro.core.ham import HAM
from repro.errors import NotPrimaryError, ReplicaLagError, RetryableError
from repro.replication.replica import Replica
from repro.replication.router import ReplicatedHAM
from repro.server.client import RemoteHAM
from repro.server.host import GraphHost
from repro.server.server import HAMServer


class CountingRemoteHAM(RemoteHAM):
    """RemoteHAM that counts the wire calls it issues (read-routing spy)."""

    def __init__(self, *args, **kwargs):
        self.calls = []
        super().__init__(*args, **kwargs)

    def _call(self, method, **params):
        self.calls.append(method)
        return super()._call(method, **params)


class Cluster:
    """One primary server plus ``n`` streaming replica servers."""

    def __init__(self, tmp_path, replicas=2):
        path = tmp_path / "primary"
        project_id, __ = HAM.create_graph(path)
        self.ham = HAM.open_graph(project_id, path)
        self.server = HAMServer(self.ham)
        self.server.start()
        self.replicas = []
        self.replica_servers = []
        for n in range(replicas):
            source = RemoteHAM(*self.server.address, timeout=10.0)
            replica = Replica(source, tmp_path / f"replica-{n}",
                              name=f"r{n}", poll_wait=0.2)
            server = HAMServer(replica.ham)
            server.start()
            self.replicas.append(replica)
            self.replica_servers.append(server)

    def router(self, **kwargs) -> ReplicatedHAM:
        kwargs.setdefault("timeout", 10.0)
        return ReplicatedHAM(
            self.server.address,
            tuple(server.address for server in self.replica_servers),
            **kwargs)

    def await_catchup(self, timeout=10.0):
        target = self.ham._log.durable_end()
        deadline = time.monotonic() + timeout
        for replica in self.replicas:
            while replica.replayed_lsn < target:
                assert time.monotonic() < deadline, (
                    f"{replica.name} stalled at {replica.replayed_lsn} "
                    f"< {target} (failure: {replica.failure!r})")
                time.sleep(0.02)

    def close(self):
        for server in self.replica_servers:
            server.stop(disconnect_clients=True)
        for replica in self.replicas:
            try:
                replica.close()
            except Exception:
                pass
        self.server.stop(disconnect_clients=True)
        if not self.ham._closed:
            try:
                self.ham.close()
            except Exception:
                pass


@pytest.fixture
def cluster(tmp_path):
    cluster = Cluster(tmp_path)
    yield cluster
    cluster.close()


class TestReadRouting:
    def test_reads_go_to_replicas_writes_to_primary(self, cluster):
        router = cluster.router(client_factory=CountingRemoteHAM,
                                status_interval=30.0)
        try:
            node, t = router.add_node()
            router.modify_node(node=node, expected_time=t,
                               contents=b"routed body")
            cluster.await_catchup()
            for endpoint in router._readers:
                endpoint.refresh()
            assert router.open_node(node)[0] == b"routed body"
            primary_calls = router.primary.calls
            assert "add_node" in primary_calls
            assert "modify_node" in primary_calls
            assert "open_node" not in primary_calls
            replica_calls = [call for endpoint in router._readers
                             for call in endpoint.client.calls]
            assert "open_node" in replica_calls
        finally:
            router.close()

    def test_read_your_writes_blocks_until_replayed(self, cluster):
        router = cluster.router(ryw_timeout=10.0)
        try:
            attr = router.get_attribute_index("color")
            node, __ = router.add_node()
            router.set_node_attribute_value(node=node, attribute=attr,
                                            value="fresh")
            # Immediately read back through the replica tier: the
            # session guarantee must hold without any explicit wait.
            value = router.get_node_attribute_value(node=node,
                                                    attribute=attr)
            assert value == "fresh"
        finally:
            router.close()

    def test_read_only_transactions_open_on_replicas(self, cluster):
        router = cluster.router(client_factory=CountingRemoteHAM,
                                ryw_timeout=10.0)
        try:
            node, t = router.add_node()
            router.modify_node(node=node, expected_time=t,
                               contents=b"txn body")
            with router.begin(read_only=True) as txn:
                contents = router.open_node(node, txn=txn)[0]
            assert contents == b"txn body"
            assert "begin" not in router.primary.calls
        finally:
            router.close()


class TestPrimaryOnlyRouting:
    def test_no_replicas_means_no_stale_rejects(self, tmp_path):
        # With no read replicas configured every read goes to the
        # primary by construction — that is the topology working as
        # designed, not a staleness fallback, and the lag alarm
        # (``stale_rejects``) must stay silent.
        cluster = Cluster(tmp_path, replicas=0)
        router = cluster.router()
        try:
            node, t = router.add_node()
            router.modify_node(node=node, expected_time=t,
                               contents=b"primary only")
            assert router.open_node(node)[0] == b"primary only"
            assert router.stale_rejects == 0
        finally:
            router.close()
            cluster.close()


class TestHostedPrimary:
    def test_router_binds_a_hosted_graph(self, tmp_path):
        # A GraphHost primary serves many graphs, so the router's primary
        # session must bind one before any operation; ``graph=`` does it
        # with the stock client, and the binding survives a reconnect.
        host = GraphHost(tmp_path / "graphs")
        project_id, __ = host.create_graph("design")
        ham = host.open_graph(project_id, "design")
        server = HAMServer(host=host).start()
        source = RemoteHAM(*server.address, timeout=10.0)
        source.host_open_graph(project_id, "design")
        replica = Replica(source, tmp_path / "replica", name="r0",
                          poll_wait=0.2)
        replica_server = HAMServer(replica.ham).start()
        router = ReplicatedHAM(server.address, (replica_server.address,),
                               graph=(project_id, "design"),
                               ryw_timeout=10.0, timeout=10.0)
        try:
            node, t = router.add_node()
            t = router.modify_node(node=node, expected_time=t,
                                   contents=b"hosted body\n")
            assert ham.open_node(node)[0] == b"hosted body\n"
            # Read-your-writes through the replica tier, no explicit wait.
            assert router.open_node(node)[0] == b"hosted body\n"
            assert replica.ham.open_node(node)[0] == b"hosted body\n"
            client = router.primary
            with client._lock:
                client._teardown_locked()
            router.modify_node(node=node, expected_time=t,
                               contents=b"after reconnect\n")
            assert client.reconnects == 1
            assert router.open_node(node)[0] == b"after reconnect\n"
            assert router.stale_rejects == 0  # the replica served reads
        finally:
            router.close()
            replica_server.stop(disconnect_clients=True)
            replica.close()
            source.close()
            server.stop(disconnect_clients=True)
            host.close()


class TestSessionGuarantees:
    def test_all_replicas_lagging_falls_back_to_primary(self, cluster):
        router = cluster.router(ryw_timeout=0.3)
        try:
            node, t = router.add_node()
            cluster.await_catchup()
            # Freeze the replica tier, then write past it: every
            # replica's watermark is now behind the session's LSN.
            for replica in cluster.replicas:
                replica.stop()
            router.modify_node(node=node, expected_time=t,
                               contents=b"primary only")
            before = router.stale_rejects
            assert router.open_node(node)[0] == b"primary only"
            assert router.stale_rejects == before + 1
        finally:
            router.close()

    def test_all_replicas_lagging_raises_without_fallback(self, cluster):
        router = cluster.router(ryw_timeout=0.3,
                                fallback_to_primary=False)
        try:
            node, t = router.add_node()
            cluster.await_catchup()
            for replica in cluster.replicas:
                replica.stop()
            router.modify_node(node=node, expected_time=t,
                               contents=b"primary only")
            with pytest.raises(ReplicaLagError):
                router.open_node(node)
        finally:
            router.close()

    def test_replica_lag_error_round_trips_the_wire(self, cluster):
        # Semi-sync with no subscribers acking: the server-side commit
        # raises ReplicaLagError, which must arrive typed at the client.
        hub = cluster.ham._replication_hub()
        for replica in cluster.replicas:
            replica.stop()
        hub.min_sync = len(cluster.replicas) + 1  # unsatisfiable
        hub.sync_timeout = 0.2
        client = RemoteHAM(*cluster.server.address, timeout=10.0)
        try:
            txn = client.begin()
            node, __ = client.add_node(txn=txn)
            with pytest.raises(ReplicaLagError):
                txn.commit()
            hub.min_sync = 0
            # The commit was durable and published regardless.
            assert client.open_node(node) is not None
        finally:
            hub.min_sync = 0
            client.close()

    def test_read_your_writes_survives_reconnect(self, cluster):
        router = cluster.router(ryw_timeout=10.0)
        try:
            attr = router.get_attribute_index("color")
            node, __ = router.add_node()
            router.set_node_attribute_value(node=node, attribute=attr,
                                            value="pre-reconnect")
            lsn = router.last_commit_lsn
            assert lsn > 0
            # Tear the primary session's socket down; the client
            # reconnects transparently on its next call.  The session
            # watermark must survive the reconnect so replica reads
            # still honor read-your-writes.
            client = router.primary
            with client._lock:
                client._teardown_locked()
            client.ping()
            assert client.reconnects == 1
            assert router.last_commit_lsn == lsn
            value = router.get_node_attribute_value(node=node,
                                                    attribute=attr)
            assert value == "pre-reconnect"
        finally:
            router.close()


class TestFailover:
    def test_promotes_most_caught_up_replica(self, cluster):
        # Short RYW timeout: after failover the surviving replica still
        # chains off the dead primary, so session reads fall back.
        router = cluster.router(ryw_timeout=0.3)
        try:
            node, t = router.add_node()
            router.modify_node(node=node, expected_time=t,
                               contents=b"before failover")
            cluster.await_catchup()
            # Kill the primary server outright.
            cluster.server.stop(disconnect_clients=True)
            from repro.testing.crashmatrix import abandon
            abandon(cluster.ham)
            # A mutation in flight when the connection dies has an
            # unknown outcome: it surfaces RetryableError rather than
            # being silently re-routed to a new primary.
            with pytest.raises(RetryableError):
                router.add_node()
            # The next mutation fails at connect time, which is safe to
            # re-route: it triggers failover and lands on the promoted
            # replica.
            node2, __ = router.add_node()
            assert router.failovers == 1
            assert router.open_node(node)[0] == b"before failover"
            assert router.open_node(node2) is not None
            status = router.primary.repl_status()
            assert status["role"] == "primary"
        finally:
            router.close()

    def test_forced_failover_reroutes_clients(self, cluster):
        router = cluster.router(ryw_timeout=0.3)
        try:
            node, t = router.add_node()
            cluster.await_catchup()
            old_primary = router.primary
            router.failover()
            assert router.primary is not old_primary
            assert router.failovers == 1
            # The old primary has not been demoted (fencing is the
            # operator's job) but the router now writes to the new one.
            node2, __ = router.add_node()
            assert router.primary.repl_status()["role"] == "primary"
            assert router.open_node(node2) is not None
        finally:
            router.close()

    def test_replica_refuses_mutations_over_the_wire(self, cluster):
        client = RemoteHAM(*cluster.replica_servers[0].address,
                           timeout=10.0)
        try:
            with pytest.raises(NotPrimaryError):
                client.add_node()
        finally:
            client.close()
