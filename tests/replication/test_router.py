"""Replication-aware routing and session guarantees over real sockets."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.ham import HAM
from repro.errors import NotPrimaryError, ReplicaLagError, RetryableError
from repro.replication.replica import Replica
from repro.replication.router import _OPS, ReplicaEndpoint, ReplicatedHAM
from repro.server.client import RemoteHAM, RetryPolicy
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


class TestSessionSurface:
    """The router's own session verbs: batches, pipelines, ping, the
    context manager, and property-kind operations."""

    def test_batches_and_pipelines_run_on_the_primary(self, cluster):
        with cluster.router(client_factory=CountingRemoteHAM) as router:
            assert router.ping() is True
            with router.batch() as batch:
                first = batch.add_node()
                second = batch.add_node()
            with router.pipeline(max_inflight=1) as pipe:
                stamps = [pipe.get_node_timestamp(future.result()[0])
                          for future in (first, second)]
            for future, stamp in zip((first, second), stamps):
                node, time = future.result()
                assert stamp.result() == time
                assert cluster.ham.get_node_timestamp(node) == time
            assert pipe.max_depth == 1
            assert router.primary.calls == ["ping"]  # the rest pipelined
            assert not any(endpoint.client.calls
                           for endpoint in router._readers)
        # Leaving the block closed every session.
        assert router.primary._closed
        assert all(endpoint.client._closed for endpoint in router._readers)

    def test_property_operations_route_as_reads(self, cluster):
        router = cluster.router(client_factory=CountingRemoteHAM,
                                status_interval=30.0)
        try:
            cluster.await_catchup()
            for endpoint in router._readers:
                endpoint.refresh()
            assert router.project_id == cluster.ham.project_id
            replica_calls = [call for endpoint in router._readers
                             for call in endpoint.client.calls]
            assert "project_id" in replica_calls
            assert "project_id" not in router.primary.calls
            # Inside a transaction the property follows it home.
            txn = router.begin()
            assert router._route_target(
                _OPS["now"], (), {"txn": txn}) is router.primary
            txn.abort()
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


class TestStoppedReplicas:
    """A replica that stops streaming, or stops answering, stops serving
    reads: the router answers from the primary instead."""

    @pytest.fixture
    def single(self, tmp_path):
        cluster = Cluster(tmp_path, replicas=1)
        yield cluster
        cluster.close()

    def test_stopped_stream_is_not_read_without_ryw(self, single):
        # Without read-your-writes only the staleness budget guards the
        # read.  A stopped replica's lag freezes at its last sample (0
        # here), so the stream state itself must rule it out, or the
        # router serves the old version for ever.
        router = single.router(read_your_writes=False, status_interval=0.05)
        try:
            node, t = router.add_node()
            t = router.modify_node(node=node, expected_time=t,
                                   contents=b"v1")
            single.await_catchup()
            single.replicas[0].stop()
            router.modify_node(node=node, expected_time=t, contents=b"v2")
            time.sleep(0.1)  # past status_interval: the next read samples
            assert router.open_node(node)[0] == b"v2"
            endpoint = router._readers[0]
            assert endpoint.healthy and not endpoint.streaming
            assert router.cluster_status()["replicas"][0]["streaming"] is False
        finally:
            router.close()

    def test_stopped_stream_reads_fall_back_without_waiting(self, single):
        # Under read-your-writes a stopped replica never reaches the
        # session's LSN; the router must not sit out ryw_timeout on it
        # for every read.
        router = single.router(ryw_timeout=2.0)
        try:
            node, t = router.add_node()
            single.await_catchup()
            single.replicas[0].stop()
            for n in range(3):
                t = router.modify_node(node=node, expected_time=t,
                                       contents=b"v%d" % n)
                started = time.monotonic()
                assert router.open_node(node)[0] == b"v%d" % n
                assert time.monotonic() - started < 1.0
        finally:
            router.close()

    def test_dead_replica_reads_fail_over_to_primary(self, single):
        # The cached status still qualifies the replica, so the read is
        # sent to it and dies on the transport; the router must mark it
        # dead and answer from the primary.  Run in a thread: if the
        # endpoint stayed eligible, the read would loop for ever.
        router = single.router(
            read_your_writes=False, status_interval=30.0,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01))
        try:
            node, t = router.add_node()
            t = router.modify_node(node=node, expected_time=t,
                                   contents=b"replica copy")
            single.await_catchup()
            endpoint = router._readers[0]
            assert endpoint.refresh()
            single.replicas[0].stop()
            router.modify_node(node=node, expected_time=t,
                               contents=b"primary copy")
            single.replica_servers[0].stop(disconnect_clients=True)
            answers = []
            reader = threading.Thread(
                target=lambda: answers.append(router.open_node(node)[0]),
                daemon=True)
            reader.start()
            reader.join(timeout=20.0)
            assert not reader.is_alive(), "routed read never returned"
            assert answers == [b"primary copy"]
            assert not endpoint.healthy
        finally:
            router.close()


class TestWrittenOffReplicasComeBack:
    """An endpoint written off — stream stopped, or server gone — is
    sampled again at most every ``status_interval``, and serves reads
    again once its replica streams and has caught up."""

    @pytest.fixture
    def single(self, tmp_path):
        cluster = Cluster(tmp_path, replicas=1)
        yield cluster
        cluster.close()

    @staticmethod
    def replica_reads(router):
        return router._readers[0].client.calls.count("open_node")

    def test_restarted_stream_serves_reads_again(self, single):
        router = single.router(client_factory=CountingRemoteHAM,
                               status_interval=0.05, ryw_timeout=0.5)
        try:
            node, t = router.add_node()
            t = router.modify_node(node=node, expected_time=t,
                                   contents=b"v1")
            single.await_catchup()
            single.replicas[0].stop()
            t = router.modify_node(node=node, expected_time=t,
                                   contents=b"v2")
            assert router.open_node(node)[0] == b"v2"
            endpoint = router._readers[0]
            assert not endpoint.serving
            before = self.replica_reads(router)
            single.replicas[0].start()
            single.await_catchup()
            for __ in range(5):
                time.sleep(0.06)  # past status_interval
                assert router.open_node(node)[0] == b"v2"
            assert endpoint.serving
            assert self.replica_reads(router) > before
        finally:
            router.close()

    def test_restarted_server_serves_reads_again(self, single):
        router = single.router(
            client_factory=CountingRemoteHAM, read_your_writes=False,
            status_interval=0.05,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01))
        server = single.replica_servers[0]
        try:
            node, t = router.add_node()
            router.modify_node(node=node, expected_time=t,
                               contents=b"body")
            single.await_catchup()
            port = server.address[1]
            server.stop(disconnect_clients=True)
            assert router.open_node(node)[0] == b"body"
            endpoint = router._readers[0]
            assert not endpoint.healthy
            before = self.replica_reads(router)
            server = HAMServer(single.replicas[0].ham, port=port)
            server.start()
            single.replica_servers[0] = server
            for __ in range(5):
                time.sleep(0.06)
                assert router.open_node(node)[0] == b"body"
            assert endpoint.healthy and endpoint.serving
            assert self.replica_reads(router) > before
        finally:
            router.close()

    def test_down_server_is_probed_without_client_backoff(self, single):
        # While the server stays down, each re-sample is one refused
        # connect: the endpoint's client, whose retry policy sleeps
        # between reconnect attempts, is not asked.
        router = single.router(read_your_writes=False, status_interval=0.02)
        try:
            node, __ = router.add_node()
            single.await_catchup()
            single.replica_servers[0].stop(disconnect_clients=True)
            router.open_node(node)  # dies on the transport: marked dead
            endpoint = router._readers[0]
            assert not endpoint.healthy
            retries = endpoint.client.retries
            for __ in range(5):
                time.sleep(0.03)
                router.open_node(node)
            assert endpoint.client.retries == retries
            assert not endpoint.healthy
        finally:
            router.close()

    def test_written_off_endpoint_is_sampled_once_per_interval(
            self, single):
        router = single.router(client_factory=CountingRemoteHAM,
                               status_interval=30.0)
        try:
            node, __ = router.add_node()
            single.await_catchup()
            single.replicas[0].stop()
            endpoint = router._readers[0]
            endpoint.refresh()
            assert not endpoint.serving
            sampled = endpoint.client.calls.count("repl_status")
            for __ in range(5):
                router.open_node(node)
            assert endpoint.client.calls.count("repl_status") == sampled
        finally:
            router.close()


class TestUnknownLag:
    def test_stopped_replica_reports_unknown_lag(self, tmp_path):
        cluster = Cluster(tmp_path, replicas=1)
        try:
            cluster.ham.add_node()
            cluster.await_catchup()
            replica = cluster.replicas[0]
            assert replica.status()["lag_bytes"] == 0
            replica.stop()
            status = replica.status()
            assert status["streaming"] is False
            assert status["lag_bytes"] is None
        finally:
            cluster.close()

    @pytest.mark.parametrize("lag,serving", [(None, False), (0, True)])
    def test_refresh_treats_unknown_lag_as_not_qualifying(self, lag,
                                                          serving):
        class StubClient:
            def repl_status(self):
                return {"replayed_lsn": 10, "lag_bytes": lag,
                        "streaming": True}

        endpoint = ReplicaEndpoint("localhost", 1)
        endpoint.client = StubClient()
        assert endpoint.refresh() is serving
        assert endpoint.serving is serving and endpoint.healthy
        assert endpoint.lag_bytes == lag


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
