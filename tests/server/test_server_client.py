"""Integration tests: RemoteHAM against a live HAMServer."""

import select
import threading
import time as _time

import pytest

from repro import HAM, DemonRegistry, EventKind, LinkPt, Protections
from repro.errors import (
    NodeNotFoundError,
    ProtocolError,
    StaleVersionError,
    SubscriptionOverflowError,
)
from repro.server import HAMServer, RemoteHAM, ServerConfig


@pytest.fixture
def served():
    ham = HAM.ephemeral()
    server = HAMServer(ham).start()
    client = RemoteHAM(*server.address)
    yield ham, server, client
    client.close()
    server.stop()


class TestBasicOperations:
    def test_ping(self, served):
        __, ___, client = served
        assert client.ping()

    def test_project_id_and_now(self, served):
        ham, __, client = served
        assert client.project_id == ham.project_id
        assert client.now == ham.now

    def test_node_round_trip(self, served):
        __, ___, client = served
        node, time = client.add_node()
        new_time = client.modify_node(node=node, expected_time=time,
                                      contents=b"remote contents\n")
        contents, link_points, values, current = client.open_node(node)
        assert contents == b"remote contents\n"
        assert current == new_time

    def test_links_and_attributes(self, served):
        __, ___, client = served
        a, __ = client.add_node()
        b, __ = client.add_node()
        link, ___ = client.add_link(from_pt=LinkPt(a, position=3),
                                    to_pt=LinkPt(b))
        assert client.get_from_node(link)[0] == a
        assert client.get_to_node(link)[0] == b
        attr = client.get_attribute_index("relation")
        client.set_link_attribute_value(link=link, attribute=attr,
                                        value="isPartOf")
        assert client.get_link_attribute_value(link, attr) == "isPartOf"
        assert client.get_link_attributes(link) == [
            ("relation", attr, "isPartOf")]

    def test_node_attributes(self, served):
        __, ___, client = served
        node, ____ = client.add_node()
        attr = client.get_attribute_index("document")
        client.set_node_attribute_value(node=node, attribute=attr,
                                        value="spec")
        assert client.get_node_attribute_value(node, attr) == "spec"
        assert ("document", attr, "spec") in client.get_node_attributes(node)
        client.delete_node_attribute(node=node, attribute=attr)
        assert client.get_attribute_values(attr) == []

    def test_queries(self, served):
        __, ___, client = served
        with client.begin() as txn:
            root, time = client.add_node(txn)
            client.modify_node(txn, node=root, expected_time=time,
                               contents=b"root\n")
            child, __ = client.add_node(txn)
            client.add_link(txn, from_pt=LinkPt(root), to_pt=LinkPt(child))
            attr = client.get_attribute_index("kind", txn)
            client.set_node_attribute_value(txn, node=root, attribute=attr,
                                            value="root")
        traversal = client.linearize_graph(root)
        assert traversal.node_indexes == [root, child]
        query = client.get_graph_query(node_predicate="kind = root")
        assert query.node_indexes == [root]

    def test_versions_and_differences(self, served):
        __, ___, client = served
        node, time = client.add_node()
        t2 = client.modify_node(node=node, expected_time=time,
                                contents=b"one\n", explanation="first")
        t3 = client.modify_node(node=node, expected_time=t2,
                                contents=b"one\ntwo\n")
        major, minor = client.get_node_versions(node)
        assert [v.time for v in major] == [time, t2, t3]
        assert major[1].explanation == "first"
        script = client.get_node_differences(node, t2, t3)
        assert len(script) == 1

    def test_copy_link_and_delete(self, served):
        __, ___, client = served
        a, __ = client.add_node()
        b, __ = client.add_node()
        c, __ = client.add_node()
        original, ___ = client.add_link(from_pt=LinkPt(a), to_pt=LinkPt(b))
        copy, ___ = client.copy_link(link=original, keep_source=True,
                                     other_pt=LinkPt(c))
        assert client.get_to_node(copy)[0] == c
        client.delete_link(link=copy)
        with pytest.raises(Exception):
            client.get_to_node(copy)

    def test_protection_change(self, served):
        __, ___, client = served
        node, time = client.add_node()
        client.change_node_protection(node=node,
                                      protections=Protections.READ)
        with pytest.raises(Exception):
            client.modify_node(node=node, expected_time=time, contents=b"x")

    def test_demon_operations(self, served):
        ham, __, client = served
        fired = []
        ham.demons.register("server-side", fired.append)
        node, time = client.add_node()
        client.set_node_demon(node=node, event=EventKind.MODIFY_NODE,
                              demon="server-side")
        assert client.get_node_demons(node) == [
            (EventKind.MODIFY_NODE, "server-side")]
        client.modify_node(node=node, expected_time=time, contents=b"x")
        assert [event.node for event in fired] == [node]


class TestErrorMarshalling:
    def test_typed_errors_re_raised(self, served):
        __, ___, client = served
        with pytest.raises(NodeNotFoundError):
            client.open_node(999)

    def test_stale_version_error(self, served):
        __, ___, client = served
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time, contents=b"x")
        with pytest.raises(StaleVersionError):
            client.modify_node(node=node, expected_time=time, contents=b"y")

    def test_unknown_transaction_rejected(self, served):
        __, ___, client = served

        class FakeTxn:
            txn_id = 424242

        with pytest.raises(ProtocolError):
            client.add_node(FakeTxn())


class TestTransactionsOverRpc:
    def test_commit_makes_work_visible(self, served):
        ham, __, client = served
        with client.begin() as txn:
            node, time = client.add_node(txn)
            client.modify_node(txn, node=node, expected_time=time,
                               contents=b"committed remotely\n")
        assert ham.open_node(node)[0] == b"committed remotely\n"

    def test_abort_discards_work(self, served):
        ham, __, client = served
        txn = client.begin()
        node, __ = client.add_node(txn)
        txn.abort()
        with pytest.raises(NodeNotFoundError):
            ham.open_node(node)

    def test_disconnect_aborts_open_transactions(self, served):
        import time as _time
        ham, server, client = served
        txn = client.begin()
        node, __ = client.add_node(txn)
        client.close()
        deadline = _time.monotonic() + 5
        while _time.monotonic() < deadline:
            if node not in [n.index for n in ham.store.live_nodes(0)]:
                break
            _time.sleep(0.05)
        with pytest.raises(NodeNotFoundError):
            ham.open_node(node)


class TestConcurrentClients:
    def test_parallel_sessions_make_disjoint_updates(self, served):
        ham, server, __ = served
        clients = 4
        nodes_per_client = 5
        errors = []

        def worker():
            try:
                with RemoteHAM(*server.address) as client:
                    for __ in range(nodes_per_client):
                        node, time = client.add_node()
                        client.modify_node(node=node, expected_time=time,
                                           contents=b"from worker\n")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for __ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(ham.store.live_nodes(0)) == clients * nodes_per_client


class TestCommitLsnStamping:
    def test_watermark_tracks_only_own_commits(self, tmp_path):
        # Ephemeral graphs have no LSN space; use a disk-backed one.
        project_id, __ = HAM.create_graph(tmp_path)
        ham = HAM.open_graph(project_id, tmp_path)
        server = HAMServer(ham).start()
        try:
            with RemoteHAM(*server.address) as client_a, \
                    RemoteHAM(*server.address) as client_b:
                node, time = client_a.add_node()
                client_a.modify_node(node=node, expected_time=time,
                                     contents=b"session A's write")
                assert client_a.last_commit_lsn > 0
                # B issues a mutating-class request that commits
                # nothing.  Its reply must not carry A's commit LSN: a
                # session's read-your-writes watermark covers its *own*
                # writes, and over-advancing it forces replica reads to
                # wait on (or reject over) commits the session never
                # observed.
                client_b.begin().abort()
                assert client_b.last_commit_lsn == 0
                client_b.add_node()
                assert client_b.last_commit_lsn > 0
        finally:
            server.stop()
            ham.close()


class TestLongPollDetachment:
    def test_parked_subscribe_leaves_workers_free(self, tmp_path):
        # A caught-up repl_subscribe parks for its full wait.  Served
        # off the single pool worker it would starve every other
        # session; detached onto a dedicated thread, ordinary requests
        # keep flowing.
        project_id, __ = HAM.create_graph(tmp_path)
        ham = HAM.open_graph(project_id, tmp_path)
        server = HAMServer(ham, config=ServerConfig(workers=1)).start()
        subscriber = RemoteHAM(*server.address)
        client = RemoteHAM(*server.address)
        try:
            status = ham.repl_status()
            parked = threading.Thread(
                target=subscriber.repl_subscribe,
                kwargs={"from_lsn": status["durable_lsn"],
                        "epoch": status["epoch"], "wait": 5.0},
                daemon=True)
            parked.start()
            deadline = _time.monotonic() + 2.0
            while not any(t.name == "ham-longpoll"
                          for t in server.threads()):
                assert _time.monotonic() < deadline, \
                    "subscribe was never detached from the pool"
                _time.sleep(0.01)
            started = _time.monotonic()
            node, time = client.add_node()
            client.modify_node(node=node, expected_time=time,
                               contents=b"not blocked")
            assert _time.monotonic() - started < 2.0
            # The commit wakes the parked fetch; it returns promptly.
            parked.join(timeout=5.0)
            assert not parked.is_alive()
        finally:
            client.close()
            subscriber.close()
            server.stop()
            ham.close()


class TestRemoteWatchPoll:
    def test_poll_zero_returns_a_push_already_received(self, served):
        ham, __, client = served
        with client.watch() as watch:
            node, ___ = ham.add_node()
            # Wait until the pushed frame sits in the socket buffer.
            readable, ____, _____ = select.select([client._sock], [], [],
                                                  5.0)
            assert readable, "the push never arrived"
            event = watch.poll(0)
            assert event is not None
            assert event["node"] == node

    def test_poll_zero_on_an_idle_feed_does_not_wait(self, served):
        __, ___, client = served
        with client.watch() as watch:
            started = _time.monotonic()
            for ____ in range(20):
                assert watch.poll(0) is None
            assert _time.monotonic() - started < 0.25


class TestSubscriptionVerbs:
    def test_unsubscribe_detaches_the_feed(self, served):
        ham, __, client = served
        watch = client.watch()
        status = client.subscription_status()
        assert status["session_subscriptions"] == 1
        assert status["active"] == 1
        assert client.unsubscribe(watch.sub_id) is True
        assert watch.sub_id not in client._watches
        assert client.subscription_status()["session_subscriptions"] == 0
        assert client.unsubscribe(watch.sub_id) is False
        ham.add_node()  # no longer delivered
        assert watch.poll(0.1) is None

    def test_close_unsubscribes(self, served):
        __, ___, client = served
        watch = client.watch()
        watch.close()
        assert watch.sub_id not in client._watches
        assert client.subscription_status()["active"] == 0
        watch.close()  # idempotent

    def test_cancelled_watch_is_not_resubscribed(self, served):
        __, ___, client = served
        watch = client.watch()
        with client._lock:
            client._route_push({"push": "cancel", "sub": watch.sub_id,
                                "reason": "overflow", "dropped": 3,
                                "message": "slow consumer"})
        assert watch.sub_id not in client._watches
        with pytest.raises(SubscriptionOverflowError):
            watch.poll(0)
        client._sock.close()  # the next call reconnects
        assert client.ping()
        assert client.reconnects == 1 and watch.resubscribes == 0
