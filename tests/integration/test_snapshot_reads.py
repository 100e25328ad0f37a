"""MVCC snapshot reads: lock-free read-only transactions.

The isolation contract under test (DESIGN.md "Isolation and
visibility"):

- a read-only transaction pins a commit watermark at ``begin`` and
  acquires **zero locks** for the rest of its life — assertable through
  the lock-manager and snapshot counters, not just a design claim;
- everything it reads resolves at ``time <= watermark`` through the
  versioned records, so its view is frozen: commits landing after
  ``begin`` are invisible, and re-reading always answers identically;
- writers build a private write-set overlay — their own reads see their
  uncommitted effects, nobody else's do — published atomically only at
  commit; abort drops the overlay without a trace.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import HAM, LinkPt
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    NeptuneError,
    StaleVersionError,
    TransactionError,
)
from repro.server.client import RemoteHAM
from repro.server.server import HAMServer
from repro.tools.stats import lock_stats, snapshot_stats

RETRYABLE = (StaleVersionError, DeadlockError, LockTimeoutError)


class TestZeroLocks:
    def test_read_only_transaction_acquires_no_locks(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"body")
        attr = ham.get_attribute_index("kind")
        ham.set_node_attribute_value(node=node, attribute=attr,
                                     value="doc")
        before = lock_stats(ham).acquires
        txn = ham.begin(read_only=True)
        assert ham.open_node(node, txn=txn)[0] == b"body"
        assert ham.get_node_timestamp(node, txn=txn) > 0
        assert ham.get_graph_query(node_predicate="kind = doc",
                                   txn=txn).node_indexes == [node]
        assert ham.linearize_graph(node, txn=txn).node_indexes == [node]
        txn.commit()
        assert lock_stats(ham).acquires == before
        stats = snapshot_stats(ham)
        assert stats["snapshot_txns"] >= 1
        assert stats["lock_bypasses"] >= 3  # every t.lock() was skipped

    def test_reader_is_not_blocked_by_a_writer_holding_exclusive(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"old")
        writer = ham.begin()
        ham.modify_node(writer, node=node,
                        expected_time=ham.get_node_timestamp(node,
                                                             txn=writer),
                        contents=b"new")
        # The writer holds the node's exclusive lock right now; a 2PL
        # reader would block until commit.  A snapshot reader answers
        # immediately — on the same thread, so any blocking would be a
        # self-deadlock and the test would hang instead of passing.
        reader = ham.begin(read_only=True)
        assert ham.open_node(node, txn=reader)[0] == b"old"
        reader.commit()
        writer.commit()
        assert ham.open_node(node)[0] == b"new"


class TestFrozenView:
    def test_pinned_reader_does_not_see_later_commits(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"v1")
        attr = ham.get_attribute_index("status")
        reader = ham.begin(read_only=True)
        stamp_before = ham.get_node_timestamp(node, txn=reader)
        # A writer commits new contents, a new attribute value, and a
        # whole new node after the reader pinned its watermark.
        with ham.begin() as writer:
            ham.modify_node(writer, node=node,
                            expected_time=ham.get_node_timestamp(
                                node, txn=writer),
                            contents=b"v2")
            ham.set_node_attribute_value(writer, node=node,
                                         attribute=attr, value="late")
            newcomer, __ = ham.add_node(writer)
        assert ham.open_node(node)[0] == b"v2"  # latest state moved on
        assert ham.open_node(node, txn=reader)[0] == b"v1"
        assert ham.get_node_timestamp(node, txn=reader) == stamp_before
        assert ham.get_graph_query(node_predicate="status = late",
                                   txn=reader).node_indexes == []
        with pytest.raises(NeptuneError):
            ham.open_node(newcomer, txn=reader)
        reader.commit()

    def test_watermark_held_back_by_inflight_writer(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"old")
        writer = ham.begin()
        ham.modify_node(writer, node=node,
                        expected_time=ham.get_node_timestamp(node,
                                                             txn=writer),
                        contents=b"new")
        # The reader begins while the writer is in flight: its watermark
        # must sit below every timestamp the writer drew, so even after
        # the writer publishes, the snapshot stays pre-writer.
        reader = ham.begin(read_only=True)
        writer.commit()
        assert ham.open_node(node)[0] == b"new"
        assert ham.open_node(node, txn=reader)[0] == b"old"
        reader.commit()

    def test_auto_single_op_reads_see_latest_committed(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"first")
        current = ham.get_node_timestamp(node)
        ham.modify_node(node=node, expected_time=current,
                        contents=b"second")
        # A bare read (no transaction) answers from the live store, not
        # a stale snapshot: a plain openNode must show the newest state.
        assert ham.open_node(node)[0] == b"second"


class TestWriterOverlay:
    def test_writer_sees_own_uncommitted_writes_others_do_not(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"base")
        writer = ham.begin()
        ham.modify_node(writer, node=node,
                        expected_time=ham.get_node_timestamp(node,
                                                             txn=writer),
                        contents=b"mine")
        fresh, __ = ham.add_node(writer)
        assert ham.open_node(node, txn=writer)[0] == b"mine"
        ham.open_node(fresh, txn=writer)  # visible through the overlay
        reader = ham.begin(read_only=True)
        assert ham.open_node(node, txn=reader)[0] == b"base"
        with pytest.raises(NeptuneError):
            ham.open_node(fresh, txn=reader)
        reader.commit()
        writer.commit()
        assert ham.open_node(node)[0] == b"mine"
        ham.open_node(fresh)

    def test_abort_leaves_store_and_index_untouched(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"keep")
        attr = ham.get_attribute_index("kind")
        ham.set_node_attribute_value(node=node, attribute=attr, value="a")
        txn = ham.begin()
        doomed, dtime = ham.add_node(txn)
        ham.modify_node(txn, node=doomed, expected_time=dtime,
                        contents=b"gone")
        ham.set_node_attribute_value(txn, node=node, attribute=attr,
                                     value="b")
        ham.add_link(txn, from_pt=LinkPt(node), to_pt=LinkPt(doomed))
        txn.abort()
        assert ham.open_node(node)[0] == b"keep"
        with pytest.raises(NeptuneError):
            ham.open_node(doomed)
        assert ham.get_graph_query(
            node_predicate="kind = a").node_indexes == [node]
        assert ham.get_graph_query(
            node_predicate="kind = b").node_indexes == []
        assert ham.open_node(node)[1] == []  # no link survived

    def test_read_only_transaction_rejects_mutations(self, ham):
        txn = ham.begin(read_only=True)
        with pytest.raises(TransactionError):
            ham.add_node(txn)
        txn.abort()


class TestSnapshotStress:
    def test_pinned_readers_see_frozen_graphs_under_write_load(self, ham):
        """Satellite stress case: every pinned reader double-reads its
        whole world (contents, timestamps, query hits) while writers
        churn; both sweeps must be identical inside one transaction."""
        attr = ham.get_attribute_index("tag")
        nodes = []
        for __ in range(6):
            node, time = ham.add_node()
            ham.modify_node(node=node, expected_time=time, contents=b"g0")
            ham.set_node_attribute_value(node=node, attribute=attr,
                                         value="hot")
            nodes.append(node)
        stop = threading.Event()
        anomalies: list = []
        reads = {"count": 0}

        def writer(worker_id: int) -> None:
            rng = random.Random(worker_id)
            while not stop.is_set():
                target = rng.choice(nodes)
                try:
                    with ham.begin() as txn:
                        contents, __, ___, version = ham.open_node(
                            target, txn=txn)
                        ham.modify_node(txn, node=target,
                                        expected_time=version,
                                        contents=contents + b".")
                except RETRYABLE:
                    continue

        def sweep(txn):
            contents = [ham.open_node(node, txn=txn)[0] for node in nodes]
            stamps = [ham.get_node_timestamp(node, txn=txn)
                      for node in nodes]
            hits = ham.get_graph_query(node_predicate="tag = hot",
                                       txn=txn).node_indexes
            return contents, stamps, hits

        def reader() -> None:
            while not stop.is_set():
                txn = ham.begin(read_only=True)
                try:
                    first = sweep(txn)
                    second = sweep(txn)
                finally:
                    txn.commit()
                if first != second:
                    anomalies.append((first, second))
                    return
                reads["count"] += 1

        threads = ([threading.Thread(target=writer, args=(seed,))
                    for seed in range(2)]
                   + [threading.Thread(target=reader) for __ in range(2)])
        for thread in threads:
            thread.start()
        import time as clock
        clock.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not anomalies
        assert reads["count"] > 0
        # Churn actually happened under the readers' feet.
        assert ham.open_node(nodes[0])[0].startswith(b"g0")

    def test_historical_reads_stay_stable_under_writers(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"epoch")
        frozen_time = ham.now
        stop = threading.Event()
        anomalies: list = []

        def writer() -> None:
            while not stop.is_set():
                try:
                    current = ham.get_node_timestamp(node)
                    ham.modify_node(node=node, expected_time=current,
                                    contents=b"later")
                except RETRYABLE:
                    continue

        def reader() -> None:
            while not stop.is_set():
                txn = ham.begin(read_only=True)
                try:
                    contents = ham.open_node(node, time=frozen_time,
                                             txn=txn)[0]
                finally:
                    txn.commit()
                if contents != b"epoch":
                    anomalies.append(contents)
                    return

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        import time as clock
        clock.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not anomalies


class TestRemoteSnapshotReads:
    def test_remote_read_only_transaction_is_lock_free(self):
        ham = HAM.ephemeral()
        server = HAMServer(ham).start()
        client = RemoteHAM(*server.address)
        try:
            node, time = client.add_node()
            client.modify_node(node=node, expected_time=time,
                               contents=b"over tcp")
            before = lock_stats(ham).acquires
            with client.begin(read_only=True) as txn:
                assert client.open_node(node, txn=txn)[0] == b"over tcp"
                assert client.get_node_timestamp(node, txn=txn) > 0
            assert lock_stats(ham).acquires == before
            assert snapshot_stats(ham)["lock_bypasses"] >= 1
        finally:
            client.close()
            server.stop()

    def test_remote_pinned_reader_does_not_see_later_commits(self):
        ham = HAM.ephemeral()
        server = HAMServer(ham).start()
        client = RemoteHAM(*server.address)
        try:
            node, time = client.add_node()
            client.modify_node(node=node, expected_time=time,
                               contents=b"v1")
            reader = client.begin(read_only=True)
            current = client.get_node_timestamp(node)
            client.modify_node(node=node, expected_time=current,
                               contents=b"v2")
            assert client.open_node(node)[0] == b"v2"
            assert client.open_node(node, txn=reader)[0] == b"v1"
            reader.commit()
        finally:
            client.close()
            server.stop()
