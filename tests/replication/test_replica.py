"""In-process replica replay: bootstrap, convergence, promotion."""

from __future__ import annotations

import time

import pytest

from repro.core.ham import HAM
from repro.errors import FaultError, NotPrimaryError, StorageError
from repro.query.predicate import CompareOp
from repro.replication.replica import Replica
from repro.storage.serializer import RECORD_HEADER
from repro.testing import faults
from repro.tools.verify import compare_graphs, fingerprint, verify_graph


def _await(replica, target_lsn, timeout=10.0):
    deadline = time.monotonic() + timeout
    while replica.replayed_lsn < target_lsn:
        assert time.monotonic() < deadline, (
            f"replica stalled at {replica.replayed_lsn} < {target_lsn} "
            f"(failure: {replica.failure!r})")
        time.sleep(0.02)


@pytest.fixture
def primary(tmp_path):
    path = tmp_path / "primary"
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    yield ham
    if not ham._closed:
        ham.close()


def _seed_writes(ham, count=5):
    attr = ham.get_attribute_index("color")
    nodes = []
    for n in range(count):
        node, t = ham.add_node()
        ham.modify_node(node=node, expected_time=t,
                        contents=f"node {n} body".encode())
        ham.set_node_attribute_value(node=node, attribute=attr,
                                     value=f"c{n}")
        nodes.append(node)
    return nodes, attr


class TestReplay:
    def test_replica_converges_to_identical_fingerprint(self, primary,
                                                        tmp_path):
        nodes, attr = _seed_writes(primary)
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            _await(rep, primary._log.durable_end())
            assert fingerprint(rep.ham) == fingerprint(primary)
            assert not compare_graphs(primary, rep.ham)
            assert not verify_graph(rep.ham)
            value = rep.ham.get_node_attribute_value(node=nodes[2],
                                                     attribute=attr)
            assert value == "c2"

    def test_replica_streams_new_commits(self, primary, tmp_path):
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            nodes, attr = _seed_writes(primary, count=3)
            _await(rep, primary._log.durable_end())
            status = rep.status()
            assert status["role"] == "replica"
            assert status["lag_bytes"] == 0
            assert status["commits_applied"] >= 3
            assert rep.ham._txns.watermark == primary._txns.watermark

    def test_aborted_transactions_leave_no_trace(self, primary, tmp_path):
        node, t = primary.add_node()
        txn = primary.begin()
        primary.modify_node(txn, node=node, expected_time=t,
                            contents=b"doomed marker")
        txn.abort()
        primary.modify_node(node=node, expected_time=t,
                            contents=b"survivor")
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            _await(rep, primary._log.durable_end())
            assert rep.ham.open_node(node)[0] == b"survivor"
            # Clocks legitimately differ (the abort ticked the
            # primary's), but the structural fingerprint must not.
            assert fingerprint(rep.ham) == fingerprint(primary)

    def test_replica_refuses_writes(self, primary, tmp_path):
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            with pytest.raises(NotPrimaryError):
                rep.ham.add_node()
            with pytest.raises(NotPrimaryError):
                rep.ham.begin()

    def test_replica_snapshot_reads_are_lock_free(self, primary, tmp_path):
        nodes, attr = _seed_writes(primary, count=3)
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            _await(rep, primary._log.durable_end())
            before = rep.ham._txns.snapshot_stats()["snapshot_txns"]
            with rep.ham.begin(read_only=True) as txn:
                value = rep.ham.get_node_attribute_value(
                    node=nodes[0], attribute=attr, txn=txn)
            assert value == "c0"
            after = rep.ham._txns.snapshot_stats()["snapshot_txns"]
            assert after == before + 1

    def test_epoch_change_resyncs(self, primary, tmp_path):
        nodes, attr = _seed_writes(primary, count=3)
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            _await(rep, primary._log.durable_end())
            # Checkpoint truncates the primary's log and bumps the
            # epoch: the replica's cursor goes stale and it must
            # resynchronize from a fresh snapshot.
            primary.checkpoint()
            old_epoch = rep._epoch
            node, t = primary.add_node()
            primary.modify_node(node=node, expected_time=t,
                                contents=b"post-checkpoint")
            # LSNs restart within the new epoch, so wait on the epoch
            # flip first, then on the replay watermark within it.
            deadline = time.monotonic() + 10.0
            while (rep._epoch != primary._log.epoch
                   or rep.replayed_lsn < primary._log.durable_end()):
                assert time.monotonic() < deadline, (
                    f"replica never resynced: epoch {rep._epoch} vs "
                    f"{primary._log.epoch}, failure {rep.failure!r}")
                time.sleep(0.02)
            assert rep._epoch == primary._log.epoch > old_epoch
            assert rep.ham.open_node(node)[0] == b"post-checkpoint"
            assert fingerprint(rep.ham) == fingerprint(primary)

    def test_resync_rebuilds_the_index_estimates(self, primary, tmp_path):
        nodes, attr = _seed_writes(primary, count=6)
        rev = primary.get_attribute_index("rev")
        for n, node in enumerate(nodes):
            primary.set_node_attribute_value(node=node, attribute=rev,
                                             value=str(n * 7))
        # A node that loses its last attribute leaves the universe.
        primary.delete_node_attribute(node=nodes[0], attribute=attr)
        primary.delete_node_attribute(node=nodes[0], attribute=rev)
        with Replica(primary, tmp_path / "replica",
                     poll_wait=0.1) as rep:
            _await(rep, primary._log.durable_end())
            before = rep.ham._index
            primary.checkpoint()
            node, t = primary.add_node()
            primary.set_node_attribute_value(node=node, attribute=rev,
                                             value="abc")
            deadline = time.monotonic() + 10.0
            while (rep._epoch != primary._log.epoch
                   or rep.replayed_lsn < primary._log.durable_end()):
                assert time.monotonic() < deadline, rep.failure
                time.sleep(0.02)
            rebuilt = rep.ham._index
            assert rebuilt is not before
            ours, theirs = primary._index, rebuilt
            assert theirs.tracked_nodes == ours.tracked_nodes == 6
            for name in ("color", "rev", "absent"):
                assert theirs.presence_selectivity(name) == \
                    ours.presence_selectivity(name)
                for value in ("c1", "c5", "7", "21", "abc"):
                    assert theirs.eq_selectivity(name, value) == \
                        ours.eq_selectivity(name, value)
                    assert theirs.ne_selectivity(name, value) == \
                        ours.ne_selectivity(name, value)
                    for op in (CompareOp.LT, CompareOp.LE,
                               CompareOp.GT, CompareOp.GE):
                        assert theirs.range_selectivity(name, op, value) \
                            == ours.range_selectivity(name, op, value)

    def test_ephemeral_primary_cannot_ship(self, tmp_path):
        ham = HAM.ephemeral()
        with pytest.raises(StorageError):
            Replica(ham, tmp_path / "replica")


class _FlakySnapshotSource:
    """The primary, except that ``repl_snapshot`` fails once when armed,
    as a dying primary's closed log makes it fail."""

    def __init__(self, primary):
        self._primary = primary
        self.armed = False
        self.raised = 0

    def repl_snapshot(self, have=None):
        if self.armed:
            self.armed = False
            self.raised += 1
            raise StorageError("wal.log: log is closed")
        return self._primary.repl_snapshot(have=have)

    def repl_subscribe(self, **kwargs):
        return self._primary.repl_subscribe(**kwargs)


class TestApplyThreadSupervision:
    def test_failed_resync_is_retried_until_it_converges(self, primary,
                                                         tmp_path):
        _seed_writes(primary, count=3)
        source = _FlakySnapshotSource(primary)
        with Replica(source, tmp_path / "replica", poll_wait=0.1,
                     retry_interval=0.05) as rep:
            _await(rep, primary._log.durable_end())
            # The checkpoint bumps the epoch, so the replica's next fetch
            # answers ``resync`` and its snapshot call fails once.
            source.armed = True
            primary.checkpoint()
            node, t = primary.add_node()
            primary.modify_node(node=node, expected_time=t,
                                contents=b"after the failed resync")
            deadline = time.monotonic() + 10.0
            while (rep._epoch != primary._log.epoch
                   or rep.replayed_lsn < primary._log.durable_end()):
                assert time.monotonic() < deadline, (
                    f"replica never recovered from the failed resync: "
                    f"failure {rep.failure!r}, status {rep.status()}")
                time.sleep(0.02)
            assert source.raised == 1
            assert fingerprint(rep.ham) == fingerprint(primary)
            status = rep.status()
            assert status["streaming"]
            assert status["failure"] is None
            assert rep.failure is None

    def test_failed_apply_resyncs_and_converges(self, primary, tmp_path):
        # A commit group that fails to publish leaves the chunk half
        # applied: the retry must rebuild from a snapshot, not re-feed
        # the rest of the chunk on top.
        rep = Replica(primary, tmp_path / "replica", start=False,
                      poll_wait=0.0, retry_interval=0.0)
        try:
            _seed_writes(primary, count=4)
            plan = faults.FaultPlan(
                (faults.FaultSpec("repl.apply", "raise", hit=3),))
            with faults.injected(plan) as injector:
                rep._step()
                assert injector.fired
                assert isinstance(rep.failure, FaultError)
                target = primary._log.durable_end()
                for __ in range(20):
                    if rep.replayed_lsn >= target:
                        break
                    rep._step()
            assert rep.failure is None
            assert fingerprint(rep.ham) == fingerprint(primary)
            # The replica's log holds each shipped byte once, so it can
            # re-ship the primary's exact stream after a promotion.
            assert rep.ham._log.durable_end() == target
        finally:
            rep.close()

    def test_frame_ending_past_the_durable_end_resyncs(self, primary,
                                                       tmp_path):
        # A bit flipped in the first frame's length prefix leaves a
        # plausible length, but one that ends past everything the
        # primary made durable: no later fetch can complete the frame,
        # so waiting for it would stall the replica with no failure.
        rep = Replica(primary, tmp_path / "replica", start=False,
                      poll_wait=0.0, retry_interval=0.0)
        subscribe = primary.repl_subscribe
        damaged = []

        def flip_first_length(**kwargs):
            reply = subscribe(**kwargs)
            if reply["data"] and not damaged:
                data = bytearray(reply["data"])
                length, crc = RECORD_HEADER.unpack_from(data, 0)
                RECORD_HEADER.pack_into(data, 0, length | 1 << 20, crc)
                damaged.append(reply["durable_lsn"])
                reply = dict(reply, data=bytes(data))
            return reply

        primary.repl_subscribe = flip_first_length
        try:
            _seed_writes(primary, count=4)
            target = primary._log.durable_end()
            for __ in range(10):
                if rep.replayed_lsn >= target:
                    break
                rep._step()
            assert damaged == [target]
            assert rep.replayed_lsn == target, (
                f"replica stalled at {rep.replayed_lsn} < {target}")
            assert rep.failure is None
            assert fingerprint(rep.ham) == fingerprint(primary)
        finally:
            rep.close()

    def test_status_reports_the_error_being_retried(self, primary,
                                                    tmp_path):
        class Down:
            def repl_subscribe(self, **kwargs):
                raise ConnectionRefusedError("primary is down")

        rep = Replica(primary, tmp_path / "replica", start=False,
                      retry_interval=0.01)
        try:
            rep.retarget(Down())
            rep._step()
            status = rep.status()
            assert "primary is down" in status["failure"]
            rep.retarget(primary)
            rep._step()
            assert rep.status()["failure"] is None
        finally:
            rep.close()


class TestPromotion:
    def test_promoted_replica_accepts_writes(self, primary, tmp_path):
        nodes, attr = _seed_writes(primary, count=3)
        rep = Replica(primary, tmp_path / "replica", poll_wait=0.1)
        try:
            _await(rep, primary._log.durable_end())
            rep.promote()
            rep.promote()  # idempotent
            assert rep.ham.repl_status()["role"] == "primary"
            node, t = rep.ham.add_node()
            rep.ham.modify_node(node=node, expected_time=t,
                                contents=b"written after promotion")
            assert rep.ham.open_node(node)[0] == b"written after promotion"
            assert not verify_graph(rep.ham)
        finally:
            rep.close()

    def test_promoted_replica_serves_as_source(self, primary, tmp_path):
        _seed_writes(primary, count=3)
        rep = Replica(primary, tmp_path / "replica", poll_wait=0.1)
        try:
            _await(rep, primary._log.durable_end())
            rep.promote()
            node, t = rep.ham.add_node()
            rep.ham.modify_node(node=node, expected_time=t,
                                contents=b"second generation")
            # A fresh replica chained off the promoted graph must see
            # both the original history and the post-promotion write.
            with Replica(rep.ham, tmp_path / "grandchild",
                         poll_wait=0.1) as chained:
                _await(chained, rep.ham._log.durable_end())
                assert chained.ham.open_node(node)[0] \
                    == b"second generation"
                assert fingerprint(chained.ham) == fingerprint(rep.ham)
        finally:
            rep.close()

    def test_promote_with_torn_tail_cuts_partial_frame(self, primary,
                                                       tmp_path):
        # Ingest fsyncs shipped bytes before parsing them, and the
        # primary cuts fetch replies at max_bytes regardless of frame
        # boundaries — so a failover can catch the replica holding a
        # torn frame on disk.  Promotion must cut it back to the last
        # complete-frame boundary before accepting writes.
        rep = Replica(primary, tmp_path / "replica",
                      poll_wait=0.1, start=False)
        try:
            start = rep._stream_end
            _seed_writes(primary, count=3)
            data, durable = primary._log.read_durable(start)
            assert len(data) > 3
            with rep._apply_lock:
                # The last frame arrives incomplete.
                rep._ingest(data[:-3], durable)
            assert rep._buffer, "setup failed: no torn frame pending"
            rep.promote()
            assert rep.ham._log.end_lsn == rep._parse_lsn
            # The promoted graph is writable and its log re-scannable:
            # with the torn bytes still under the durability mark, both
            # would die with a RecoveryError.
            node, t = rep.ham.add_node()
            rep.ham.modify_node(node=node, expected_time=t,
                                contents=b"after the cut")
            assert rep.ham.open_node(node)[0] == b"after the cut"
            assert not verify_graph(rep.ham)
            assert rep.ham.repl_snapshot()["lsn"] >= start
        finally:
            rep.close()

    def test_retarget_drops_a_frame_the_new_primary_never_had(
            self, primary, tmp_path):
        # The survivor holds the first bytes of a commit frame that the
        # promoted replica never received, so the new primary's log
        # carries other frames from that boundary on.  Completing the
        # old frame with them would assemble a bogus length and stall
        # the survivor for good (the failover matrix's primary-kill
        # cell did, intermittently).
        node, t = primary.add_node()
        a = Replica(primary, tmp_path / "a", name="a", start=False,
                    poll_wait=0.0)
        b = Replica(primary, tmp_path / "b", name="b", start=False,
                    poll_wait=0.0)
        try:
            caught_up = primary._log.durable_end()
            for rep in (a, b):
                while rep.replayed_lsn < caught_up:
                    rep._step()
            # The dying primary's last frame reached only b, torn after
            # its header; the primary had made all of it durable.
            with b._apply_lock:
                b._ingest(RECORD_HEADER.pack(20_000, 0) + b"torn",
                          caught_up + RECORD_HEADER.size + 20_000)
            assert b._buffer and b.replayed_lsn == caught_up
            primary._log.close()  # the primary dies
            primary._closed = True
            a.promote()
            b.retarget(a.ham)
            a.ham.modify_node(node=node,
                              expected_time=a.ham.get_node_timestamp(node),
                              contents=b"after the failover")
            for __ in range(10):
                if b.replayed_lsn >= a.ham._log.durable_end():
                    break
                b._step()
            assert b.replayed_lsn == a.ham._log.durable_end()
            assert b.failure is None
            assert fingerprint(b.ham) == fingerprint(a.ham)
        finally:
            b.close()
            a.close()

    def test_transaction_ids_resume_above_stream(self, primary, tmp_path):
        _seed_writes(primary, count=3)
        rep = Replica(primary, tmp_path / "replica", poll_wait=0.1)
        try:
            _await(rep, primary._log.durable_end())
            seen = rep._max_txn_id
            rep.promote()
            txn = rep.ham.begin()
            assert txn.txn_id > seen
            txn.abort()
        finally:
            rep.close()
