"""Unit tests for the subscription hub's emission protocol.

The hub's contract (:mod:`repro.subscriptions`) is exercised directly
here, without a server: stage/seal/discard ordering, replay-ring
catch-up and eviction, overflow-cancels-the-whole-feed semantics, and
the counter invariant ``delivered + dropped == fired``.
"""

import threading
import weakref

import pytest

from repro import HAM, EventKind
from repro.errors import (
    SubscriptionError,
    SubscriptionOverflowError,
)
from repro.subscriptions import (
    CANCEL_ERROR,
    CANCEL_OVERFLOW,
    SubscriptionHub,
    wire_event,
)
from repro.core.demons import MUTATION_EVENTS, DemonEvent
from repro.tools.metrics import SUBSCRIPTIONS


def event(kind=EventKind.ADD_NODE, node=1, time=1):
    return DemonEvent(kind=kind, time=time, project=1, node=node,
                      transaction=7)


class Recorder:
    """A subscriber that records deliveries and can be told to fail."""

    def __init__(self, raise_on=None):
        self.frames = []          # (lsn, seq, events)
        self.cancels = []         # (reason, dropped, lsn, message)
        self.raise_on = raise_on  # exception instance to raise, once

    def deliver(self, sub, lsn, seq, events):
        if self.raise_on is not None:
            exc, self.raise_on = self.raise_on, None
            raise exc
        self.frames.append((lsn, seq, events))

    def fail(self, sub, reason, dropped, lsn, message):
        self.cancels.append((reason, dropped, lsn, message))


@pytest.fixture
def hub():
    ham = HAM.ephemeral()
    yield SubscriptionHub(ham.store, replay_limit=4)
    ham.close()


def emit(hub, lsn, events):
    ticket = hub.stage(lsn)
    hub.seal(ticket, events)


class TestStagingProtocol:
    def test_seal_emits_in_stage_order(self, hub):
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail)
        t1 = hub.stage(10)
        t2 = hub.stage(20)
        # The younger commit seals first: its events must wait.
        hub.seal(t2, [event(node=2)])
        assert rec.frames == []
        hub.seal(t1, [event(node=1)])
        assert [(lsn, [e["node"] for e in evs])
                for lsn, __, evs in rec.frames] == [(10, [1]), (20, [2])]

    def test_discard_unblocks_younger_commits(self, hub):
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail)
        t1 = hub.stage(10)
        t2 = hub.stage(20)
        hub.seal(t2, [event(node=2)])
        hub.discard(t1)  # the older commit failed: nothing pushed for it
        assert [lsn for lsn, __, ___ in rec.frames] == [20]

    def test_empty_event_lists_are_not_emitted(self, hub):
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail)
        emit(hub, 10, [])
        assert rec.frames == []
        assert hub.status()["last_emitted_lsn"] == 0

    def test_duplicate_lsns_do_not_collide(self, hub):
        # Ephemeral graphs log to a null WAL: every commit is "LSN 0".
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail)
        t1 = hub.stage(0)
        t2 = hub.stage(0)
        hub.seal(t1, [event(node=1)])
        hub.seal(t2, [event(node=2)])
        assert [[e["node"] for e in evs]
                for __, ___, evs in rec.frames] == [[1], [2]]

    def test_seq_is_dense_per_subscription(self, hub):
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail,
                      events=[EventKind.DELETE_NODE])
        emit(hub, 10, [event(kind=EventKind.ADD_NODE)])      # filtered
        emit(hub, 20, [event(kind=EventKind.DELETE_NODE)])   # delivered
        emit(hub, 30, [event(kind=EventKind.ADD_NODE)])      # filtered
        emit(hub, 40, [event(kind=EventKind.DELETE_NODE)])   # delivered
        assert [(lsn, seq) for lsn, seq, __ in rec.frames] == [
            (20, 1), (40, 2)]


class TestReplay:
    def test_from_lsn_replays_the_gap(self, hub):
        emit(hub, 10, [event(node=1)])
        emit(hub, 20, [event(node=2)])
        emit(hub, 30, [event(node=3)])
        rec = Recorder()
        __, resync = hub.subscribe(rec.deliver, rec.fail, from_lsn=10)
        assert not resync
        assert [(lsn, [e["node"] for e in evs])
                for lsn, __, evs in rec.frames] == [(20, [2]), (30, [3])]

    def test_eviction_forces_resync(self, hub):
        for lsn in range(10, 70, 10):  # 6 commits, ring holds 4
            emit(hub, lsn, [event(node=lsn)])
        rec = Recorder()
        __, resync = hub.subscribe(rec.deliver, rec.fail, from_lsn=10)
        assert resync  # lsn 20 was evicted: the gap cannot be replayed
        assert [lsn for lsn, __, ___ in rec.frames] == [30, 40, 50, 60]

    def test_overflow_during_replay_cancels_before_attach(self, hub):
        emit(hub, 10, [event(node=1)])
        rec = Recorder(raise_on=SubscriptionOverflowError("full"))
        sub_id, __ = hub.subscribe(rec.deliver, rec.fail, from_lsn=0)
        assert rec.cancels and rec.cancels[0][0] == CANCEL_OVERFLOW
        assert hub.subscription(sub_id) is None
        assert hub.status()["active"] == 0


class TestCancellation:
    def test_overflow_drops_the_whole_feed(self, hub):
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail)
        SUBSCRIPTIONS.reset()
        emit(hub, 10, [event(node=1)])
        rec.raise_on = SubscriptionOverflowError("outbuf full")
        emit(hub, 20, [event(node=2), event(node=3)])
        emit(hub, 30, [event(node=4)])  # feed already gone
        assert [lsn for lsn, __, ___ in rec.frames] == [10]
        reason, dropped, lsn, __ = rec.cancels[0]
        assert reason == CANCEL_OVERFLOW and dropped == 2 and lsn == 20
        counters = SUBSCRIPTIONS.snapshot()
        assert counters["delivered"] + counters["dropped"] == \
            counters["fired"]

    def test_delivery_error_cancels_not_crashes(self, hub):
        rec = Recorder()
        hub.subscribe(rec.deliver, rec.fail)
        rec.raise_on = RuntimeError("subscriber bug")
        emit(hub, 10, [event(node=1)])  # must not raise at the committer
        assert rec.cancels and rec.cancels[0][0] == CANCEL_ERROR
        assert "subscriber bug" in rec.cancels[0][3]

    def test_unsubscribe_stops_delivery(self, hub):
        rec = Recorder()
        sub_id, __ = hub.subscribe(rec.deliver, rec.fail)
        assert hub.unsubscribe(sub_id)
        assert not hub.unsubscribe(sub_id)  # idempotent
        emit(hub, 10, [event()])
        assert rec.frames == [] and rec.cancels == []

    def test_one_bad_subscriber_does_not_starve_others(self, hub):
        bad, good = Recorder(), Recorder()
        hub.subscribe(bad.deliver, bad.fail)
        hub.subscribe(good.deliver, good.fail)
        bad.raise_on = SubscriptionOverflowError("stalled")
        emit(hub, 10, [event(node=1)])
        emit(hub, 20, [event(node=2)])
        assert [lsn for lsn, __, ___ in good.frames] == [10, 20]
        assert bad.cancels[0][0] == CANCEL_OVERFLOW


class TestValidation:
    def test_read_event_kinds_are_rejected(self, hub):
        rec = Recorder()
        with pytest.raises(SubscriptionError):
            hub.subscribe(rec.deliver, rec.fail,
                          events=[EventKind.OPEN_NODE])

    def test_mutation_kinds_cover_the_wire_format(self):
        for kind in MUTATION_EVENTS:
            wired = wire_event(event(kind=kind))
            assert wired["kind"] == kind.value


class TestLocalWatchConcurrency:
    def test_blocking_poll_wakes_on_close(self):
        ham = HAM.ephemeral()
        watch = ham.watch()
        result = []
        consumer = threading.Thread(
            target=lambda: result.append(watch.poll(timeout=None)))
        consumer.start()
        watch.close()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert result == [None]
        ham.close()

    def test_concurrent_writers_lose_no_events(self):
        ham = HAM.ephemeral()
        with ham.watch(events=[EventKind.ADD_NODE]) as watch:
            threads = [threading.Thread(
                target=lambda: [ham.add_node() for __ in range(20)])
                for __ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            seen = 0
            while watch.poll(timeout=1.0) is not None:
                seen += 1
            assert seen == 80
        ham.close()


class TestReplayRingRetention:
    def test_committed_write_set_is_released(self):
        # The replay ring keeps each event's transaction alive; the
        # transaction must not keep its write-set (and through it the
        # superseded record and its whole old contents).
        ham = HAM.ephemeral()
        with ham.watch() as watch:
            node, created = ham.add_node()
            txn = ham.begin()
            ham.modify_node(txn, node=node, expected_time=created,
                            contents=b"design\n" * 2000)
            written = weakref.ref(txn.writeset)
            txn.commit()
            assert written() is None
            kinds = []
            while (item := watch.poll(timeout=1.0)) is not None:
                kinds.append(item["kind"])
            assert kinds == ["addNode", "modifyNode"]
        ham.close()
