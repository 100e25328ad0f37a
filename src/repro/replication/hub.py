"""Primary-side log shipper: the ``replSubscribe`` implementation.

The hub never reads the live store.  It serves *durable log bytes only*
(:meth:`~repro.storage.log.WriteAheadLog.read_durable`), which makes the
shipped stream exactly the input crash recovery would see — a replica
that replays it lands on the same state a post-crash reopen of the
primary would.  Subscribers pull with a long-poll: a fetch from a
caught-up cursor parks on a condition variable that every commit's
acknowledgement gate notifies, so replication latency is one
commit-to-fetch handoff, not a polling interval.

Semi-synchronous mode (``min_sync > 0``) turns the same gate around:
commit acknowledgement blocks until ``min_sync`` subscribers have
*acknowledged replaying* past the commit's LSN, or
:class:`~repro.errors.ReplicaLagError` is raised after ``sync_timeout``.
The commit itself is durable and published either way — the gate only
decides when the client may learn that — which is what lets the crash
matrix treat "acknowledged" as "survives failover".
"""

from __future__ import annotations

import threading
import time as _time

from repro.errors import ReplicaLagError
from repro.testing import faults
from repro.tools.metrics import REPLICATION

__all__ = ["ReplicationHub"]


class ReplicationHub:
    """Tail a primary's write-ahead log for pull-based subscribers."""

    def __init__(self, ham, min_sync: int = 0, sync_timeout: float = 5.0):
        self._ham = ham
        self._log = ham._log
        self._cond = threading.Condition()
        #: Highest LSN each subscriber reported as *replayed* (not
        #: merely received) — the semi-sync gate counts these.
        self._acks: dict[str, int] = {}
        #: Commits to gate on ``min_sync`` replica acknowledgements
        #: before acknowledging to the client; 0 = asynchronous.
        self.min_sync = min_sync
        #: How long a semi-sync commit waits for replicas before
        #: raising :class:`ReplicaLagError`.
        self.sync_timeout = sync_timeout
        ham._txns.commit_gate = self._gate

    # ------------------------------------------------------------------
    # subscriber side

    def fetch(self, from_lsn: int, epoch: int, max_bytes: int = 1 << 20,
              wait: float = 0.0, ack: int | None = None,
              subscriber: str | None = None) -> dict:
        """Serve durable log bytes starting at global LSN ``from_lsn``.

        Blocks up to ``wait`` seconds when the cursor is caught up.
        Answers ``resync=True`` (with the current epoch and base LSN)
        when the subscriber's ``epoch`` is stale — the primary
        checkpointed and truncated, so the requested bytes no longer
        exist — or when the cursor lies outside the log entirely.
        """
        log = self._log
        if subscriber is not None and ack is not None:
            self._record_ack(subscriber, int(ack))
        deadline = _time.monotonic() + max(0.0, wait)
        while True:
            if epoch != log.epoch or from_lsn < log.base_lsn:
                return self._resync()
            # Bytes are only shippable once fsynced; an asynchronous
            # primary (or one inside a group-commit window) may have
            # appended past its durable horizon — force so the stream
            # keeps flowing rather than waiting on the next checkpoint.
            if log.durable_end() < log.end_lsn:
                log.force()
            durable = log.durable_end()
            if from_lsn > durable:
                return self._resync()
            if durable > from_lsn:
                break
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                break
            with self._cond:
                self._cond.wait(min(remaining, 0.05))
        if epoch != log.epoch:
            return self._resync()
        # The bytes and the durable end come from one log lock hold: a
        # subscriber may then judge any frame that would end past
        # ``durable_lsn`` to be corrupt rather than wait for it.
        data, durable = log.read_durable(from_lsn, max_bytes=max_bytes)
        if faults.INJECTOR is not None:
            # ``repl.ship``: damage (or crash) the primary-side shipper
            # just before the bytes leave.  A ``buffer=`` context lets
            # corruption plans deliver torn or bit-flipped frames that
            # the replica must detect via frame checksums.
            shipped = bytearray(data)
            faults.fire("repl.ship", buffer=shipped)
            data = bytes(shipped)
        return {
            "resync": False,
            "data": data,
            "next_lsn": from_lsn + len(data),
            "epoch": log.epoch,
            "durable_lsn": durable,
            "end_lsn": log.end_lsn,
        }

    def _resync(self) -> dict:
        log = self._log
        return {
            "resync": True,
            "data": b"",
            "next_lsn": log.base_lsn,
            "epoch": log.epoch,
            "durable_lsn": log.durable_end(),
            "end_lsn": log.end_lsn,
        }

    def _record_ack(self, subscriber: str, ack: int) -> None:
        with self._cond:
            if ack > self._acks.get(subscriber, -1):
                self._acks[subscriber] = ack
                self._cond.notify_all()
        lag = max(0, self._log.durable_end() - ack)
        REPLICATION.record("lag_bytes", lag)

    def subscriber_acks(self) -> dict[str, int]:
        """Replayed-LSN acknowledgement per known subscriber."""
        with self._cond:
            return dict(self._acks)

    # ------------------------------------------------------------------
    # primary side: the commit acknowledgement gate

    def _gate(self, commit_lsn: int) -> None:
        """Installed as ``TransactionManager.commit_gate``.

        Runs after the commit is durable, published, and unlocked.
        Always wakes parked long-polls (the commit produced new durable
        bytes); in semi-sync mode it additionally withholds the
        caller's acknowledgement until enough replicas replayed past
        ``commit_lsn``.
        """
        with self._cond:
            self._cond.notify_all()
            if self.min_sync <= 0:
                return
            deadline = _time.monotonic() + self.sync_timeout
            while self._synced_count(commit_lsn) < self.min_sync:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    raise ReplicaLagError(
                        f"commit at lsn {commit_lsn} durable and "
                        f"published, but only "
                        f"{self._synced_count(commit_lsn)} of the "
                        f"required {self.min_sync} replicas replayed "
                        f"it within {self.sync_timeout}s")
                self._cond.wait(remaining)

    def _synced_count(self, lsn: int) -> int:
        return sum(1 for ack in self._acks.values() if ack >= lsn)
