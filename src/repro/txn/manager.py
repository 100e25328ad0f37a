"""Transactions: buffered logical redo, write-set commit, MVCC snapshots.

Design (in-memory-database recovery plus snapshot isolation for readers,
per DESIGN.md "Isolation and visibility"):

- the primary copy of the hypergraph lives in memory; writers never
  mutate it mid-transaction.  Every mutation applies to the
  transaction's private :class:`~repro.txn.writeset.WriteSet` overlay
  and *buffers* a logical redo record — the operation name and the
  arguments its apply function left behind: assigned ids and times, so
  replay is deterministic, and for a check-in either the whole contents
  or, when smaller, the forward script between the base and result
  content hashes (see :func:`repro.core.ham._apply_modify_node`) —
  nothing touches the log or the shared store until commit;
- ``commit`` hands the WAL the whole buffer (BEGIN, UPDATE*, COMMIT) as
  one blob — one ``os.write``, one log-lock acquisition — reaches the
  durability point via group commit
  (:meth:`repro.storage.log.WriteAheadLog.force_up_to`), and only then
  publishes the write-set into the shared store (a sequence of
  GIL-atomic pointer swaps, serialized across committers);
- ``abort`` drops the write-set and the redo buffer; because neither
  the store nor the log was touched, an aborted transaction leaves
  **zero log bytes** and zero in-memory residue — as do read-only and
  no-op transactions;
- a **read-only transaction pins a commit watermark at begin** and takes
  *no locks at all*: versioned records answer reads at ``time <=
  watermark``, and the publication ordering of commit-apply guarantees
  it never follows a dangling reference.  The watermark is held back
  while any writer that has drawn a timestamp is still in flight, so a
  pinned reader can never observe half of an unretired commit;
- after a crash, recovery loads the last checkpoint snapshot and
  re-applies the redo records of committed transactions only (see
  :mod:`repro.txn.recovery`).

Locking (writers only) is strict two-phase: locks accumulate during the
transaction and release only after the outcome is decided — for a
synchronous commit, after the commit record is durable and applied.
"""

from __future__ import annotations

import enum
import threading

from repro.errors import ReplicaLagError, TransactionError
from repro.storage.log import LogRecord, LogRecordKind, WriteAheadLog
from repro.testing import faults
from repro.txn.locks import LockManager, LockMode, _counters

__all__ = ["TxnStatus", "Transaction", "TransactionManager"]


class TxnStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work against a graph.

    Use as a context manager for commit-on-success/abort-on-exception::

        with manager.begin() as txn:
            ham.add_node(txn, ...)
    """

    def __init__(self, txn_id: int, manager: "TransactionManager",
                 read_only: bool = False):
        self.txn_id = txn_id
        self.status = TxnStatus.ACTIVE
        self.read_only = read_only
        #: Commit watermark pinned at begin (read-only transactions):
        #: every read resolves ``CURRENT`` to this time.
        self.watermark = 0
        #: Commit-apply sequence number at begin (even = no apply in
        #: progress); lets an indexed query validate that no commit has
        #: published since the snapshot was pinned.
        self.snapshot_seq = 0
        #: The private store overlay (writers; attached by the HAM).
        self.writeset = None
        #: True when the HAM opened this transaction itself to cover a
        #: single operation (such transactions read latest-committed
        #: state rather than pinning a snapshot).
        self.auto = False
        #: Global LSN of this transaction's COMMIT blob, set by
        #: ``commit()`` (None for read-only / no-op transactions).
        #: Sessions carry it as their read-your-writes watermark.
        self.commit_lsn: int | None = None
        self._manager = manager
        #: Buffered redo records (BEGIN + UPDATEs), flushed to the WAL
        #: as one blob at commit; discarded wholesale on abort.
        self._redo: list[LogRecord] = []

    # ------------------------------------------------------------------
    # journaling API used by the HAM

    def lock(self, resource: object, mode: LockMode) -> None:
        """Acquire a lock, held until this transaction finishes.

        Read-only transactions skip the lock table entirely — their
        pinned watermark already isolates them — so this is a counted
        no-op for them.
        """
        self._require_active()
        if self.read_only:
            if not self.auto:  # autos are uncounted: they are the
                self._manager.count_lock_bypass()  # bare-read hot path
            return
        self._manager.locks.acquire(self.txn_id, resource, mode)

    def log_update(self, operation: str, args: dict) -> None:
        """Journal one logical mutation applied to the write-set.

        ``operation``/``args`` form the logical redo record: ``args`` as
        the operation's apply function left them, which for a
        ``modify_node`` may carry ``base``/``script``/``hash`` (a delta
        record) in place of ``contents``.  The record is only buffered —
        it reaches the log, prefixed by this transaction's BEGIN, as part
        of the single commit-time blob.  There is no undo side: abort
        simply drops the write-set.
        """
        self._require_active()
        if self.read_only:
            raise TransactionError(
                f"transaction {self.txn_id} is read-only")
        if not self._redo:
            self._redo.append(LogRecord(
                kind=LogRecordKind.BEGIN, txn_id=self.txn_id))
        self._redo.append(LogRecord(
            kind=LogRecordKind.UPDATE,
            txn_id=self.txn_id,
            payload={"op": operation, "args": args},
        ))

    # ------------------------------------------------------------------
    # outcome

    def commit(self) -> int | None:
        """Make every journaled update durable, publish it, release locks.

        Returns the commit's global LSN (None when nothing was logged:
        read-only and no-op transactions).
        """
        self._require_active()
        try:
            self.commit_lsn = self._manager.finish_commit(self)
        except ReplicaLagError:
            # The semi-sync gate timed out *after* the commit became
            # durable and published.  The transaction IS committed —
            # only the acknowledgement is withheld — so record that
            # before re-raising, or a later abort() would run against
            # already-published state.
            self.status = TxnStatus.COMMITTED
            raise
        self.status = TxnStatus.COMMITTED
        return self.commit_lsn

    def abort(self) -> None:
        """Drop the write-set and redo buffer, release locks."""
        self._require_active()
        self._manager.finish_abort(self)
        self.status = TxnStatus.ABORTED

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}")

    # ------------------------------------------------------------------
    # context-manager sugar

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.status is not TxnStatus.ACTIVE:
            return  # caller already finished it explicitly
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class TransactionManager:
    """Creates transactions and owns the log + lock table for one graph."""

    def __init__(self, log: WriteAheadLog, locks: LockManager | None = None,
                 synchronous: bool = True, clock=None):
        self.log = log
        self.locks = locks if locks is not None else LockManager()
        #: When False, commits skip fsync (benchmark knob; recovery then
        #: only survives process crashes, not power loss — same trade-off
        #: as an async-commit database setting).
        self.synchronous = synchronous
        #: The graph's logical clock (watermark source); None for
        #: standalone managers in unit tests, which then pin watermark 0
        #: (== CURRENT, so snapshot reads degrade to latest-state reads).
        self.clock = clock
        self._next_txn_id = 1
        self._lock = threading.Lock()
        self._active: dict[int, Transaction] = {}
        #: Guards the watermark, the apply sequence, and the in-flight
        #: first-write table; held only for pointer-sized updates.
        self._time_lock = threading.Lock()
        #: Serializes write-set publication across committers.
        self._apply_mutex = threading.Lock()
        #: txn_id -> first timestamp the transaction drew.  The
        #: watermark may never reach a time any in-flight writer could
        #: still commit at, so it trails min(first ticks) - 1.
        self._inflight_first_write: dict[int, int] = {}
        self._watermark = clock.now if clock is not None else 0
        #: Seqlock over commit-apply: odd while a write-set is
        #: publishing, bumped to even when it finishes.
        self._apply_seq = 0
        #: Upper bound on the newest time any published write-set may
        #: carry.  The watermark can trail this: a committer may publish
        #: while an older writer is still in flight, leaving applied
        #: effects *above* the watermark.  Snapshot readers use this to
        #: tell whether the live store still equals their pinned time.
        self._applied_high = clock.now if clock is not None else 0
        #: Set when a commit failed after its blob reached the log: the
        #: in-memory state may now diverge from the durable log, so the
        #: manager refuses new transactions (reopen the graph to
        #: recover).
        self._poisoned = False
        #: Optional semi-synchronous replication gate: a callable
        #: ``gate(commit_lsn)`` invoked after a commit is durable *and*
        #: published, but before it is acknowledged to the caller.  A
        #: primary's replication hub installs one that blocks until the
        #: required replicas have replayed past ``commit_lsn`` — which is
        #: what makes "acknowledged" imply "survives failover".  A gate
        #: failure does not poison the manager: the commit itself is
        #: complete; only its acknowledgement is withheld.
        self.commit_gate = None
        #: Optional subscription hub
        #: (:class:`repro.subscriptions.SubscriptionHub`).  When set,
        #: commits that collected change events stage their LSN inside
        #: the log-append bracket and seal it (handing over the events)
        #: only after durability *and* publication — the hub re-derives
        #: LSN order from the staging sequence, because publication
        #: order across committers is not LSN order.
        self.event_feed = None
        #: Global LSN of the newest commit blob this manager wrote
        #: (monotonic) — the graph-wide commit watermark.
        self.last_commit_lsn = 0
        #: Per-thread commit capture.  The server brackets each request
        #: with :meth:`capture_commits` / :meth:`captured_commit_lsn` so
        #: a mutating reply carries only the commit LSN *this* request
        #: produced: stamping the graph-wide watermark would fold other
        #: sessions' commits into a session's read-your-writes
        #: watermark, forcing its replica reads to wait for commits it
        #: never made.
        self._request_commits = threading.local()
        self._read_only_txns = 0
        self._snapshot_txns = 0
        self._lock_bypasses = 0

    def begin(self, read_only: bool = False,
              auto: bool = False) -> Transaction:
        """Start a transaction.  Writes nothing.

        The BEGIN record is folded into the commit-time buffer flush,
        so pure readers, no-op writers, and aborted transactions never
        touch the log at all — reads and empty commits stay fsync-free.
        A read-only transaction additionally pins the current commit
        watermark (and apply sequence) here; that pair is its entire
        isolation mechanism.  ``auto`` transactions (opened by the HAM
        to cover one operation) answer from latest-committed state, so
        they skip the pin and the snapshot accounting — they are the
        per-request hot path of a pipelined read.
        """
        with self._lock:
            if self._poisoned:
                raise TransactionError(
                    "transaction manager is poisoned: a commit failed "
                    "after reaching the log; reopen the graph to recover")
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            txn = Transaction(txn_id, self, read_only=read_only)
            txn.auto = auto
            if read_only:
                self._read_only_txns += 1
                if not auto:
                    self._snapshot_txns += 1
                    _counters().increment("snapshot_txns")
            self._active[txn_id] = txn
        if read_only and not auto:
            with self._time_lock:
                txn.watermark = self._watermark
                txn.snapshot_seq = self._apply_seq
        return txn

    @property
    def active_count(self) -> int:
        """Number of transactions currently in flight."""
        with self._lock:
            return len(self._active)

    @property
    def poisoned(self) -> bool:
        """True after a commit failed beyond its durability point."""
        with self._lock:
            return self._poisoned

    # ------------------------------------------------------------------
    # watermark

    @property
    def watermark(self) -> int:
        """Newest time every committed effect at or before is visible."""
        with self._time_lock:
            return self._watermark

    @property
    def apply_seq(self) -> int:
        """Commit-apply seqlock value (odd = publication in progress)."""
        with self._time_lock:
            return self._apply_seq

    @property
    def applied_high(self) -> int:
        """Upper bound on the newest published time.

        ``applied_high <= watermark`` means every published effect is
        at or below the watermark — the live store *is* the snapshot a
        reader pinned there.  ``applied_high > watermark`` means some
        commit published above the watermark (held back by an older
        in-flight writer), so latest-state reads and pinned reads
        diverge.
        """
        with self._time_lock:
            return self._applied_high

    def assign_time(self, txn: Transaction) -> int:
        """Draw the next logical timestamp for ``txn``'s mutation.

        The first draw registers the transaction as an in-flight writer,
        holding the watermark below its times until it retires — node
        locking lets writers commit out of tick order, so the watermark
        may only advance past times no in-flight writer can still
        publish at.
        """
        if self.clock is None:
            raise TransactionError(
                "transaction manager has no clock to assign times from")
        with self._time_lock:
            time = self.clock.tick()
            self._inflight_first_write.setdefault(txn.txn_id, time)
        return time

    def _retire(self, txn: Transaction) -> None:
        """Drop ``txn`` from the in-flight table; advance the watermark.

        Idempotent.  Called after commit-apply finished (or on abort),
        so every time at or below the new watermark is fully published.
        """
        if txn.read_only:
            return  # never registered as an in-flight writer
        with self._time_lock:
            self._inflight_first_write.pop(txn.txn_id, None)
            if self._inflight_first_write:
                horizon = min(self._inflight_first_write.values()) - 1
            elif self.clock is not None:
                horizon = self.clock.now
            else:
                horizon = self._watermark
            if horizon > self._watermark:
                self._watermark = horizon

    def count_lock_bypass(self) -> None:
        """Tally one lock request skipped by a snapshot-read transaction."""
        with self._lock:
            self._lock_bypasses += 1

    def snapshot_stats(self) -> dict:
        """Snapshot-read observability counters (one plain dict)."""
        with self._lock:
            read_only = self._read_only_txns
            snapshots = self._snapshot_txns
            bypasses = self._lock_bypasses
        with self._time_lock:
            return {
                "watermark": self._watermark,
                "apply_seq": self._apply_seq,
                "inflight_writers": len(self._inflight_first_write),
                "read_only_txns": read_only,
                "snapshot_txns": snapshots,
                "lock_bypasses": bypasses,
            }

    # ------------------------------------------------------------------
    # outcomes

    def finish_commit(self, txn: Transaction) -> int | None:
        """Flush the redo buffer, force, publish the write-set, release.

        The buffered BEGIN + UPDATE records plus a COMMIT record land in
        the log as one blob (:meth:`WriteAheadLog.append_many`); the
        durability point is :meth:`WriteAheadLog.force_up_to` on the
        blob's end — group commit, so a concurrent leader's fsync may
        cover this commit for free.  Only after durability does the
        write-set publish into the shared store (serialized across
        committers, bracketed by the apply seqlock), and only after
        publication do strict-2PL locks release and the watermark
        advance: no other transaction may observe this one's effects
        until they are guaranteed to survive a crash.  Transactions that
        buffered nothing skip the log and the store entirely.

        If anything fails *after* the blob reached the log (a failed
        force, a fault between append and apply), the manager poisons
        itself: the durable log is now ahead of memory, recovery is
        all-or-nothing about the commit, and every later ``begin``
        refuses until the graph is reopened.
        """
        logged = False
        commit_lsn = None
        feed = self.event_feed
        events = (txn.writeset.events
                  if feed is not None and txn.writeset is not None
                  else None)
        stage_ticket = None
        try:
            if not txn.read_only and txn._redo:
                records = txn._redo + [LogRecord(
                    kind=LogRecordKind.COMMIT, txn_id=txn.txn_id)]
                if events:
                    # Stage while still inside the append bracket:
                    # appends hand out LSNs in append order, so holding
                    # the feed's append_lock across both makes staging
                    # order equal LSN order — the invariant the hub's
                    # in-order emission queue rests on.
                    with feed.append_lock:
                        commit_lsn = self.log.append_many(records)
                        stage_ticket = feed.stage(commit_lsn)
                else:
                    commit_lsn = self.log.append_many(records)
                txn._redo = []
                logged = True
                if self.synchronous:
                    self.log.force_up_to(commit_lsn)
                if faults.INJECTOR is not None:
                    faults.fire("txn.apply")
                self._publish(txn)
                # Published: drop the write-set, as an abort does.  The
                # change feed's replay ring keeps this transaction alive
                # through its events' ``txn_handle``, and the write-set
                # would pin every superseded record (old contents whole).
                txn.writeset = None
                if stage_ticket is not None:
                    # Durable and published: release the events.  A
                    # crash beyond this point may push a commit that
                    # recovery *keeps* — never one it discards.
                    ticket, stage_ticket = stage_ticket, None
                    feed.seal(ticket, events)
        except BaseException:
            if stage_ticket is not None:
                feed.discard(stage_ticket)
            if logged:
                with self._lock:
                    self._poisoned = True
            raise
        finally:
            self._retire(txn)
            self.locks.release_all(txn.txn_id)
            with self._lock:
                self._active.pop(txn.txn_id, None)
        # Semi-sync acknowledgement gate: runs outside the poisoning
        # try — the commit is durable and published either way; the
        # gate only decides when the caller may learn that.  Record the
        # LSN on the transaction first, so a gate timeout still leaves
        # the committed transaction knowing where it landed.
        txn.commit_lsn = commit_lsn
        if commit_lsn is not None:
            if commit_lsn > self.last_commit_lsn:
                self.last_commit_lsn = commit_lsn
            captured = getattr(self._request_commits, "lsn", None)
            if captured is None or commit_lsn > captured:
                self._request_commits.lsn = commit_lsn
        gate = self.commit_gate
        if gate is not None and commit_lsn is not None:
            gate(commit_lsn)
        return commit_lsn

    def capture_commits(self) -> None:
        """Begin per-request commit capture on the calling thread.

        A request runs entirely on one worker thread, so the thread
        local cleanly scopes "commits this request produced" — including
        auto-commits and multi-commit batches, which never see an
        explicit ``commit`` call.
        """
        self._request_commits.lsn = None

    def captured_commit_lsn(self) -> int | None:
        """Highest commit LSN this thread produced since capture began
        (None when the request committed nothing)."""
        return getattr(self._request_commits, "lsn", None)

    def _publish(self, txn: Transaction) -> None:
        """Apply ``txn``'s write-set to the shared store (serialized)."""
        writeset = txn.writeset
        if writeset is None:
            return
        with self._apply_mutex:
            with self._time_lock:
                self._apply_seq += 1  # odd: publication in progress
            try:
                writeset.apply()
            finally:
                with self._time_lock:
                    self._apply_seq += 1
                    # Conservative bound: every time this write-set
                    # stamped was drawn from the clock, so nothing
                    # newer than ``clock.now`` can have been published.
                    if self.clock is not None:
                        self._applied_high = max(self._applied_high,
                                                 self.clock.now)

    def apply_replicated(self, writeset) -> None:
        """Publish one replicated commit's write-set (replica side).

        A replica replays shipped commits outside any local transaction:
        no locks, no redo buffering, no in-flight-writer accounting —
        the primary already serialized conflicting commits, and log
        order preserves that serialization.  What *must* be identical to
        the local commit path is publication: the write-set applies
        inside the same apply-mutex/seqlock bracket, so the replica's
        lock-free MVCC readers get exactly the torn-state guarantees
        they get on a primary.  The watermark advances straight to the
        clock (there are no in-flight local writers to hold it back),
        which is the replica's replay watermark made visible to pinned
        readers.
        """
        with self._apply_mutex:
            with self._time_lock:
                self._apply_seq += 1  # odd: publication in progress
            try:
                writeset.apply()
            finally:
                with self._time_lock:
                    self._apply_seq += 1
                    now = (self.clock.now if self.clock is not None
                           else self._watermark)
                    if now > self._applied_high:
                        self._applied_high = now
                    if now > self._watermark:
                        self._watermark = now

    def resync_base(self, clock, swap) -> None:
        """Replace the entire base store under the apply seqlock.

        A replica resynchronizing from a fresh snapshot cannot patch its
        store incrementally — the whole object graph is new.  ``swap``
        runs inside the same bracket :meth:`apply_replicated` uses, so a
        concurrent lock-free reader either validates against the old
        store or retries and sees the new one, never a mixture; the
        manager adopts the new store's ``clock`` and advances the
        watermark to it.
        """
        with self._apply_mutex:
            with self._time_lock:
                self._apply_seq += 1  # odd: publication in progress
            try:
                swap()
            finally:
                self.clock = clock
                with self._time_lock:
                    self._apply_seq += 1
                    now = (clock.now if clock is not None
                           else self._watermark)
                    if now > self._applied_high:
                        self._applied_high = now
                    if now > self._watermark:
                        self._watermark = now

    def finish_abort(self, txn: Transaction) -> None:
        """Discard the write-set and redo buffer, release locks.

        Because neither the store nor the log was touched before
        commit, an aborted transaction leaves zero log bytes and zero
        in-memory residue — there is nothing to undo and no ABORT
        record to write.  (Recovery still understands ABORT records
        from logs written by earlier versions.)
        """
        txn._redo = []
        if txn.writeset is not None:
            # Release the blob-catalog refs the overlay's check-ins
            # interned; the store itself was never touched.
            txn.writeset.discard()
        txn.writeset = None
        self._retire(txn)
        self.locks.release_all(txn.txn_id)
        with self._lock:
            self._active.pop(txn.txn_id, None)

    def resume_after(self, max_txn_id: int) -> None:
        """Never assign a txn id at or below ``max_txn_id``.

        Called after recovery with the highest id seen in the log: the
        log is not truncated on open, so a fresh process restarting ids
        at 1 could otherwise collide with a loser still in the log and
        adopt its updates at the next replay.
        """
        with self._lock:
            if max_txn_id >= self._next_txn_id:
                self._next_txn_id = max_txn_id + 1

    def checkpoint_mark(self, snapshot_marker: object) -> None:
        """Force a CHECKPOINT intent record *without* truncating.

        Written before the meta pointer flips to a new snapshot:
        recovery prefers the newest marker in the log over the meta
        pointer, so once this record is durable the snapshot switch is
        atomic from the recovery scan's point of view — a crash anywhere
        around the meta rewrite lands on one consistent snapshot+suffix
        combination.
        """
        self._require_checkpointable()
        self.log.append(LogRecord(
            kind=LogRecordKind.CHECKPOINT, txn_id=0,
            payload=snapshot_marker))
        self.log.force()

    def checkpoint(self, snapshot_marker: object = None) -> None:
        """Append a CHECKPOINT record and truncate the redo log.

        The caller must have persisted a snapshot first; concurrent
        transactions must be quiesced (the HAM enforces this by taking the
        graph lock exclusively).
        """
        self._require_checkpointable()
        self.log.truncate()
        self.log.append(LogRecord(
            kind=LogRecordKind.CHECKPOINT, txn_id=0,
            payload=snapshot_marker))
        self.log.force()

    def _require_checkpointable(self) -> None:
        with self._lock:
            if self._active:
                raise TransactionError(
                    "cannot checkpoint with transactions in flight")
            if self._poisoned:
                raise TransactionError(
                    "cannot checkpoint a poisoned transaction manager: "
                    "in-memory state may trail the durable log")
