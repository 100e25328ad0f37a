"""Crash recovery: replay committed work from the write-ahead log.

Recovery contract (see :mod:`repro.txn.manager`): the durable state of a
graph is *checkpoint snapshot + redo records of committed transactions*.
After a crash, :func:`replay_log` scans the log once, collects UPDATE
records grouped by transaction, notes which transactions reached COMMIT,
and returns the committed updates in log order for the HAM to re-apply to
the snapshot.  Updates of transactions with no COMMIT record (in-flight or
explicitly aborted at crash time) are discarded — their effects never
reached the durable state, which is exactly the paper's "complete recovery
from any aborted transaction".

An UPDATE names an operation and the arguments its apply function
replays.  Most are self-contained; a *delta record* (a ``modify_node``
carrying ``base``/``script``/``hash`` instead of ``contents``) applies
only on top of the version whose hash is ``base``.  Log order guarantees
that version: a node's X-lock is held until its commit publishes, so the
commits touching one node reach the log in the order they built on each
other.  A delta record that finds another base, or yields another hash,
raises :class:`~repro.errors.RecoveryError` during the re-apply — the
log and the snapshot disagree, and no state is guessed.

Replay is idempotent because the HAM rebuilds from the snapshot each time:
running recovery twice from the same snapshot+log yields identical state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.log import LogRecordKind, WriteAheadLog

__all__ = ["RecoveredState", "replay_log"]


@dataclass
class RecoveredState:
    """What a log scan found.

    ``updates`` holds ``(txn_id, operation, args)`` for committed
    transactions, in original log order.  ``loser_txns`` are transactions
    whose updates were discarded (crashed in flight or aborted).
    """

    updates: list[tuple[int, str, dict]] = field(default_factory=list)
    committed_txns: set[int] = field(default_factory=set)
    aborted_txns: set[int] = field(default_factory=set)
    loser_txns: set[int] = field(default_factory=set)
    checkpoint_marker: object = None
    saw_checkpoint: bool = False
    #: Payloads of *every* CHECKPOINT record in the log, in order —
    #: including ones a later checkpoint superseded.  Recovery consults
    #: this to know which snapshots the log can be replayed onto.
    markers: list = field(default_factory=list)
    #: Highest transaction id appearing anywhere in the log.  The
    #: manager resumes numbering above it so a post-crash process cannot
    #: reuse an id still present in the log (which would fuse a loser's
    #: updates with the new transaction's at the next recovery).
    max_txn_id: int = 0


def replay_log(log: WriteAheadLog, anchor: object = None) -> RecoveredState:
    """Scan ``log`` and return the committed updates to re-apply.

    Tolerates a torn tail (the scanner stops at the first corrupt
    record): everything after the last valid record belongs to
    unacknowledged transactions by the force-at-commit rule.

    ``anchor`` selects which CHECKPOINT record resets the replay state:
    by default every one does (the latest wins, matching the
    truncate-on-checkpoint discipline); with an anchor only CHECKPOINT
    records whose payload equals it do, yielding the updates to apply on
    top of *that* snapshot — the fallback path when the newest snapshot
    turns out to be unreadable.
    """
    pending: dict[int, list[tuple[int, str, dict]]] = {}
    state = RecoveredState()
    markers: list = []
    max_txn_id = 0
    for record in log.scan():
        if record.txn_id > max_txn_id:
            max_txn_id = record.txn_id
        if record.kind is LogRecordKind.CHECKPOINT:
            # A checkpoint invalidates everything before it; the manager
            # truncates on checkpoint so this only appears first, but be
            # defensive against logs assembled by hand.
            markers.append(record.payload)
            if anchor is not None and record.payload != anchor:
                continue
            pending.clear()
            state = RecoveredState(
                checkpoint_marker=record.payload, saw_checkpoint=True)
        elif record.kind is LogRecordKind.BEGIN:
            pending.setdefault(record.txn_id, [])
        elif record.kind is LogRecordKind.UPDATE:
            payload = record.payload
            pending.setdefault(record.txn_id, []).append(
                (record.txn_id, payload["op"], payload["args"]))
        elif record.kind is LogRecordKind.COMMIT:
            state.committed_txns.add(record.txn_id)
            state.updates.extend(pending.pop(record.txn_id, []))
        elif record.kind is LogRecordKind.ABORT:
            state.aborted_txns.add(record.txn_id)
            pending.pop(record.txn_id, None)
    state.loser_txns = set(pending) | state.aborted_txns
    state.markers = markers
    state.max_txn_id = max_txn_id
    return state
