"""Write-ahead log with group commit and a tolerant recovery scanner.

The paper requires that the HAM "is transaction-oriented and provides for
complete recovery from any aborted transaction" (§2.2).  This WAL is the
durability substrate for that: a transaction's redo records (logical
operation + arguments) are buffered in memory and land here as one
pre-framed blob at commit time (:meth:`WriteAheadLog.append_many` — one
``os.write``, one lock acquisition per transaction), followed by a COMMIT
record that must be covered by an fsync before the transaction is
acknowledged.

The durability point is :meth:`WriteAheadLog.force_up_to` — *group
commit*.  A committer whose commit LSN is already covered by a concurrent
flusher's fsync returns immediately; otherwise it becomes the leader and
flushes on behalf of every waiter (condition-variable leader/follower).
An optional ``group_commit_window`` lets the leader linger briefly so
stragglers pile onto the same fsync.  The fsync itself runs *outside* the
append lock, so concurrent committers keep appending while the disk head
is busy.

Recovery reads the log front-to-back.  A truncated or checksum-corrupt
*tail* — the signature of a crash mid-write — terminates the scan cleanly
rather than raising, because everything after the durability point is by
construction from unacknowledged work.  Where that point sits cannot be
inferred from the log bytes alone: group commit lets several committers
append complete blobs before one shared fsync, so a crash can leave
valid frames *behind* damaged ones with none of them acknowledged.  The
log therefore records its durability point in a tiny sidecar file
(``<path>.mark``): after every fsync the forced watermark is published
there with a checksum, without an fsync of its own.  The persisted mark
is thus a *lower bound* of the acknowledged region — it was written only
after an fsync covering it returned, and losing the mark write merely
under-reports.  A checksum failure **below** the persisted mark is
damage to acknowledged history: silently replaying past it would hand
back a state missing committed work (or, on a replica, one that
diverges from the primary), so the scanner raises
:class:`repro.errors.RecoveryError` instead.  At or above the mark the
damage is a torn tail and the scan stops cleanly.  A missing or
unreadable sidecar degrades to mark 0 — full tolerance, the pre-sidecar
behavior.

For replication the log also exposes its durable byte region directly:
:meth:`WriteAheadLog.durable_end` / :meth:`WriteAheadLog.read_durable`
let a shipper stream exactly the fsync-covered prefix, and
:meth:`WriteAheadLog.append_raw` lets a replica ingest shipped frames
byte-for-byte.  LSNs handed out by the append/force API are *global*:
``base_lsn + file offset``, where ``base_lsn`` anchors a replica's log in
the primary's LSN space so promotion preserves LSN continuity.  Global
LSNs are **monotonic for the life of the graph**:
:meth:`WriteAheadLog.truncate` (checkpoint) advances ``base_lsn`` by the
discarded length instead of restarting the LSN space, so a commit LSN
handed to a session as its read-your-writes watermark stays comparable
against replica replay watermarks across any number of checkpoints.
``epoch`` still increments on every truncation — byte *offsets* into the
file do restart — and a subscriber that observes an epoch change must
resynchronize from a fresh snapshot rather than keep streaming.  The
sidecar persists ``base_lsn`` and ``epoch`` alongside the durability
mark, so reopening a log resumes the same global LSN space rather than
restarting at zero.
"""

from __future__ import annotations

import enum
import os
import struct
import threading
import time as _time
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ChecksumError, RecoveryError, StorageError
from repro.storage.serializer import (
    RECORD_HEADER,
    decode_value,
    encode_value,
    pack_record,
    unpack_record,
)
from repro.testing import faults

__all__ = ["WriteAheadLog", "LogRecord", "LogRecordKind", "WalStats",
           "MARK_SUFFIX"]

#: Sidecar next to the log file holding the persisted durability mark.
MARK_SUFFIX = ".mark"

#: Sidecar format: forced watermark (file offset), global-LSN anchor
#: (``base_lsn``), truncation epoch, then CRC32 of those three fields.
_MARK = struct.Struct("<QQQI")


def _read_mark(path: str | os.PathLike) -> tuple[int, int, int]:
    """Persisted ``(mark, base_lsn, epoch)`` for the log at ``path``.

    A short, missing, or checksum-damaged sidecar reads as ``(0, 0, 0)``:
    the mark only ever *adds* protection, so an unreadable one degrades
    to the tolerate-everything behavior of a log that never had a
    sidecar, anchored at LSN 0.
    """
    try:
        with open(os.fspath(path) + MARK_SUFFIX, "rb") as handle:
            raw = handle.read(_MARK.size)
    except OSError:
        return 0, 0, 0
    if len(raw) != _MARK.size:
        return 0, 0, 0
    value, base, epoch, crc = _MARK.unpack(raw)
    if zlib.crc32(raw[:24]) != crc:
        return 0, 0, 0
    return value, base, epoch

_METRICS = None


def _metrics():
    # Imported lazily: ``repro.tools`` pulls in ``repro.core.ham`` which
    # imports this module, so a top-level import would be circular.
    global _METRICS
    if _METRICS is None:
        from repro.tools import metrics
        _METRICS = metrics.WAL
    return _METRICS


@dataclass(frozen=True)
class WalStats:
    """Snapshot of one log's write/flush counters.

    ``commit_forces`` counts :meth:`WriteAheadLog.force_up_to` calls (one
    per synchronous commit); ``group_fsyncs`` counts the fsyncs those
    calls actually performed, so ``fsyncs_per_commit`` < 1 means group
    commit is amortizing the durability point.  ``fsyncs`` additionally
    includes checkpoint-path :meth:`WriteAheadLog.force` calls.
    """

    appends: int = 0
    records: int = 0
    fsyncs: int = 0
    commit_forces: int = 0
    absorbed_commits: int = 0
    group_fsyncs: int = 0
    bytes_flushed: int = 0

    @property
    def fsyncs_per_commit(self) -> float:
        """Group fsyncs per synchronous commit (< 1 once groups form)."""
        if not self.commit_forces:
            return 0.0
        return self.group_fsyncs / self.commit_forces

    @property
    def mean_group_size(self) -> float:
        """Mean number of commits covered by one group fsync."""
        if not self.group_fsyncs:
            return 0.0
        return self.commit_forces / self.group_fsyncs

    @property
    def mean_bytes_per_flush(self) -> float:
        """Mean bytes made durable per fsync (commit path only)."""
        if not self.group_fsyncs:
            return 0.0
        return self.bytes_flushed / self.group_fsyncs


class LogRecordKind(enum.Enum):
    """Kinds of records a transaction writes to the log."""

    BEGIN = "begin"
    UPDATE = "update"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class LogRecord:
    """One log entry.

    ``payload`` is an encodable value (see serializer); for UPDATE records
    it is ``{"op": operation, "args": {...}}``, the logical redo record
    (see :mod:`repro.txn.recovery`).  ``lsn`` is assigned on append (byte
    offset).
    """

    kind: LogRecordKind
    txn_id: int
    payload: object = None
    lsn: int = -1

    def encode(self) -> bytes:
        return encode_value(
            {"kind": self.kind.value, "txn": self.txn_id,
             "payload": self.payload})

    @classmethod
    def decode(cls, raw: bytes, lsn: int) -> "LogRecord":
        data = decode_value(raw)
        if not isinstance(data, dict):
            raise RecoveryError(f"malformed log record at lsn {lsn}")
        try:
            kind = LogRecordKind(data["kind"])
            txn_id = data["txn"]
            payload = data.get("payload")
        except (KeyError, ValueError) as exc:
            raise RecoveryError(
                f"malformed log record at lsn {lsn}: {exc}") from exc
        return cls(kind=kind, txn_id=txn_id, payload=payload, lsn=lsn)


class WriteAheadLog:
    """Append-only log file.  Thread-safe.

    The log grows until :meth:`truncate` is called (after a checkpoint has
    made earlier records redundant).
    """

    def __init__(self, path: str | os.PathLike,
                 group_commit_window: float = 0.0, base_lsn: int = 0):
        self._path = os.fspath(path)
        #: Global-LSN anchor: every LSN this log hands out is
        #: ``base_lsn + file offset``.  A replica opens its local log
        #: with ``base_lsn`` set to the primary LSN its bootstrap
        #: snapshot covered, so shipped bytes land at identical global
        #: LSNs and promotion keeps the LSN space continuous.
        self.base_lsn = int(base_lsn)
        #: Incremented by :meth:`truncate`; an epoch change tells log
        #: subscribers their cursor offsets are stale (resync needed).
        self.epoch = 0
        self._lock = threading.Lock()
        #: Signalled whenever a group flush finishes (or the leader dies)
        #: so waiting committers can re-check the forced watermark.
        self._cond = threading.Condition(self._lock)
        self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT | os.O_APPEND,
                           0o644)
        self._end = os.fstat(self._fd).st_size
        #: Everything below this offset has been covered by an fsync (or
        #: predates this open); commit-time fault injection may only
        #: corrupt bytes at or above it — acknowledged records are
        #: already on the medium.
        self._forced = self._end
        self._mark_fd = os.open(self._path + MARK_SUFFIX,
                                os.O_RDWR | os.O_CREAT, 0o644)
        mark, saved_base, saved_epoch = _read_mark(self._path)
        #: The durability point :meth:`scan` judges damage against: the
        #: mark persisted by the *previous* incarnation, clamped to the
        #: file (a stale mark beyond a recreated log protects nothing).
        #: Unlike ``_forced`` — which treats everything that predates
        #: this open as flushed, for shipping — this only covers bytes
        #: an fsync *provably* returned for.  Each published mark
        #: advances it.
        self._acked_mark = min(mark, self._end)
        # Resume the global LSN space the previous incarnation published
        # (checkpoints advance ``base_lsn``; restarting at zero would
        # hand out commit LSNs below watermarks sessions already hold).
        # A caller that anchors explicitly — a replica bootstrapping
        # from a snapshot — wins over the sidecar.
        if base_lsn == 0 and (saved_base or saved_epoch):
            self.base_lsn = saved_base
            self.epoch = saved_epoch
        #: True while a leader is inside a group flush.
        self._flushing = False
        #: How long a group-flush leader lingers before capturing the
        #: flush target, letting straggler committers append into the
        #: same fsync.  0.0 (the default) flushes immediately.
        self.group_commit_window = float(group_commit_window)
        self._closed = False
        # Counters behind stats(); guarded by self._lock.
        self._appends = 0
        self._records = 0
        self._fsyncs = 0
        self._commit_forces = 0
        self._absorbed_commits = 0
        self._group_fsyncs = 0
        self._bytes_flushed = 0

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def path(self) -> str:
        """Path of the log file."""
        return self._path

    @property
    def end_lsn(self) -> int:
        """Global LSN one past the last appended record."""
        with self._lock:
            return self.base_lsn + self._end

    def durable_end(self) -> int:
        """Global LSN one past the last fsync-covered byte.

        Everything below it is on the medium; this is the high bound a
        log shipper may stream to subscribers (bytes above it could
        still be lost in a crash, and must never reach a replica ahead
        of the primary's own durability point).
        """
        with self._lock:
            return self.base_lsn + self._forced

    def close(self) -> None:
        """Close the log file descriptor."""
        with self._lock:
            if not self._closed:
                os.close(self._fd)
                os.close(self._mark_fd)
                self._closed = True
            # Waiting committers must not sleep forever on a dead log.
            self._cond.notify_all()

    def _publish_mark_locked(self, value: int, sync: bool = False) -> None:
        """Persist the durability mark; call with the lock held.

        Runs *after* the fsync whose coverage it records, so a persisted
        mark is always a lower bound of the acknowledged region — which
        is why the write itself needs no fsync on the commit path (a
        lost mark write only under-reports).  ``sync`` forces it down
        for the shrink-to-zero case: :meth:`truncate`/:meth:`rebase`
        must never leave an old, larger mark able to resurrect over a
        restarted offset space.  Every publish also records the current
        ``base_lsn`` and ``epoch``, so a reopened log resumes the same
        global LSN space.
        """
        body = struct.pack("<QQQ", value, self.base_lsn, self.epoch)
        os.pwrite(self._mark_fd, body + struct.pack("<I", zlib.crc32(body)),
                  0)
        if sync:
            os.fsync(self._mark_fd)
        self._acked_mark = value

    def stats(self) -> WalStats:
        """Consistent snapshot of this log's write/flush counters."""
        with self._lock:
            return WalStats(
                appends=self._appends,
                records=self._records,
                fsyncs=self._fsyncs,
                commit_forces=self._commit_forces,
                absorbed_commits=self._absorbed_commits,
                group_fsyncs=self._group_fsyncs,
                bytes_flushed=self._bytes_flushed,
            )

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writing

    def append(self, record: LogRecord) -> int:
        """Append a record; returns its global LSN.  Does not force."""
        framed = pack_record(record.encode())
        with self._lock:
            return self.base_lsn + self._write_locked(framed, 1)

    def append_many(self, records: Iterable[LogRecord]) -> int:
        """Append records as one pre-framed blob; one write, one lock.

        This is the commit path: a transaction's buffered redo records
        (BEGIN, UPDATE*, COMMIT) are framed *outside* the log lock,
        concatenated, and land in a single ``os.write``.  Records of
        concurrent transactions therefore never interleave.  Returns the
        global LSN one past the blob — the LSN to hand to
        :meth:`force_up_to` as the commit's durability target.
        """
        framed = [pack_record(record.encode()) for record in records]
        blob = b"".join(framed)
        with self._lock:
            if not blob:
                if self._closed:
                    raise StorageError(f"{self._path}: log is closed")
                return self.base_lsn + self._end
            self._write_locked(blob, len(framed))
            return self.base_lsn + self._end

    def append_raw(self, data: bytes) -> int:
        """Append already-framed bytes verbatim; returns the new end LSN.

        The replica ingest path: shipped commit blobs are exactly the
        primary's framed bytes, so they land here unmodified — replica
        log content is byte-identical to the primary region it mirrors,
        and the same recovery scanner replays both.
        """
        if not data:
            return self.end_lsn
        with self._lock:
            self._write_locked(bytes(data), 0)
            return self.base_lsn + self._end

    def _write_locked(self, framed: bytes, records: int) -> int:
        """One append write under ``self._lock``; returns the start LSN.

        Fires the ``wal.append.*`` fault points exactly as the historic
        record-at-a-time path did, with ``data``/``length`` covering the
        whole blob.
        """
        if self._closed:
            raise StorageError(f"{self._path}: log is closed")
        lsn = self._end
        if faults.INJECTOR is not None:
            faults.fire("wal.append.pre-fsync", path=self._path,
                        offset=lsn, data=framed)
        os.write(self._fd, framed)
        self._end += len(framed)
        self._appends += 1
        self._records += records
        if faults.INJECTOR is not None:
            faults.fire("wal.append.post-fsync", path=self._path,
                        offset=lsn, length=len(framed))
        return lsn

    def force(self) -> None:
        """fsync the log: all appended records are durable on return.

        The checkpoint path — runs entirely under the lock because its
        callers are already quiesced.  Commits go through
        :meth:`force_up_to` instead.
        """
        with self._lock:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            if faults.INJECTOR is not None:
                faults.fire("wal.commit.force", path=self._path,
                            offset=self._forced,
                            length=self._end - self._forced)
            os.fsync(self._fd)
            self._fsyncs += 1
            self._forced = self._end
            self._publish_mark_locked(self._forced)

    def force_up_to(self, lsn: int) -> bool:
        """Block until every byte below ``lsn`` is durable (group commit).

        If a concurrent flusher's fsync already covers ``lsn``, return
        immediately (the commit was *absorbed*).  If a flush that may
        cover it is in flight, wait for it and re-check.  Otherwise
        become the leader: optionally linger ``group_commit_window``
        seconds so stragglers append into the same flush, capture the
        current log end as the target, fsync **outside the lock** (so
        concurrent committers keep appending), and advance the forced
        watermark for every waiter.

        Returns True if this call performed the fsync (leader), False if
        it rode a concurrent flush.  Crash safety: the leader slot is
        released in a ``finally`` and waiters re-check the watermark on
        every wakeup, so an injected fault in the leader cannot strand
        followers — they elect a new leader or die on the same sticky
        fault.
        """
        with self._cond:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            self._commit_forces += 1
            _metrics().increment("commit_forces")
            while True:
                if self.base_lsn + self._forced >= lsn:
                    self._absorbed_commits += 1
                    _metrics().increment("absorbed_commits")
                    return False
                if not self._flushing:
                    break
                self._cond.wait()
                if self._closed:
                    raise StorageError(f"{self._path}: log is closed")
            self._flushing = True
        try:
            if self.group_commit_window > 0.0:
                _time.sleep(self.group_commit_window)
            with self._cond:
                if self._closed:
                    raise StorageError(f"{self._path}: log is closed")
                base = self._forced
                target = self._end
                if faults.INJECTOR is not None:
                    faults.fire("wal.commit.force", path=self._path,
                                offset=base, length=target - base)
            os.fsync(self._fd)
            with self._cond:
                if target > self._forced:
                    self._forced = target
                self._publish_mark_locked(self._forced)
                self._fsyncs += 1
                self._group_fsyncs += 1
                self._bytes_flushed += target - base
            counters = _metrics()
            counters.increment("group_fsyncs")
            counters.increment("bytes_flushed", target - base)
            return True
        finally:
            with self._cond:
                self._flushing = False
                self._cond.notify_all()

    def truncate(self) -> None:
        """Discard all records (used after a checkpoint).

        Advances ``base_lsn`` by the discarded length, so global LSNs
        stay monotonic across checkpoints — a commit LSN handed out
        before the truncation is never reissued, and watermarks built
        from them (session read-your-writes, replica replay) stay
        comparable.  Bumps ``epoch``: byte *offsets* restart at zero, so
        any subscriber streaming this log must resynchronize from a
        fresh snapshot.
        """
        with self._lock:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            # Shrink the mark durably *before* the offset space restarts:
            # a crash in between leaves mark 0 over the old bytes, which
            # only under-protects.
            self._publish_mark_locked(0, sync=True)
            os.ftruncate(self._fd, 0)
            os.lseek(self._fd, 0, os.SEEK_SET)
            self.base_lsn += self._end
            self._end = 0
            self._forced = 0
            self.epoch += 1
            # Persist the advanced anchor + epoch (the first publish
            # above still carried the old ones).
            self._publish_mark_locked(0, sync=True)

    def rebase(self, base_lsn: int, epoch: int = 0) -> None:
        """Empty the log and re-anchor it at global LSN ``base_lsn``.

        A replica resynchronizing from a fresh primary snapshot calls
        this: the old shipped bytes are discarded and byte 0 now
        corresponds to the new bootstrap point, adopting the primary's
        ``epoch`` so subsequent cursors compare directly.
        """
        with self._lock:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            self._publish_mark_locked(0, sync=True)
            os.ftruncate(self._fd, 0)
            os.lseek(self._fd, 0, os.SEEK_SET)
            self._end = 0
            self._forced = 0
            self.base_lsn = int(base_lsn)
            self.epoch = int(epoch)
            # Re-publish with the new anchor + epoch in the sidecar.
            self._publish_mark_locked(0, sync=True)

    def discard_tail(self, lsn: int) -> None:
        """Cut the log back to global LSN ``lsn``, discarding later bytes.

        Promotion uses this: a replica's ingest path appends (and
        fsyncs) shipped bytes *before* parsing them, so at promotion the
        file can end with an incomplete frame.  The caller knows the
        last complete-frame boundary; everything past it is stream
        debris — bytes of frames never replayed, hence never part of any
        acknowledged state — and must not sit under the durability mark
        once local commits start appending after it.  ``lsn`` outside
        ``[base_lsn, end_lsn]`` raises :class:`StorageError`.
        """
        with self._lock:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            offset = lsn - self.base_lsn
            if offset < 0 or offset > self._end:
                raise StorageError(
                    f"{self._path}: cannot cut the tail at lsn {lsn}: "
                    f"outside [{self.base_lsn}, "
                    f"{self.base_lsn + self._end}]")
            if offset == self._end:
                return
            # Shrink the mark durably first: the old, larger mark must
            # never claim fsync coverage of bytes about to be cut.
            self._publish_mark_locked(min(self._acked_mark, offset),
                                      sync=True)
            os.ftruncate(self._fd, offset)
            os.lseek(self._fd, 0, os.SEEK_END)
            self._end = offset
            if self._forced > offset:
                self._forced = offset

    def read_durable(self, from_lsn: int,
                     max_bytes: int = 1 << 20) -> tuple[bytes, int]:
        """Raw framed bytes from ``from_lsn`` up to the durable end.

        The shipper's fetch primitive: returns ``(data, durable_end)`` —
        at most ``max_bytes`` of the fsync-covered region starting at
        global LSN ``from_lsn`` (empty when the cursor already sits at
        the durable end), and :meth:`durable_end` read under the same
        lock, so ``from_lsn + len(data) <= durable_end`` always holds.
        A cursor outside the durable region — behind ``base_lsn`` or
        ahead of the forced watermark — raises :class:`StorageError`;
        the caller must resynchronize from a snapshot.
        """
        with self._lock:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            offset = from_lsn - self.base_lsn
            durable = self.base_lsn + self._forced
            if offset < 0 or offset > self._forced:
                raise StorageError(
                    f"{self._path}: lsn {from_lsn} is outside the durable "
                    f"region [{self.base_lsn}, {durable}]")
            length = min(self._forced - offset, max_bytes)
            if length <= 0:
                return b"", durable
            return os.pread(self._fd, length, offset), durable

    # ------------------------------------------------------------------
    # recovery scan

    def scan(self) -> Iterator[LogRecord]:
        """Yield valid records front-to-back.

        Damage is judged against the persisted durability mark (module
        docstring).  An unparsable frame **at or above** the mark is a
        torn tail — an incomplete or corrupt artifact of an append that
        was never acknowledged (group commit lets complete blobs of
        *other* unacknowledged committers sit behind it; they are
        dropped with it, all-or-nothing) — and the scan stops cleanly.
        The same damage **below** the mark sits in a region an fsync
        provably covered before a commit was acknowledged: replaying
        past it would silently hand back a state missing committed work
        (or, on a replica, one that diverges from the primary), so the
        scan raises :class:`repro.errors.RecoveryError` instead.
        """
        with self._lock:
            if self._closed:
                raise StorageError(f"{self._path}: log is closed")
            os.lseek(self._fd, 0, os.SEEK_SET)
            data = os.read(self._fd, self._end)
            acked = self._acked_mark
        size = len(data)
        offset = 0
        while offset < size:
            damage = None
            if offset + RECORD_HEADER.size > size:
                damage = "torn header"
            else:
                length, _crc = RECORD_HEADER.unpack_from(data, offset)
                if offset + RECORD_HEADER.size + length > size:
                    damage = "torn payload"
            if damage is None:
                try:
                    payload, next_offset = unpack_record(data, offset)
                except ChecksumError:
                    damage = "checksum mismatch"
                except StorageError:
                    damage = "unframeable bytes"
            if damage is not None:
                if offset >= acked:
                    return  # tail past the durability mark: crash debris
                raise RecoveryError(
                    f"{self._path}: {damage} at lsn {offset}, below the "
                    f"durability mark {acked} — corruption of "
                    "acknowledged history, not a torn tail")
            yield LogRecord.decode(payload, lsn=offset)
            offset = next_offset
