"""Replica-side replay: turn a shipped WAL stream into a live HAM.

A :class:`Replica` bootstraps from the primary's ``replSnapshot`` (the
snapshot anchoring byte 0 of the current log epoch), then pulls durable
log bytes with ``replSubscribe`` and feeds them through the *same* redo
machinery crash recovery uses: frames decode to
:class:`~repro.storage.log.LogRecord` s, UPDATE records group per
transaction, and a COMMIT publishes the group through a
:class:`~repro.txn.writeset.WriteSet` overlay via
:meth:`~repro.txn.manager.TransactionManager.apply_replicated` — the
apply-seqlock bracket — so the replica's lock-free MVCC snapshot readers
see exactly the atomic publication discipline the primary's readers do.

Correctness notes:

- The shipped bytes are appended verbatim to the replica's own
  write-ahead log (and fsynced) *before* they are applied, so an
  acknowledged replay position is also durable on the replica, and a
  promoted replica can serve the identical byte stream onward to the
  surviving replicas (its log keeps the primary's global LSNs via
  ``base_lsn``).
- Applying commits in log order reproduces publication order: any two
  conflicting transactions were serialized by the primary's strict-2PL
  locks, which are held across publication, so their log order equals
  their publication order; non-conflicting transactions commute.
- A torn fetch (bytes missing from the tail of a chunk) is harmless:
  the cursor advances only past bytes actually received, so the next
  fetch re-reads the missing tail.  A corrupt frame (checksum or
  decode failure) forces a full resynchronization from a fresh
  snapshot, as does a primary log truncation (epoch change).
- Mid-stream CHECKPOINT records are ignored: the primary quiesces all
  transactions before checkpointing, so the marker's snapshot equals
  the replayed state at that point, and the truncation that follows it
  triggers an epoch resync anyway.
"""

from __future__ import annotations

import os
import threading

from repro.core.graph import GraphDirectory, GraphStore
from repro.core.ham import _APPLY, HAM
from repro.core.types import Protections
from repro.errors import NeptuneError, RecoveryError, StorageError
from repro.query.index import AttributeValueIndex
from repro.query.stats import AttributeStatistics
from repro.storage.cas import collect_snapshot_blobs, inflate_snapshot_blobs
from repro.storage.log import (
    MARK_SUFFIX,
    LogRecord,
    LogRecordKind,
    WriteAheadLog,
)
from repro.storage.serializer import (
    RECORD_HEADER,
    decode_value,
    gc_paused,
    unpack_record,
)
from repro.testing import faults
from repro.tools.metrics import REPLICATION
from repro.txn.writeset import WriteSet

__all__ = ["Replica"]

#: A frame longer than this cannot be legitimate (commit blobs are far
#: smaller); a bit flip in a length prefix would otherwise stall the
#: stream waiting for bytes that never come.
_MAX_FRAME = 1 << 26


class Replica:
    """A live, read-only copy of a primary graph, fed by its WAL stream."""

    def __init__(self, source, directory: str | os.PathLike, *,
                 name: str | None = None,
                 poll_wait: float = 1.0,
                 max_bytes: int = 1 << 20,
                 retry_interval: float = 0.2,
                 use_attribute_index: bool = True,
                 lock_timeout: float = 10.0,
                 start: bool = True):
        #: Anything answering ``repl_snapshot``/``repl_subscribe`` — the
        #: primary :class:`~repro.core.ham.HAM` itself (in-process) or a
        #: :class:`~repro.server.client.RemoteHAM` bound to it.
        self._source = source
        self._directory_path = os.fspath(directory)
        self.name = name or f"replica-{os.getpid()}-{id(self):x}"
        self.poll_wait = poll_wait
        self.max_bytes = max_bytes
        self.retry_interval = retry_interval
        self._use_index = use_attribute_index
        self._lock_timeout = lock_timeout
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Serializes ingest/resync against promotion and status reads.
        self._apply_lock = threading.RLock()
        self._promoted = False
        #: Last exception that killed or stalled the apply loop.
        self.failure: BaseException | None = None
        #: Transfer accounting for the most recent bootstrap/resync:
        #: bytes actually shipped, blobs shipped, blobs satisfied from
        #: payloads this replica already held (manifest reuse).
        self.bootstrap_bytes = 0
        self.bootstrap_blobs_shipped = 0
        self.bootstrap_blobs_reused = 0
        self.ham: HAM
        self._bootstrap()
        if start:
            self.start()

    # ------------------------------------------------------------------
    # bootstrap and resynchronization

    def _harvest_local_blobs(self) -> dict[bytes, bytes]:
        """Payloads a previous incarnation's on-disk snapshot holds.

        These seed the ``have`` manifest sent with ``replSnapshot``: the
        primary then ships only blobs this replica is missing, so a
        re-bootstrap after a brief disconnect transfers a near-empty
        diff instead of the whole content history.
        """
        graph_dir = GraphDirectory(self._directory_path)
        try:
            meta = graph_dir.read_meta()
            snapshot = graph_dir.load_snapshot_record(meta["snapshot"])
            return collect_snapshot_blobs(snapshot)
        except (NeptuneError, OSError, KeyError, TypeError):
            # No previous incarnation (or one too damaged to read):
            # bootstrap with an empty manifest and take the full ship.
            return {}

    def _build_store(self, snap: dict,
                     have: dict[bytes, bytes]) -> GraphStore:
        """Decode a ``replSnapshot`` reply into a live store.

        Manifest-form replies arrive stripped: payload sites are hash
        references, resolved from the shipped ``blobs`` first and the
        locally held ``have`` pool second.  Legacy whole-snapshot
        replies pass straight through.
        """
        with gc_paused():
            snapshot = decode_value(snap["snapshot"])
            shipped = {bytes(digest): bytes(payload)
                       for digest, payload in (snap.get("blobs") or [])}
            transferred = len(snap["snapshot"]) + sum(
                len(digest) + len(payload)
                for digest, payload in shipped.items())
            reused = 0
            if snap.get("manifest") is not None:
                reused = sum(1 for digest in snap["manifest"]
                             if bytes(digest) not in shipped)

                def lookup(digest: bytes) -> bytes | None:
                    payload = shipped.get(digest)
                    if payload is None:
                        payload = have.get(digest)
                    return payload

                inflate_snapshot_blobs(snapshot, lookup)
            store = GraphStore.from_snapshot(snapshot)
        self.bootstrap_bytes = transferred
        self.bootstrap_blobs_shipped = len(shipped)
        self.bootstrap_blobs_reused = reused
        REPLICATION.record("bootstrap_bytes", transferred)
        REPLICATION.record("bootstrap_blobs_shipped", len(shipped))
        REPLICATION.record("bootstrap_blobs_reused", reused)
        return store

    def _bootstrap(self) -> None:
        have = self._harvest_local_blobs()
        snap = self._source.repl_snapshot(have=sorted(have))
        store = self._build_store(snap, have)
        os.makedirs(self._directory_path, exist_ok=True)
        graph_dir = GraphDirectory(self._directory_path)
        # A replica directory is always rebuilt from the primary: stale
        # files from an earlier incarnation are not resumable state.
        for path in (graph_dir.meta_path, graph_dir.snapshots_path,
                     graph_dir.wal_path, graph_dir.wal_path + MARK_SUFFIX):
            if os.path.exists(path):
                os.remove(path)
        snapshot_id = graph_dir.append_snapshot(store)
        graph_dir.write_meta({
            "project": store.project_id,
            "created": store.created_at,
            "protections": snap.get("protections",
                                    Protections.READ_WRITE.value),
            "snapshot": snapshot_id,
        })
        log = WriteAheadLog(graph_dir.wal_path, base_lsn=snap["lsn"])
        log.epoch = int(snap["epoch"])
        ham = HAM(store, graph_dir, log,
                  use_attribute_index=self._use_index,
                  lock_timeout=self._lock_timeout)
        ham._accept_writes = False
        ham._repl_applier = self
        self.ham = ham
        self._reset_cursor(int(snap["lsn"]), int(snap["epoch"]))

    def _reset_cursor(self, lsn: int, epoch: int) -> None:
        self._epoch = epoch
        #: Global LSN of the first byte of ``_buffer``.
        self._parse_lsn = lsn
        self._buffer = bytearray()
        #: Global LSN one past the last byte received (the fetch cursor).
        self._stream_end = lsn
        #: Global LSN one past the last fully processed record.
        self.replayed_lsn = lsn
        #: In-flight transaction groups, exactly as recovery builds them.
        self._pending: dict[int, list[tuple[str, dict]]] = {}
        self._max_txn_id = 0
        self._source_durable = lsn
        self._commits = 0

    def _resync(self) -> None:
        """Rebuild from a fresh snapshot after corruption or truncation."""
        ham = self.ham
        # The live catalog is the richest ``have`` pool: it holds every
        # payload the replayed state retains, so a resync ships only
        # what the primary wrote since.
        have = ham._store.catalog.payloads()
        snap = self._source.repl_snapshot(have=sorted(have))
        store = self._build_store(snap, have)
        graph_dir = ham._directory
        snapshot_id = graph_dir.append_snapshot(store)
        meta = graph_dir.read_meta()
        meta["previous"] = meta.get("snapshot")
        meta["snapshot"] = snapshot_id
        graph_dir.write_meta(meta)
        ham._log.rebase(int(snap["lsn"]), int(snap["epoch"]))

        def swap() -> None:
            ham._store = store
            if ham._index is not None:
                ham._index = AttributeValueIndex()
                ham._stats = AttributeStatistics()
                ham._rebuild_index()

        ham._txns.resync_base(store.clock, swap)
        self._reset_cursor(int(snap["lsn"]), int(snap["epoch"]))

    # ------------------------------------------------------------------
    # the apply loop

    def start(self) -> None:
        """Start the background fetch-and-apply thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"repl-{self.name}", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                self._step()
        except BaseException as exc:  # SimulatedCrash must escape too
            self.failure = exc
            raise

    def _step(self) -> None:
        try:
            reply = self._source.repl_subscribe(
                from_lsn=self._stream_end, epoch=self._epoch,
                max_bytes=self.max_bytes, wait=self.poll_wait,
                ack=self.replayed_lsn, subscriber=self.name)
        except NeptuneError as exc:
            self.failure = exc
            self._stop.wait(self.retry_interval)
            return
        except OSError as exc:
            self.failure = exc
            self._stop.wait(self.retry_interval)
            return
        if self._stop.is_set():
            return
        with self._apply_lock:
            if self._stop.is_set():
                return
            if reply.get("resync"):
                self._resync()
                return
            self._source_durable = int(reply["durable_lsn"])
            data = reply.get("data") or b""
            if data:
                self._ingest(data)
            lag = max(0, self._source_durable - self.replayed_lsn)
            REPLICATION.record("lag_bytes", lag)

    def _ingest(self, data: bytes) -> None:
        chunk = bytearray(data)
        if faults.INJECTOR is not None:
            faults.fire("repl.fetch", buffer=chunk)
        # Durability before apply: an acknowledged replay position must
        # survive a replica crash, and a promoted replica must be able
        # to re-ship these exact bytes.
        self.ham._log.append_raw(bytes(chunk))
        self.ham._log.force()
        self._buffer.extend(chunk)
        try:
            self._drain_frames()
        except (StorageError, RecoveryError):
            # Checksum or decode failure inside a *complete* frame: the
            # stream is damaged beyond the torn-tail tolerance.  Start
            # over from a fresh snapshot.
            self._resync()

    def _drain_frames(self) -> None:
        buf = self._buffer
        size = len(buf)
        offset = 0
        header = RECORD_HEADER.size
        while offset + header <= size:
            length, _crc = RECORD_HEADER.unpack_from(buf, offset)
            if length > _MAX_FRAME:
                raise StorageError(
                    f"replication frame claims {length} bytes "
                    f"(corrupt length prefix)")
            end = offset + header + length
            if end > size:
                break  # incomplete frame: the next fetch completes it
            payload, _next = unpack_record(bytes(buf[offset:end]), 0)
            record = LogRecord.decode(payload,
                                      lsn=self._parse_lsn + offset)
            self._process(record, self._parse_lsn + end)
            offset = end
        if offset:
            del buf[:offset]
            self._parse_lsn += offset
        self._stream_end = self._parse_lsn + len(buf)

    def _process(self, record: LogRecord, end_lsn: int) -> None:
        if record.txn_id > self._max_txn_id:
            self._max_txn_id = record.txn_id
        kind = record.kind
        if kind is LogRecordKind.BEGIN:
            self._pending.setdefault(record.txn_id, [])
        elif kind is LogRecordKind.UPDATE:
            payload = record.payload
            self._pending.setdefault(record.txn_id, []).append(
                (payload["op"], payload["args"]))
        elif kind is LogRecordKind.ABORT:
            self._pending.pop(record.txn_id, None)
        elif kind is LogRecordKind.COMMIT:
            updates = self._pending.pop(record.txn_id, [])
            if updates:
                self._apply_commit(updates)
            self._commits += 1
        # CHECKPOINT: ignored — see the module docstring.
        REPLICATION.record("lag_commits", len(self._pending))
        self.replayed_lsn = end_lsn
        REPLICATION.record_max("replayed_lsn", end_lsn)

    def _apply_commit(self, updates: list[tuple[str, dict]]) -> None:
        if faults.INJECTOR is not None:
            faults.fire("repl.apply")
        ham = self.ham
        writeset = WriteSet(ham._store, ham._index, ham._stats)
        for operation, args in updates:
            _APPLY[operation](writeset, args)
            self._queue_index(writeset, operation, args)
        ham._txns.apply_replicated(writeset)

    @staticmethod
    def _queue_index(writeset: WriteSet, operation: str,
                     args: dict) -> None:
        """Derive the deferred index ops the primary queued structurally.

        The redo records carry attribute *indices*; the index sinks key
        on names, resolved against the write-set overlay so attributes
        interned by the same transaction are visible.
        """
        if operation == "set_node_attribute":
            name = writeset.registry.name_of(args["attribute"])
            writeset.queue_index("set", args["node"], name, args["value"])
        elif operation == "delete_node_attribute":
            name = writeset.registry.name_of(args["attribute"])
            writeset.queue_index("delete", args["node"], name)
        elif operation == "delete_node":
            writeset.queue_index("drop", args["index"])

    # ------------------------------------------------------------------
    # watermarks, promotion, lifecycle

    def status(self) -> dict:
        """The ``replStatus`` answer while this applier is attached."""
        with self._apply_lock:
            log = self.ham._log
            alive = self._thread is not None and self._thread.is_alive()
            return {
                "role": "primary" if self._promoted else "replica",
                "epoch": self._epoch,
                "base_lsn": log.base_lsn,
                "end_lsn": self._stream_end,
                "durable_lsn": log.durable_end(),
                "replayed_lsn": self.replayed_lsn,
                "source_durable_lsn": self._source_durable,
                "lag_bytes": max(0,
                                 self._source_durable - self.replayed_lsn),
                "watermark": self.ham._txns.watermark,
                "commits_applied": self._commits,
                "subscriber": self.name,
                "streaming": alive and not self._stop.is_set(),
            }

    def promote(self) -> None:
        """Turn this replica into a primary (idempotent).

        Stops the stream, then re-opens the graph for writes at exactly
        the state the shipped bytes reached: transaction numbering
        resumes above every id seen in the stream, and the HAM flips
        ``accept_writes``.  The local log keeps the primary's global
        LSNs, so surviving replicas can re-subscribe to this graph with
        their existing cursors.
        """
        with self._apply_lock:
            if self._promoted:
                return
            self._promoted = True
        self.stop()
        with self._apply_lock:
            self.ham._repl_applier = None
            self.ham._txns.resume_after(self._max_txn_id)
            # The shipped stream can end mid-frame: ingest appends (and
            # fsyncs) bytes before parsing them, so the local log may
            # carry a torn frame past the last complete-frame boundary.
            # Cut it before accepting writes — post-promotion commits
            # must append after a clean tail, or recovery and
            # ``repl_snapshot``'s anchor scan would find damage below
            # the durability mark, and re-shipping the log would feed
            # surviving replicas a corrupt stream.
            if self._buffer:
                self.ham._log.discard_tail(self._parse_lsn)
                self._buffer = bytearray()
                self._stream_end = self._parse_lsn
            # Discard in-flight groups whose COMMIT never arrived: they
            # are the unacknowledged tail, exactly what crash recovery
            # would discard.
            self._pending.clear()
        self.ham.repl_promote()
        REPLICATION.increment("promotions")

    def retarget(self, source) -> None:
        """Follow a promotion: stream from a new primary.

        The cursor carries over untouched — the promoted replica's log
        holds the identical global byte stream (same ``base_lsn``, same
        epoch), so the next fetch simply continues; if the new primary
        has since checkpointed, the epoch mismatch resyncs as usual.
        """
        with self._apply_lock:
            self._source = source

    def stop(self) -> None:
        """Stop the fetch thread (the replica keeps serving reads)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=30.0)

    def close(self) -> None:
        """Stop streaming and close the underlying HAM."""
        self.stop()
        self.ham.close()

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
