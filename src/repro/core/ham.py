"""The Hypertext Abstract Machine: every operation of the Appendix.

One :class:`HAM` instance is an opened graph — the Appendix's ``Context``
operand becomes ``self``.  All mutating operations run inside a
transaction (begin one with :meth:`HAM.begin` or let the operation open a
single-op transaction itself).  Writers take exclusive locks and stage
every mutation in a private write-set that publishes into the shared
store only at commit, after the logical redo records are durable; a
crashed process therefore recovers to exactly the committed state on
the next ``openGraph``.  Read-only transactions pin a commit watermark
at ``begin`` and read **with no locks at all** — versioned records
resolve ``CURRENT`` to the watermark, so a pinned reader sees a frozen,
internally consistent graph while commits land around it (see DESIGN.md
"Isolation and visibility").

Operation naming: Pythonic ``snake_case`` is primary; every operation
also has the Appendix's original camelCase name as an alias
(``ham.linearizeGraph is ham.linearize_graph``), so code can be read
side-by-side with the paper.

Typical use::

    project_id, _ = HAM.create_graph("/tmp/mygraph")
    ham = HAM.open_graph(project_id, "/tmp/mygraph")
    with ham.begin() as txn:
        node, t = ham.add_node(txn, keep_history=True)
        ham.modify_node(txn, node, t, b"Section 1\\n")
    ham.close()
"""

from __future__ import annotations

import os
import secrets
import threading
from typing import Callable, Iterable, Sequence

from repro.core.demons import (MUTATION_EVENTS, DemonEvent, DemonRegistry,
                               EventKind)
from repro.core.graph import GraphDirectory, GraphStore
from repro.core.operations import MiddlewareChain, install_local_dispatch
from repro.core.link import LinkEnd, LinkRecord
from repro.core.node import NodeRecord
from repro.core.types import (
    CURRENT,
    AttributeIndex,
    LinkIndex,
    LinkPt,
    NodeIndex,
    NodeKind,
    ProjectId,
    Protections,
    Time,
    Version,
)
from repro.errors import (
    GraphNotFoundError,
    NeptuneError,
    NotPrimaryError,
    RecoveryError,
    StorageError,
    TransactionError,
    VersionError,
)
from repro.query.graph_query import QueryResult, get_graph_query
from repro.query.index import AttributeValueIndex
from repro.query.parser import parse_predicate
from repro.query.planner import compile_predicate, plan_query
from repro.query.predicate import Predicate
from repro.query.traversal import TraversalResult, linearize_graph
from repro.storage.deltas import encode_script, script_bytes
from repro.storage.diff import Difference, diff_bytes
from repro.storage.log import WalStats, WriteAheadLog
from repro.testing import faults
from repro.tools.metrics import PLANNER
from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import Transaction, TransactionManager
from repro.txn.recovery import replay_log
from repro.txn.writeset import WriteSet

__all__ = ["HAM"]

_GRAPH_RESOURCE = ("graph",)


class _NullLog:
    """Log stand-in for ephemeral (memory-only) graphs."""

    base_lsn = 0
    epoch = 0

    def append(self, record) -> int:  # noqa: D401 - trivial
        return 0

    def append_many(self, records) -> int:
        return 0

    def append_raw(self, data) -> int:
        return 0

    def force(self) -> None:
        pass

    def force_up_to(self, lsn: int) -> bool:
        return False

    def durable_end(self) -> int:
        return 0

    def read_durable(self, from_lsn: int, max_bytes: int = 0) -> bytes:
        return b""

    def stats(self) -> WalStats:
        return WalStats()

    def truncate(self) -> None:
        pass

    def rebase(self, base_lsn: int, epoch: int = 0) -> None:
        pass

    def scan(self):
        return iter(())

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Logical redo: one apply function per operation.  The live path, crash
# recovery, and replica replay share these, so replay is the same code
# that ran first — bar one rewrite: a check-in whose forward script is
# smaller than its contents is journaled, and replayed, as that script
# (see ``_apply_modify_node``).  Records are addressed through the
# ``*_for_write`` accessors: on a plain GraphStore (recovery) those are
# the records themselves; on a transaction's WriteSet overlay they are
# private copy-on-write clones, so the shared store is never mutated
# before commit.

_APPLY: dict[str, Callable[[GraphStore, dict], object]] = {}


def _applies(name: str):
    def decorator(fn):
        _APPLY[name] = fn
        return fn
    return decorator


@_applies("add_node")
def _apply_add_node(store: GraphStore, args: dict) -> NodeRecord:
    index, time = args["index"], args["time"]
    # On a plain store the catalog is the graph's BlobCatalog; on a
    # write-set overlay it is the transaction's CatalogJournal, so the
    # refs a new node takes are released again if the txn aborts.
    node = NodeRecord(index, NodeKind(args["kind"]), time,
                      catalog=getattr(store, "catalog", None))
    store.nodes[index] = node
    store.next_node_index = max(store.next_node_index, index + 1)
    store.clock.advance_to(time)
    return node


@_applies("delete_node")
def _apply_delete_node(store: GraphStore, args: dict) -> list[LinkIndex]:
    node = store.node_for_write(args["index"])
    time = args["time"]
    node.tombstone(time)
    cascaded = []
    for link_index in sorted(node.out_links | node.in_links):
        if store.link(link_index).alive_at(CURRENT):
            store.link_for_write(link_index).tombstone(time)
            cascaded.append(link_index)
    store.clock.advance_to(time)
    return cascaded


@_applies("add_link")
def _apply_add_link(store: GraphStore, args: dict) -> LinkRecord:
    index, time = args["index"], args["time"]
    from_pt = LinkPt.from_record(args["from"])
    to_pt = LinkPt.from_record(args["to"])
    link = LinkRecord(index, from_pt, to_pt, time)
    store.links[index] = link
    store.next_link_index = max(store.next_link_index, index + 1)
    from_node = store.node_for_write(from_pt.node)
    to_node = store.node_for_write(to_pt.node)
    from_node.out_links.add(index)
    to_node.in_links.add(index)
    from_node.record_minor_event(time, f"link {index} attached (out)")
    if to_node is not from_node:
        to_node.record_minor_event(time, f"link {index} attached (in)")
    store.clock.advance_to(time)
    return link


@_applies("delete_link")
def _apply_delete_link(store: GraphStore, args: dict) -> None:
    link = store.link_for_write(args["index"])
    time = args["time"]
    link.tombstone(time)
    from_node = store.node_for_write(link.from_node)
    to_node = store.node_for_write(link.to_node)
    from_node.record_minor_event(time, f"link {link.index} removed (out)")
    if to_node is not from_node:
        to_node.record_minor_event(time, f"link {link.index} removed (in)")
    store.clock.advance_to(time)


@_applies("modify_node")
def _apply_modify_node(store: GraphStore, args: dict) -> list:
    node = store.node_for_write(args["index"])
    time = args["time"]
    explanation = args.get("explanation", "")
    if "script" in args:
        # A delta record: apply the journaled forward script, checked
        # against the chain's current hash and the journaled result hash.
        node.modify_by_script(args["base"], args["script"], args["hash"],
                              args["expected"], time, explanation)
    else:
        contents = args["contents"]
        delta = node.modify(contents, args["expected"], time, explanation)
        # The redo record (these args, journaled after this returns)
        # carries the forward script instead of the contents whenever the
        # script's tokens are the smaller of the two.
        if delta is not None and script_bytes(delta[1]) < len(contents):
            base, forward, digest = delta
            del args["contents"]
            args["base"] = base
            args["script"] = encode_script(forward)
            args["hash"] = digest
    moved = []
    for link_index, end_value, position in args.get("moves", []):
        link = store.link_for_write(link_index)
        end = LinkEnd(end_value)
        link.move_attachment(end, position, time)
        moved.append((link_index, end))
    store.clock.advance_to(time)
    return moved


@_applies("intern_attribute")
def _apply_intern_attribute(store: GraphStore, args: dict) -> bool:
    name, index, time = args["name"], args["index"], args["time"]
    created = store.registry.lookup(name) is None
    store.registry_for_write().intern_exact(name, index, time)
    store.clock.advance_to(time)
    return created


@_applies("set_node_attribute")
def _apply_set_node_attribute(store: GraphStore, args: dict) -> None:
    node = store.node_for_write(args["node"])
    time = args["time"]
    node.attributes.set(args["attribute"], args["value"], time)
    name = store.registry.name_of(args["attribute"])
    node.record_minor_event(time, f"attribute {name} set")
    store.clock.advance_to(time)


@_applies("delete_node_attribute")
def _apply_delete_node_attribute(store: GraphStore, args: dict) -> None:
    node = store.node_for_write(args["node"])
    time = args["time"]
    node.attributes.delete(args["attribute"], time)
    name = store.registry.name_of(args["attribute"])
    node.record_minor_event(time, f"attribute {name} deleted")
    store.clock.advance_to(time)


@_applies("set_link_attribute")
def _apply_set_link_attribute(store: GraphStore, args: dict) -> None:
    link = store.link_for_write(args["link"])
    time = args["time"]
    link.attributes.set(args["attribute"], args["value"], time)
    store.clock.advance_to(time)


@_applies("delete_link_attribute")
def _apply_delete_link_attribute(store: GraphStore, args: dict) -> None:
    link = store.link_for_write(args["link"])
    time = args["time"]
    link.attributes.delete(args["attribute"], time)
    store.clock.advance_to(time)


@_applies("set_graph_demon")
def _apply_set_graph_demon(store: GraphStore, args: dict) -> None:
    time = args["time"]
    store.graph_demons_for_write().set(EventKind(args["event"]),
                                       args["demon"], time)
    store.clock.advance_to(time)


@_applies("set_node_demon")
def _apply_set_node_demon(store: GraphStore, args: dict) -> None:
    time = args["time"]
    table = store.demon_table_for_write(args["node"])
    table.set(EventKind(args["event"]), args["demon"], time)
    store.clock.advance_to(time)


@_applies("change_node_protection")
def _apply_change_node_protection(store: GraphStore, args: dict) -> None:
    node = store.node_for_write(args["node"])
    node.protections = Protections(args["protections"])
    return None


def _endpoint_list(ends) -> list[tuple[LinkIndex, str]]:
    """``(link, end)`` pairs in a stable, printable order."""
    return sorted((link, end.value) for link, end in ends)


class _TxnScope:
    """Run one operation in a caller's transaction or a fresh auto one.

    Module-level (not a closure inside :meth:`HAM._in_txn`) because this
    sits on every operation's path — defining the class per call would
    cost more than the transaction bookkeeping itself.
    """

    __slots__ = ("_ham", "_txn", "_read_only", "owned", "txn")

    def __init__(self, ham: "HAM", txn, read_only: bool):
        self._ham = ham
        self._txn = txn
        self._read_only = read_only

    def __enter__(self):
        self.owned = self._txn is None
        if self.owned:
            self.txn = self._ham._begin_auto(self._read_only)
        else:
            self.txn = self._txn
        return self.txn

    def __exit__(self, exc_type, exc, tb):
        if self.owned:
            if exc_type is None:
                self.txn.commit()
            else:
                self.txn.abort()


class HAM:
    """An opened hypergraph: the paper's Hypertext Abstract Machine."""

    def __init__(self, store: GraphStore,
                 directory: GraphDirectory | None,
                 log: WriteAheadLog | _NullLog,
                 demons: DemonRegistry | None = None,
                 synchronous: bool = True,
                 use_attribute_index: bool = True,
                 lock_timeout: float = 10.0):
        self._store = store
        self._directory = directory
        self._log = log
        self._txns = TransactionManager(log,
                                        LockManager(timeout=lock_timeout),
                                        synchronous=synchronous,
                                        clock=store.clock)
        self.demons = demons if demons is not None else DemonRegistry()
        #: Interceptors around every Appendix operation (see
        #: :mod:`repro.core.operations`).  Empty by default, which keeps
        #: dispatch on the unwrapped fast path; add e.g. an
        #: :class:`repro.tools.metrics.OperationMetrics` to observe
        #: per-operation counts and latency.
        self.middleware = MiddlewareChain()
        self._closed = False
        self._state_lock = threading.RLock()
        #: False on a replica: mutating ``begin`` raises
        #: :class:`~repro.errors.NotPrimaryError` until promotion.
        self._accept_writes = True
        #: Primary-side log shipper, created lazily on the first
        #: ``repl_subscribe`` (see :mod:`repro.replication.hub`).
        self._repl_hub = None
        #: Replica-side applier, attached by
        #: :class:`repro.replication.replica.Replica`.
        self._repl_applier = None
        #: Change-feed fan-out point, created lazily on the first
        #: ``subscribe``/``watch`` (see :mod:`repro.subscriptions`).
        #: While None, the commit path collects nothing — subscriptions
        #: cost zero until someone actually watches.
        self._subscriptions = None
        #: The inverted index, which is also the planner's statistics.
        self._index: AttributeValueIndex | None = (
            AttributeValueIndex() if use_attribute_index else None)
        if self._index is not None:
            self._rebuild_index()

    # ==================================================================
    # Graph operations (Appendix A.1)

    @classmethod
    def create_graph(cls, directory: str | os.PathLike,
                     protections: Protections = Protections.READ_WRITE,
                     ) -> tuple[ProjectId, Time]:
        """``createGraph``: make a new empty graph in ``directory``.

        Returns the new graph's ``ProjectId`` (needed to open or destroy
        it later) and its creation ``Time``.
        """
        project_id = secrets.randbits(63)
        created_at = 1
        GraphDirectory(directory).initialize(
            project_id, protections.value, created_at)
        return project_id, created_at

    @classmethod
    def destroy_graph(cls, project_id: ProjectId,
                      directory: str | os.PathLike) -> None:
        """``destroyGraph``: remove the graph's files.

        ``project_id`` must match the value ``createGraph`` returned — the
        Appendix's safeguard against destroying the wrong directory.
        """
        GraphDirectory(directory).destroy(project_id)

    @classmethod
    def open_graph(cls, project_id: ProjectId,
                   directory: str | os.PathLike,
                   machine: str | None = None,
                   demons: DemonRegistry | None = None,
                   synchronous: bool = True,
                   use_attribute_index: bool = True,
                   lock_timeout: float = 10.0,
                   group_commit_window: float = 0.0,
                   cache_bytes: int | None = None) -> "HAM":
        """``openGraph``: open an existing graph, recovering if needed.

        Loads the last durable checkpoint snapshot, replays the
        committed suffix of the write-ahead log, and fires the graph's
        OPEN_GRAPH demon.  When the newest snapshot is unreadable
        (crash or corruption mid-checkpoint), recovery falls back to an
        earlier snapshot the log can still be replayed onto (see
        :meth:`_recover`).  ``machine`` is accepted for Appendix
        fidelity; remote access goes through :mod:`repro.server`.

        ``group_commit_window`` (seconds) lets a commit's group-flush
        leader linger before fsyncing so concurrent committers pile onto
        the same flush; 0.0 flushes immediately (see
        :meth:`repro.storage.log.WriteAheadLog.force_up_to`).

        ``cache_bytes`` resizes the *process-wide* materialization
        cache (:mod:`repro.storage.blockcache`) — it is shared by every
        open graph and session, so the last configuration wins; None
        leaves the current size alone.
        """
        if cache_bytes is not None:
            from repro.storage import blockcache
            blockcache.configure(cache_bytes)
        graph_dir = GraphDirectory(directory)
        meta = graph_dir.read_meta()
        if meta["project"] != project_id:
            raise GraphNotFoundError(
                f"{directory}: ProjectId does not match "
                f"(given {project_id}, stored {meta['project']})")
        log = WriteAheadLog(graph_dir.wal_path,
                            group_commit_window=group_commit_window)
        try:
            store, recovered, snapshot_id = cls._recover(graph_dir, meta,
                                                         log)
        except BaseException:
            log.close()
            raise
        if meta.get("snapshot") != snapshot_id:
            # A crash interrupted a checkpoint between forcing its log
            # marker and rewriting the meta pointer; repair the pointer
            # (best-effort — recovery re-derives it anyway).
            meta["previous"] = meta.get("snapshot")
            meta["snapshot"] = snapshot_id
            try:
                graph_dir.write_meta(meta)
            except OSError:
                pass
        ham = cls(store, graph_dir, log, demons=demons,
                  synchronous=synchronous,
                  use_attribute_index=use_attribute_index,
                  lock_timeout=lock_timeout)
        ham._txns.resume_after(recovered.max_txn_id)
        ham._fire_demons(EventKind.OPEN_GRAPH, time=store.clock.now)
        return ham

    @staticmethod
    def _recover(graph_dir: GraphDirectory, meta: dict,
                 log: WriteAheadLog):
        """Pick a loadable snapshot + replayable log suffix.

        Candidates, best first: the newest CHECKPOINT marker in the log
        (it was forced before the meta pointer moved), then the meta
        pointer, then the previous meta pointer.  A fallback candidate
        is only usable when the log carries its CHECKPOINT marker (so an
        anchored replay yields the right suffix) or carries no
        checkpoint at all.
        """
        recovered = replay_log(log)
        candidates = []
        if recovered.saw_checkpoint and recovered.checkpoint_marker is not None:
            candidates.append(recovered.checkpoint_marker)
        for key in ("snapshot", "previous"):
            snapshot_id = meta.get(key)
            if snapshot_id is not None and snapshot_id not in candidates:
                candidates.append(snapshot_id)
        failures = []
        for snapshot_id in candidates:
            if recovered.saw_checkpoint \
                    and snapshot_id == recovered.checkpoint_marker:
                state = recovered
            elif snapshot_id in recovered.markers:
                state = replay_log(log, anchor=snapshot_id)
            elif not recovered.markers:
                state = recovered
            else:
                failures.append(
                    f"{snapshot_id}: log does not cover this snapshot")
                continue
            try:
                store = graph_dir.load_snapshot(snapshot_id)
                for __, operation, op_args in state.updates:
                    _APPLY[operation](store, op_args)
            except NeptuneError as exc:
                failures.append(f"{snapshot_id}: {exc}")
                continue
            return store, state, snapshot_id
        raise RecoveryError(
            f"{graph_dir.directory}: no recoverable snapshot "
            f"(tried {'; '.join(failures) or 'none'})")

    @classmethod
    def ephemeral(cls, demons: DemonRegistry | None = None,
                  use_attribute_index: bool = True,
                  lock_timeout: float = 10.0,
                  cache_bytes: int | None = None) -> "HAM":
        """A memory-only graph (extension; handy for tests and browsers)."""
        if cache_bytes is not None:
            from repro.storage import blockcache
            blockcache.configure(cache_bytes)
        store = GraphStore(project_id=secrets.randbits(63), created_at=1)
        return cls(store, directory=None, log=_NullLog(), demons=demons,
                   use_attribute_index=use_attribute_index,
                   lock_timeout=lock_timeout)

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def project_id(self) -> ProjectId:
        """The graph's unique identification from ``createGraph``."""
        return self._store.project_id

    @property
    def now(self) -> Time:
        """The graph's current logical time."""
        return self._store.clock.now

    @property
    def store(self) -> GraphStore:
        """The underlying object store (read-only use by browsers/query)."""
        return self._store

    def close(self) -> None:
        """Checkpoint (when persistent) and release the log."""
        with self._state_lock:
            if self._closed:
                return
            if (self._directory is not None
                    and self._txns.active_count == 0
                    and not self._txns.poisoned):
                self.checkpoint()
            self._log.close()
            self._closed = True

    def __enter__(self) -> "HAM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def checkpoint(self) -> None:
        """Persist a full snapshot and truncate the redo log.

        Crash-safe ordering: (1) append the snapshot, (2) force a
        CHECKPOINT intent marker into the *old* log, (3) flip the meta
        pointer, (4) truncate the log and write the fresh marker.  A
        crash in any window leaves either the old snapshot with a
        replayable log or the new snapshot with an empty suffix —
        recovery (see :meth:`_recover`) lands on a consistent state
        either way, and falls back to ``meta["previous"]`` if the new
        snapshot record itself was torn.
        """
        if self._directory is None:
            return
        with self._state_lock:
            # Admit before encoding: a refused checkpoint must leave no
            # orphan snapshot record and no replaced kept rows behind.
            self._txns.require_checkpointable()
            snapshot_id = self._directory.append_snapshot(
                self._store, keep_rows=True)
            self._txns.checkpoint_mark(snapshot_id)
            meta = self._directory.read_meta()
            meta["previous"] = meta.get("snapshot")
            meta["snapshot"] = snapshot_id
            self._directory.write_meta(meta)
            self._txns.checkpoint(snapshot_marker=snapshot_id)

    # ------------------------------------------------------------------
    # replication (extension operations; see :mod:`repro.replication`)

    @property
    def accepts_writes(self) -> bool:
        """False while this graph is a replica (mutations are refused)."""
        return self._accept_writes

    def _replication_hub(self):
        """The primary-side log shipper, created on first use."""
        with self._state_lock:
            if self._repl_hub is None:
                from repro.replication.hub import ReplicationHub
                self._repl_hub = ReplicationHub(self)
            return self._repl_hub

    def repl_status(self) -> dict:
        """``replStatus``: role, LSN watermarks, lag, and log epoch."""
        applier = self._repl_applier
        if applier is not None:
            return applier.status()
        log = self._log
        durable = log.durable_end()
        status = {
            "role": "primary" if self._accept_writes else "replica",
            "epoch": log.epoch,
            "base_lsn": log.base_lsn,
            "end_lsn": self.end_lsn,
            "durable_lsn": durable,
            # A primary trivially "replays" its own log as it commits.
            "replayed_lsn": durable,
            "lag_bytes": 0,
            "watermark": self._txns.watermark,
        }
        hub = self._repl_hub
        if hub is not None:
            status["subscribers"] = hub.subscriber_acks()
        return status

    # ------------------------------------------------------------------
    # change feeds (extension operations; see :mod:`repro.subscriptions`)

    def subscription_hub(self):
        """The change-feed fan-out point, created on first use.

        Creation installs the hub as the transaction manager's
        ``event_feed``, which switches the commit path into
        collect-and-stage mode; until then subscriptions cost nothing.
        """
        with self._state_lock:
            if self._subscriptions is None:
                from repro.subscriptions import SubscriptionHub
                hub = SubscriptionHub(self._store)
                # Publish the feed only after the hub is fully built:
                # committers read ``event_feed`` without the state lock.
                self._txns.event_feed = hub
                self._subscriptions = hub
            return self._subscriptions

    def compile_watch_predicate(self, predicate):
        """Compile a watch predicate against this graph's registry."""
        if predicate is None:
            return None
        return compile_predicate(parse_predicate(predicate),
                                 self._store.registry, self._index)

    def watch(self, events=None, predicate=None, max_events: int = 1024):
        """Open an in-process change feed (a ``LocalWatch``).

        ``events`` limits the feed to specific :class:`EventKind`
        values (None = every mutation kind); ``predicate`` is a query
        predicate evaluated against the event's node at the event's
        time.  Events arrive only after their commit is durable and
        published, stamped with the commit LSN — the same stream a
        remote subscriber sees, minus the network.
        """
        from repro.subscriptions import LocalWatch
        return LocalWatch(self.subscription_hub(), events=events,
                          predicate=self.compile_watch_predicate(predicate),
                          max_events=max_events)

    def subscription_status(self) -> dict:
        """``subscriptionStatus``: hub queue depths and counters."""
        hub = self._subscriptions
        if hub is None:
            return {"active": 0, "staged": 0, "last_emitted_lsn": 0,
                    "replay_depth": 0, "replay_floor": 0}
        return hub.status()

    @property
    def end_lsn(self) -> int:
        """Global LSN one past this graph's last appended log byte."""
        return (self._log.end_lsn if hasattr(self._log, "end_lsn")
                else 0)

    def repl_subscribe(self, from_lsn: int, epoch: int,
                       max_bytes: int = 1 << 20, wait: float = 0.0,
                       ack: int | None = None,
                       subscriber: str | None = None) -> dict:
        """``replSubscribe``: fetch durable log bytes for a replica.

        Long-polls up to ``wait`` seconds when the subscriber is caught
        up.  ``ack`` reports the subscriber's replayed LSN back to the
        primary (the semi-sync gate and the lag counters feed on it).
        An ``epoch`` mismatch, or a cursor outside the durable region,
        answers ``resync=True``: the subscriber must bootstrap again
        from :meth:`repl_snapshot`.
        """
        return self._replication_hub().fetch(
            from_lsn, epoch, max_bytes=max_bytes, wait=wait, ack=ack,
            subscriber=subscriber)

    def repl_snapshot(self, have: list | None = None) -> dict:
        """``replSnapshot``: the bootstrap payload for a new replica.

        Serves the snapshot that anchors byte 0 of the current log
        epoch, so a subscriber that loads it and replays the shipped
        stream from ``lsn`` reconstructs exactly the primary's durable
        state — the same contract crash recovery relies on.

        ``have`` (a list of content digests the subscriber already
        holds — from its previous on-disk snapshot, or its live blob
        catalog on a resync) switches the reply to manifest form: the
        snapshot ships *stripped* (payload sites replaced by hash
        references; see :mod:`repro.storage.cas`), ``manifest`` lists
        every digest the snapshot needs, and ``blobs`` carries only
        ``[digest, payload]`` pairs missing from ``have``.  A replica
        that kept its catalog re-bootstraps on a near-empty diff;
        ``have=None`` keeps the original whole-snapshot reply.
        """
        if self._directory is None:
            raise StorageError(
                "ephemeral graphs cannot be replicated (no durable log)")
        if faults.INJECTOR is not None:
            faults.fire("repl.snapshot")
        from repro.storage.cas import strip_snapshot_blobs
        from repro.storage.serializer import encode_value, gc_paused
        with self._state_lock, gc_paused():  # excludes a checkpoint
            log = self._log
            anchor = self._epoch_anchor()
            store = self._directory.load_snapshot(anchor)
            meta = self._directory.read_meta()
            reply = {
                "lsn": log.base_lsn,
                "epoch": log.epoch,
                "project": self._store.project_id,
                "protections": meta.get("protections"),
            }
            snapshot = store.to_snapshot()
            if have is None:
                reply["snapshot"] = encode_value(snapshot)
                return reply
            blobs = strip_snapshot_blobs(snapshot)
            held = {bytes(digest) for digest in have}
            reply["snapshot"] = encode_value(snapshot)
            reply["manifest"] = sorted(blobs)
            reply["blobs"] = [[digest, payload]
                              for digest, payload in sorted(blobs.items())
                              if digest not in held]
            return reply

    def _epoch_anchor(self):
        """Snapshot id anchoring byte 0 of the current log.

        A truncated log opens with the CHECKPOINT record naming its
        snapshot.  Without one, no checkpoint has truncated this log:
        the meta pointer still names the anchor — unless the log carries
        a checkpoint *intent* marker (crash between mark and truncate),
        in which case recovery may have repaired the meta pointer
        forward and ``previous`` names the byte-0 anchor.
        """
        from repro.storage.log import LogRecordKind
        saw_intent = False
        for record in self._log.scan():
            if record.kind is LogRecordKind.CHECKPOINT:
                if record.lsn == 0:
                    return record.payload
                saw_intent = True
        meta = self._directory.read_meta()
        if saw_intent and meta.get("previous") is not None:
            return meta["previous"]
        return meta.get("snapshot")

    def repl_promote(self) -> dict:
        """``replPromote``: make this graph accept writes.

        Idempotent: promoting a primary is a no-op.  On a replica the
        attached applier drains what it has already fetched, detaches,
        and the graph starts accepting mutations at the LSN its replay
        reached — the shipped byte stream guarantees that state equals
        the dead primary's acknowledged history.
        """
        applier = self._repl_applier
        if applier is not None:
            applier.promote()
        with self._state_lock:
            self._accept_writes = True
            if self._index is None:
                # Replicas maintain their index from the shipped stream;
                # a graph promoted without one rebuilds it now so the
                # indexed query path works for its new writers.
                self._index = AttributeValueIndex()
                self._rebuild_index()
        return self.repl_status()

    # ------------------------------------------------------------------
    # transactions

    def begin(self, read_only: bool = False) -> Transaction:
        """Start a transaction (commit/abort via the Transaction).

        Writers get a private :class:`~repro.txn.writeset.WriteSet`
        overlay; read-only transactions pin the commit watermark instead
        and take no locks for the rest of their life.
        """
        if self._closed:
            raise TransactionError("HAM is closed")
        if not read_only and not self._accept_writes:
            raise NotPrimaryError(
                "this graph is a replica: it applies shipped log records "
                "only; route mutations to the primary")
        txn = self._txns.begin(read_only=read_only)
        if not read_only:
            txn.writeset = WriteSet(self._store, self._index)
        return txn

    transaction = begin  # alias: ``with ham.transaction() as txn:``

    def _begin_auto(self, read_only: bool) -> Transaction:
        """A single-operation transaction (latest-committed reads)."""
        if self._closed:
            raise TransactionError("HAM is closed")
        if not read_only and not self._accept_writes:
            raise NotPrimaryError(
                "this graph is a replica: it applies shipped log records "
                "only; route mutations to the primary")
        txn = self._txns.begin(read_only=read_only, auto=True)
        if not read_only:
            txn.writeset = WriteSet(self._store, self._index)
        return txn

    def _in_txn(self, txn: Transaction | None, read_only: bool = False):
        """Run an operation in ``txn``, or a fresh single-op transaction.

        Returns a context manager yielding the transaction; when it had
        to create one, it commits on success / aborts on error.  A
        transaction opened here is marked ``auto``: single-op reads
        answer from latest-committed state (still lock-free) rather
        than pinning a snapshot — a plain ``open_node()`` call should
        see the newest contents, and on file nodes a pinned historical
        read could not answer at all.
        """
        return _TxnScope(self, txn, read_only)

    # ------------------------------------------------------------------
    # journaled mutation helper

    def _mutate(self, txn: Transaction, operation: str, args: dict):
        """Apply + journal one logical operation inside ``txn``.

        The apply function runs against the transaction's write-set
        overlay: the shared store is untouched until commit, and abort
        is simply dropping the overlay.
        """
        if txn.writeset is None:  # externally-created transaction
            txn.writeset = WriteSet(self._store, self._index)
        result = _APPLY[operation](txn.writeset, args)
        txn.log_update(operation, args)
        return result

    def _store_for(self, txn: Transaction | None):
        """The store a read inside ``txn`` should answer from.

        A writer reads through its write-set overlay (its own
        uncommitted effects are visible to it); everything else reads
        the shared store.
        """
        if txn is not None and txn.writeset is not None:
            return txn.writeset
        return self._store

    def _snapshot_time(self, txn: Transaction | None) -> Time | None:
        """Pinned watermark for an explicit read-only transaction.

        Returns None when the read should see latest-committed state:
        writer transactions (they read their own overlay) and auto
        single-op transactions.
        """
        if txn is not None and txn.read_only and not txn.auto:
            return txn.watermark
        return None

    def _fire_demons(self, kind: EventKind, time: Time,
                     node: NodeIndex | None = None,
                     link: LinkIndex | None = None,
                     txn: Transaction | None = None,
                     detail: dict | None = None) -> None:
        store = self._store_for(txn)
        # Probe for bindings before materializing the event: most
        # operations fire into a graph with no demons at all, and this
        # is on the per-request hot path of a pipelined read.
        names = []
        graph_demon = store.graph_demons.demon_at(kind)
        if graph_demon is not None:
            names.append(graph_demon)
        if node is not None:
            table = store.node_demons.get(node)
            if table is not None:
                node_demon = table.demon_at(kind)
                if node_demon is not None:
                    names.append(node_demon)
        # Change-feed collection is independent of demon bindings: a
        # subscriber needs no demon registered.  Only mutation kinds
        # are collected (read events publish nothing at commit), and
        # only once a hub exists.  Demons themselves still fire inline
        # below — a raising demon vetoes the transaction, and then the
        # buffered events abort with the write-set.
        collect = (self._subscriptions is not None and txn is not None
                   and txn.writeset is not None and kind in MUTATION_EVENTS)
        if not names and not collect:
            return
        event = DemonEvent(
            kind=kind, time=time, project=self._store.project_id,
            node=node, link=link,
            transaction=txn.txn_id if txn is not None else None,
            detail=detail or {}, txn_handle=txn)
        if collect:
            txn.writeset.record_event(event)
        for name in names:
            self.demons.fire(name, event)

    # ==================================================================
    # Node lifecycle (Appendix A.1 continued)

    def add_node(self, txn: Transaction | None = None,
                 keep_history: bool = True) -> tuple[NodeIndex, Time]:
        """``addNode``: create an empty node; returns (index, time).

        ``keep_history=True`` creates an *archive* (full version history);
        ``False`` creates a *file* (current version only).
        """
        with self._in_txn(txn) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.EXCLUSIVE)
            index = self._store_for(t).next_node_index
            time = self._txns.assign_time(t)
            kind = NodeKind.ARCHIVE if keep_history else NodeKind.FILE
            args = {"index": index, "kind": kind.value, "time": time}
            self._mutate(t, "add_node", args)
            self._fire_demons(EventKind.ADD_NODE, time, node=index, txn=t)
            return index, time

    def delete_node(self, txn: Transaction | None = None, *,
                    node: NodeIndex) -> None:
        """``deleteNode``: tombstone a node and every attached link."""
        with self._in_txn(txn) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.EXCLUSIVE)
            t.lock(("node", node), LockMode.EXCLUSIVE)
            record = self._store_for(t).node(node)
            record.require_alive()
            time = self._txns.assign_time(t)
            args = {"index": node, "time": time}
            self._mutate(t, "delete_node", args)
            t.writeset.queue_index("drop", node)
            self._fire_demons(EventKind.DELETE_NODE, time, node=node, txn=t)

    # ==================================================================
    # Link lifecycle

    def add_link(self, txn: Transaction | None = None, *,
                 from_pt: LinkPt, to_pt: LinkPt) -> tuple[LinkIndex, Time]:
        """``addLink``: create a link between two endpoints.

        "The from and to nodes must exist at their respective times."
        A zero endpoint time means the link tracks the current version.
        """
        with self._in_txn(txn) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.EXCLUSIVE)
            store = self._store_for(t)
            for pt in (from_pt, to_pt):
                t.lock(("node", pt.node), LockMode.EXCLUSIVE)
                node = store.node(pt.node)
                node.require_alive(pt.time)
                if pt.pinned:
                    # The pinned version must actually exist.
                    node.contents_at(pt.time)
            index = store.next_link_index
            time = self._txns.assign_time(t)
            args = {"index": index, "from": from_pt.to_record(),
                    "to": to_pt.to_record(), "time": time}
            self._mutate(t, "add_link", args)
            self._fire_demons(EventKind.ADD_LINK, time, link=index, txn=t)
            return index, time

    def copy_link(self, txn: Transaction | None = None, *,
                  link: LinkIndex, time: Time = CURRENT,
                  keep_source: bool = True,
                  other_pt: LinkPt) -> tuple[LinkIndex, Time]:
        """``copyLink``: new link sharing one endpoint of an existing link.

        ``keep_source=True`` copies the source endpoint of ``link`` (as of
        ``time``) and uses ``other_pt`` as destination; ``False`` copies
        the destination and uses ``other_pt`` as source.
        """
        with self._in_txn(txn) as t:
            t.lock(("link", link), LockMode.SHARED)
            record = self._store_for(t).link(link)
            record.require_alive(time)
            end = LinkEnd.FROM if keep_source else LinkEnd.TO
            shared_pt = record.resolved_endpoint(end, time)
            if keep_source:
                from_pt, to_pt = shared_pt, other_pt
            else:
                from_pt, to_pt = other_pt, shared_pt
            new_index, new_time = self.add_link(
                t, from_pt=from_pt, to_pt=to_pt)
            self._fire_demons(EventKind.COPY_LINK, new_time, link=new_index,
                              txn=t, detail={"copied_from": link})
            return new_index, new_time

    def delete_link(self, txn: Transaction | None = None, *,
                    link: LinkIndex) -> None:
        """``deleteLink``: tombstone a link."""
        with self._in_txn(txn) as t:
            t.lock(("link", link), LockMode.EXCLUSIVE)
            record = self._store_for(t).link(link)
            record.require_alive()
            t.lock(("node", record.from_node), LockMode.EXCLUSIVE)
            t.lock(("node", record.to_node), LockMode.EXCLUSIVE)
            time = self._txns.assign_time(t)
            args = {"index": link, "time": time}
            self._mutate(t, "delete_link", args)
            self._fire_demons(EventKind.DELETE_LINK, time, link=link, txn=t)

    # ==================================================================
    # Queries (Appendix A.1 continued)

    def linearize_graph(self, start: NodeIndex, time: Time = CURRENT,
                        node_predicate: str | Predicate | None = None,
                        link_predicate: str | Predicate | None = None,
                        node_attributes: Sequence[AttributeIndex] = (),
                        link_attributes: Sequence[AttributeIndex] = (),
                        txn: Transaction | None = None) -> TraversalResult:
        """``linearizeGraph``: offset-ordered DFS from ``start``.

        Predicates are compiled (:mod:`repro.query.planner`) before the
        walk, so per-node filtering shares the planned query path's
        registry-resolved evaluation and stats-driven conjunct order.
        """
        with self._in_txn(txn, read_only=True) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.SHARED)
            pinned = self._snapshot_time(t)
            if pinned is not None and time == CURRENT:
                time = pinned
            store = self._store_for(t)
            node_pred = compile_predicate(
                parse_predicate(node_predicate), store.registry, self._index)
            link_pred = compile_predicate(
                parse_predicate(link_predicate), store.registry, self._index)
            PLANNER.increment("compiled_traversals")
            return linearize_graph(
                store, start, time, node_pred, link_pred,
                list(node_attributes), list(link_attributes))

    def get_graph_query(self, time: Time = CURRENT,
                        node_predicate: str | Predicate | None = None,
                        link_predicate: str | Predicate | None = None,
                        node_attributes: Sequence[AttributeIndex] = (),
                        link_attributes: Sequence[AttributeIndex] = (),
                        txn: Transaction | None = None) -> QueryResult:
        """``getGraphQuery``: associative access by attribute predicates."""
        with self._in_txn(txn, read_only=True) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.SHARED)
            node_pred = parse_predicate(node_predicate)
            link_pred = parse_predicate(link_predicate)
            projection = (list(node_attributes), list(link_attributes))
            if t.writeset is not None and t.writeset.dirty:
                # A writer queries through its own overlay; the index
                # only reflects committed state, so it cannot be used.
                return get_graph_query(
                    t.writeset, time, node_pred, link_pred,
                    *projection, index=None, stats=self._index)
            pinned = self._snapshot_time(t)
            if pinned is None:
                return get_graph_query(
                    self._store, time, node_pred, link_pred,
                    *projection, index=self._index, stats=self._index)
            if time == CURRENT:
                # Optimistic indexed path: if no commit has published
                # since this snapshot was pinned (apply seqlock even
                # and unchanged before *and* after the query) and no
                # earlier commit published *above* the watermark (a
                # committer racing an older in-flight writer leaves
                # applied effects the pin must not see), the live store
                # IS the snapshot and the index answer is valid.
                if (t.snapshot_seq % 2 == 0
                        and self._txns.apply_seq == t.snapshot_seq
                        and self._txns.applied_high <= t.watermark):
                    result = get_graph_query(
                        self._store, CURRENT, node_pred, link_pred,
                        *projection, index=self._index, stats=self._index)
                    if self._txns.apply_seq == t.snapshot_seq:
                        return result
                # The seqlock proved the live index stale relative to
                # this snapshot — fall back to the pinned-time scan.
                PLANNER.increment("fallbacks")
                time = pinned
            # As-of-time scan (the query layer ignores the index for
            # historical times anyway).
            return get_graph_query(
                self._store, time, node_pred, link_pred,
                *projection, index=self._index, stats=self._index)

    def explain_query(self, time: Time = CURRENT,
                      node_predicate: str | Predicate | None = None,
                      link_predicate: str | Predicate | None = None,
                      txn: Transaction | None = None) -> str:
        """Render the plan ``getGraphQuery`` would execute, without
        executing it.

        Shows the normalized residual predicate, the chosen access path
        (probes, intersections, unions, or the full scan) and the
        stats-driven selectivity estimate.  The plan reflects this
        moment's statistics; a concurrent commit may shift estimates,
        never results.
        """
        with self._in_txn(txn, read_only=True) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.SHARED)
            store = self._store_for(t)
            writer_overlay = t.writeset is not None and t.writeset.dirty
            indexed = (self._index is not None and time == CURRENT
                       and not writer_overlay)
            plan = plan_query(
                parse_predicate(node_predicate), store.registry,
                stats=self._index, indexed=indexed,
                link_predicate=parse_predicate(link_predicate))
            PLANNER.increment("explains")
            return plan.explain()

    # ==================================================================
    # Node operations (Appendix A.2)

    def open_node(self, node: NodeIndex, time: Time = CURRENT,
                  attributes: Sequence[AttributeIndex] = (),
                  txn: Transaction | None = None,
                  ) -> tuple[bytes, list[tuple[LinkIndex, str, LinkPt]],
                             list[str | None], Time]:
        """``openNode``: contents + attachments + values + current time.

        Returns ``(contents, link_points, attribute_values, current_time)``
        where ``link_points`` holds ``(link index, 'from'|'to', LinkPt)``
        for every link attached to the requested version of the node.
        """
        with self._in_txn(txn, read_only=True) as t:
            t.lock(("node", node), LockMode.SHARED)
            store = self._store_for(t)
            pinned = self._snapshot_time(t)
            if pinned is not None and time == CURRENT:
                time = pinned
            record = store.node(node)
            record.require_alive(time)
            contents = record.contents_at(time)
            link_points: list[tuple[LinkIndex, str, LinkPt]] = []
            for link_index in sorted(record.out_links | record.in_links):
                link = store.link(link_index)
                if not link.alive_at(time):
                    continue
                for end in link.ends_attached_to(node):
                    try:
                        resolved = link.resolved_endpoint(end, time)
                    except VersionError:
                        continue
                    link_points.append((link_index, end.value, resolved))
            if attributes:
                attached = record.attributes.all_at(time)
                values = [attached.get(index) for index in attributes]
            else:
                values = []
            # A pinned reader reports the version in effect at its
            # watermark, not whatever a later commit checked in.
            current = (record.version_time_at(time) if pinned is not None
                       else record.current_time)
            self._fire_demons(EventKind.OPEN_NODE, self._store.clock.now,
                              node=node, txn=t)
            return contents, link_points, values, current

    def modify_node(self, txn: Transaction | None = None, *,
                    node: NodeIndex, expected_time: Time, contents: bytes,
                    attachments: Iterable[tuple[LinkIndex, str, int]] | None
                    = None,
                    explanation: str = "") -> Time:
        """``modifyNode``: check in new contents.

        ``expected_time`` must equal the node's current version time (the
        optimistic check the Appendix mandates).  ``attachments`` supplies
        the new offset for each tracking link endpoint attached to the
        node — "there must be a LinkPt for each link associated with the
        current version"; pass ``None`` to keep every offset unchanged.
        Returns the new version time.
        """
        with self._in_txn(txn) as t:
            t.lock(("node", node), LockMode.EXCLUSIVE)
            store = self._store_for(t)
            record = store.node(node)
            record.require_alive()

            tracking = self._tracking_endpoints(store, record)
            moves: list[list] = []
            if attachments is not None:
                supplied = {
                    (link_index, LinkEnd(end_value)): position
                    for link_index, end_value, position in attachments
                }
                missing = set(tracking) - set(supplied)
                unknown = set(supplied) - set(tracking)
                if missing or unknown:
                    raise VersionError(
                        f"modifyNode attachments mismatch: missing "
                        f"{_endpoint_list(missing)}, unknown "
                        f"{_endpoint_list(unknown)}")
                for (link_index, end), position in sorted(supplied.items(),
                                                          key=lambda kv:
                                                          (kv[0][0],
                                                           kv[0][1].value)):
                    current = store.link(link_index).position_at(end)
                    if position != current:
                        moves.append([link_index, end.value, position])
            for link_index, __ in tracking:
                t.lock(("link", link_index), LockMode.EXCLUSIVE)

            time = self._txns.assign_time(t)
            args = {"index": node, "expected": expected_time,
                    "contents": bytes(contents), "time": time,
                    "explanation": explanation, "moves": moves}
            self._mutate(t, "modify_node", args)
            self._fire_demons(EventKind.MODIFY_NODE, time, node=node, txn=t)
            return time

    @staticmethod
    def _tracking_endpoints(store, record: NodeRecord,
                            ) -> list[tuple[LinkIndex, LinkEnd]]:
        """Live tracking endpoints attached to ``record``."""
        found = []
        for link_index in sorted(record.out_links | record.in_links):
            link = store.link(link_index)
            if not link.alive_at(CURRENT):
                continue
            for end in link.ends_attached_to(record.index):
                if link.endpoint(end).track_current:
                    found.append((link_index, end))
        return found

    def get_node_timestamp(self, node: NodeIndex,
                           txn: Transaction | None = None) -> Time:
        """``getNodeTimeStamp``: current version time of ``node``.

        Inside a write transaction, pass ``txn`` to see the version the
        transaction itself checked in; a pinned read-only transaction
        answers with the version in effect at its watermark.
        """
        pinned = self._snapshot_time(txn)
        record = self._store_for(txn).node(node)
        if pinned is not None:
            record.require_alive(pinned)
            return record.version_time_at(pinned)
        record.require_alive()
        return record.current_time

    def change_node_protection(self, txn: Transaction | None = None, *,
                               node: NodeIndex,
                               protections: Protections) -> None:
        """``changeNodeProtection``: set the node's protection mode."""
        with self._in_txn(txn) as t:
            t.lock(("node", node), LockMode.EXCLUSIVE)
            record = self._store_for(t).node(node)
            record.require_alive()
            args = {"node": node, "protections": protections.value}
            self._mutate(t, "change_node_protection", args)

    def get_node_versions(self, node: NodeIndex,
                          ) -> tuple[list[Version], list[Version]]:
        """``getNodeVersions``: (major versions, minor versions)."""
        record = self._store.node(node)
        return record.major_versions(), record.minor_versions()

    def get_node_differences(self, node: NodeIndex, time1: Time,
                             time2: Time) -> list[Difference]:
        """``getNodeDifferences``: diff between two versions of a node."""
        record = self._store.node(node)
        old = record.contents_at(time1)
        new = record.contents_at(time2)
        return diff_bytes(old, new)

    # ==================================================================
    # Link operations (Appendix A.3)

    def get_to_node(self, link: LinkIndex, time: Time = CURRENT,
                    ) -> tuple[NodeIndex, Time]:
        """``getToNode``: destination (node, version time) of ``link``."""
        return self._link_end_node(link, LinkEnd.TO, time)

    def get_from_node(self, link: LinkIndex, time: Time = CURRENT,
                      ) -> tuple[NodeIndex, Time]:
        """``getFromNode``: source (node, version time) of ``link``."""
        return self._link_end_node(link, LinkEnd.FROM, time)

    def _link_end_node(self, link: LinkIndex, end: LinkEnd,
                       time: Time) -> tuple[NodeIndex, Time]:
        record = self._store.link(link)
        record.require_alive(time)
        pt = record.endpoint(end)
        node = self._store.node(pt.node)
        if pt.pinned:
            return pt.node, pt.time
        if time == CURRENT:
            return pt.node, node.current_time
        # Version of the node in effect at the requested time.
        stamps = [s for s in node.content_version_times() if s <= time]
        if not stamps:
            raise VersionError(
                f"node {pt.node} had no version at time {time}")
        return pt.node, stamps[-1]

    def links_from(self, node: NodeIndex, time: Time = CURRENT,
                   txn: Transaction | None = None) -> list[LinkIndex]:
        """``linksFrom``: indexes of links leaving ``node`` at ``time``.

        O(degree): answered from the link table's per-node adjacency
        run (or, inside a writer transaction, the overlay's endpoint
        sets) — never a scan over every link in the graph.  Results are
        ascending by link index.
        """
        with self._in_txn(txn, read_only=True) as t:
            t.lock(("node", node), LockMode.SHARED)
            store = self._store_for(t)
            pinned = self._snapshot_time(t)
            if pinned is not None and time == CURRENT:
                time = pinned
            store.node(node).require_alive(time)
            return [link.index for link in store.links_from(node, time)]

    def links_to(self, node: NodeIndex, time: Time = CURRENT,
                 txn: Transaction | None = None) -> list[LinkIndex]:
        """``linksTo``: indexes of links entering ``node`` at ``time``.

        The mirror of :meth:`links_from`, served from the incoming
        adjacency run.
        """
        with self._in_txn(txn, read_only=True) as t:
            t.lock(("node", node), LockMode.SHARED)
            store = self._store_for(t)
            pinned = self._snapshot_time(t)
            if pinned is not None and time == CURRENT:
                time = pinned
            store.node(node).require_alive(time)
            return [link.index for link in store.links_to(node, time)]

    # ==================================================================
    # Attribute operations (Appendix A.4)

    def get_attributes(self, time: Time = CURRENT,
                       ) -> list[tuple[str, AttributeIndex]]:
        """``getAttributes``: every (name, index) existing at ``time``."""
        return self._store.registry.all_at(time)

    def get_attribute_index(self, name: str,
                            txn: Transaction | None = None) -> AttributeIndex:
        """``getAttributeIndex``: look up ``name``, creating it if new."""
        existing = self._store_for(txn).registry.lookup(name)
        if existing is not None:
            return existing
        with self._in_txn(txn) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.EXCLUSIVE)
            store = self._store_for(t)
            existing = store.registry.lookup(name)
            if existing is not None:
                return existing
            index = store.registry.peek_next()
            time = self._txns.assign_time(t)
            args = {"name": name, "index": index, "time": time}
            self._mutate(t, "intern_attribute", args)
            return index

    def get_attribute_values(self, attribute: AttributeIndex,
                             time: Time = CURRENT) -> list[str]:
        """``getAttributeValues``: all values of an attribute at ``time``.

        Aggregated across every node and link alive at ``time``.
        """
        values: set[str] = set()
        for node in self._store.live_nodes(time):
            value = node.attributes.value_at(attribute, time, default=None)
            if value is not None:
                values.add(value)
        for link in self._store.live_links(time):
            value = link.attributes.value_at(attribute, time, default=None)
            if value is not None:
                values.add(value)
        return sorted(values)

    # --- node attributes ---------------------------------------------

    def set_node_attribute_value(self, txn: Transaction | None = None, *,
                                 node: NodeIndex, attribute: AttributeIndex,
                                 value: str) -> None:
        """``setNodeAttributeValue``: set (versioned on archives)."""
        with self._in_txn(txn) as t:
            t.lock(("node", node), LockMode.EXCLUSIVE)
            store = self._store_for(t)
            record = store.node(node)
            record.require_alive()
            name = store.registry.name_of(attribute)
            time = self._txns.assign_time(t)
            args = {"node": node, "attribute": attribute, "value": value,
                    "time": time}
            self._mutate(t, "set_node_attribute", args)
            t.writeset.queue_index("set", node, name, value)
            self._fire_demons(EventKind.SET_ATTRIBUTE, time, node=node,
                              txn=t, detail={"attribute": name,
                                             "value": value})

    def delete_node_attribute(self, txn: Transaction | None = None, *,
                              node: NodeIndex,
                              attribute: AttributeIndex) -> None:
        """``deleteNodeAttribute``: detach an attribute from a node."""
        with self._in_txn(txn) as t:
            t.lock(("node", node), LockMode.EXCLUSIVE)
            store = self._store_for(t)
            record = store.node(node)
            record.require_alive()
            name = store.registry.name_of(attribute)
            time = self._txns.assign_time(t)
            args = {"node": node, "attribute": attribute, "time": time}
            self._mutate(t, "delete_node_attribute", args)
            t.writeset.queue_index("delete", node, name)
            self._fire_demons(EventKind.DELETE_ATTRIBUTE, time, node=node,
                              txn=t, detail={"attribute": name})

    def get_node_attribute_value(self, node: NodeIndex,
                                 attribute: AttributeIndex,
                                 time: Time = CURRENT,
                                 txn: Transaction | None = None) -> str:
        """``getNodeAttributeValue``: one attribute value as of ``time``.

        Inside a write transaction, pass ``txn`` to see the
        transaction's own uncommitted value; a pinned read-only
        transaction resolves ``CURRENT`` to its watermark.
        """
        pinned = self._snapshot_time(txn)
        if pinned is not None and time == CURRENT:
            time = pinned
        record = self._store_for(txn).node(node)
        return record.attributes.value_at(attribute, time)

    def get_node_attributes(self, node: NodeIndex, time: Time = CURRENT,
                            ) -> list[tuple[str, AttributeIndex, str]]:
        """``getNodeAttributes``: every (name, index, value) at ``time``."""
        record = self._store.node(node)
        return sorted(
            (self._store.registry.name_of(index), index, value)
            for index, value in record.attributes.all_at(time).items()
        )

    # --- link attributes -----------------------------------------------

    def set_link_attribute_value(self, txn: Transaction | None = None, *,
                                 link: LinkIndex, attribute: AttributeIndex,
                                 value: str) -> None:
        """``setLinkAttributeValue``: set (versioned) on a link."""
        with self._in_txn(txn) as t:
            t.lock(("link", link), LockMode.EXCLUSIVE)
            store = self._store_for(t)
            record = store.link(link)
            record.require_alive()
            store.registry.name_of(attribute)  # must exist
            time = self._txns.assign_time(t)
            args = {"link": link, "attribute": attribute, "value": value,
                    "time": time}
            self._mutate(t, "set_link_attribute", args)

    def delete_link_attribute(self, txn: Transaction | None = None, *,
                              link: LinkIndex,
                              attribute: AttributeIndex) -> None:
        """``deleteLinkAttribute``: detach an attribute from a link."""
        with self._in_txn(txn) as t:
            t.lock(("link", link), LockMode.EXCLUSIVE)
            record = self._store_for(t).link(link)
            record.require_alive()
            time = self._txns.assign_time(t)
            args = {"link": link, "attribute": attribute, "time": time}
            self._mutate(t, "delete_link_attribute", args)

    def get_link_attribute_value(self, link: LinkIndex,
                                 attribute: AttributeIndex,
                                 time: Time = CURRENT) -> str:
        """``getLinkAttributeValue``: one attribute value as of ``time``."""
        record = self._store.link(link)
        return record.attributes.value_at(attribute, time)

    def get_link_attributes(self, link: LinkIndex, time: Time = CURRENT,
                            ) -> list[tuple[str, AttributeIndex, str]]:
        """``getLinkAttributes``: every (name, index, value) at ``time``."""
        record = self._store.link(link)
        return sorted(
            (self._store.registry.name_of(index), index, value)
            for index, value in record.attributes.all_at(time).items()
        )

    # ==================================================================
    # Demon operations (Appendix A.5)

    def set_graph_demon_value(self, txn: Transaction | None = None, *,
                              event: EventKind,
                              demon: str | None) -> None:
        """``setGraphDemonValue``: (versioned) graph-level demon binding.

        ``demon=None`` disables the demon for ``event``.
        """
        with self._in_txn(txn) as t:
            t.lock(_GRAPH_RESOURCE, LockMode.EXCLUSIVE)
            time = self._txns.assign_time(t)
            args = {"event": event.value, "demon": demon, "time": time}
            self._mutate(t, "set_graph_demon", args)

    def get_graph_demons(self, time: Time = CURRENT,
                         ) -> list[tuple[EventKind, str]]:
        """``getGraphDemons``: active (event, demon) pairs at ``time``."""
        return self._store.graph_demons.demons_at(time)

    def set_node_demon(self, txn: Transaction | None = None, *,
                       node: NodeIndex, event: EventKind,
                       demon: str | None) -> None:
        """``setNodeDemon``: (versioned) node-level demon binding."""
        with self._in_txn(txn) as t:
            t.lock(("node", node), LockMode.EXCLUSIVE)
            self._store_for(t).node(node).require_alive()
            time = self._txns.assign_time(t)
            args = {"node": node, "event": event.value, "demon": demon,
                    "time": time}
            self._mutate(t, "set_node_demon", args)

    def get_node_demons(self, node: NodeIndex, time: Time = CURRENT,
                        ) -> list[tuple[EventKind, str]]:
        """``getNodeDemons``: active (event, demon) pairs at ``time``."""
        table = self._store.node_demons.get(node)
        if table is None:
            return []
        return table.demons_at(time)

    # ==================================================================
    # attribute index upkeep

    def _rebuild_index(self) -> None:
        assert self._index is not None
        registry = self._store.registry
        for node in self._store.live_nodes(CURRENT):
            for index, value in node.attributes.all_at(CURRENT).items():
                self._index.set_value(node.index, registry.name_of(index),
                                      value)

    # ==================================================================
    # Appendix-style camelCase aliases

    createGraph = create_graph
    destroyGraph = destroy_graph
    openGraph = open_graph
    addNode = add_node
    deleteNode = delete_node
    addLink = add_link
    copyLink = copy_link
    deleteLink = delete_link
    linearizeGraph = linearize_graph
    getGraphQuery = get_graph_query
    explainQuery = explain_query
    openNode = open_node
    modifyNode = modify_node
    getNodeTimeStamp = get_node_timestamp
    changeNodeProtection = change_node_protection
    getNodeVersions = get_node_versions
    getNodeDifferences = get_node_differences
    getToNode = get_to_node
    getFromNode = get_from_node
    linksFrom = links_from
    linksTo = links_to
    getAttributes = get_attributes
    getAttributeValues = get_attribute_values
    getAttributeIndex = get_attribute_index
    setNodeAttributeValue = set_node_attribute_value
    deleteNodeAttribute = delete_node_attribute
    getNodeAttributeValue = get_node_attribute_value
    getNodeAttributes = get_node_attributes
    setLinkAttributeValue = set_link_attribute_value
    deleteLinkAttribute = delete_link_attribute
    getLinkAttributeValue = get_link_attribute_value
    getLinkAttributes = get_link_attributes
    setGraphDemonValue = set_graph_demon_value
    getGraphDemons = get_graph_demons
    setNodeDemon = set_node_demon
    getNodeDemons = get_node_demons


# Route every Appendix operation (snake_case and camelCase alias alike)
# through the instance's middleware chain.  With an empty chain the
# wrappers fall straight through to the implementation.
install_local_dispatch(HAM)
