"""The hypergraph object store and its on-disk representation.

A :class:`GraphStore` is the in-memory primary copy of one hyperdocument
graph: node records, link records, the attribute registry, demon tables,
and the logical clock.  It knows how to snapshot itself to an encodable
record and rebuild from one.

On disk a graph is a directory (the Appendix's ``Directory`` operand)
holding:

- ``neptune.meta`` — project id, creation time, pointer to the latest
  snapshot record (rewritten atomically);
- ``snapshots.heap`` — a :class:`repro.storage.heap.RecordHeap` of full
  graph snapshots (old snapshots remain addressable — cheap insurance and
  a natural fit for a versioning system);
- ``wal.log`` — the write-ahead log of updates since the last snapshot.
"""

from __future__ import annotations

import os

from repro.core.attributes import AttributeRegistry
from repro.core.clock import LogicalClock
from repro.core.demons import DemonTable
from repro.core.link import LinkRecord
from repro.core.node import NodeRecord
from repro.core.table import LinkTable, NodeTable
from repro.core.types import LinkIndex, NodeIndex, ProjectId, Time
from repro.errors import (
    GraphExistsError,
    GraphNotFoundError,
    LinkNotFoundError,
    NodeNotFoundError,
    StorageError,
)
from repro.storage.cas import BlobCatalog
from repro.storage.heap import RecordHeap
from repro.storage.log import MARK_SUFFIX
from repro.storage.serializer import decode_value, encode_value, gc_paused
from repro.tools.metrics import GRAPH

__all__ = ["GraphStore", "GraphDirectory"]

_META_NAME = "neptune.meta"
_SNAPSHOTS_NAME = "snapshots.heap"
_WAL_NAME = "wal.log"


class GraphStore:
    """In-memory hypergraph state for one graph."""

    def __init__(self, project_id: ProjectId, created_at: Time = 1):
        self.project_id = project_id
        self.created_at = created_at
        self.clock = LogicalClock(start=created_at)
        # Slotted struct-of-arrays tables (see repro.core.table): rows
        # append in strictly increasing index order, point lookups stay
        # O(1) through the position map, and the link table maintains
        # CSR-style per-node adjacency runs so traversal is O(degree).
        # Both keep the read-side dict protocol the rest of the system
        # was written against.
        self.nodes: NodeTable = NodeTable()
        self.links: LinkTable = LinkTable()
        self.registry = AttributeRegistry()
        self.graph_demons = DemonTable()
        self.node_demons: dict[NodeIndex, DemonTable] = {}
        self.next_node_index: NodeIndex = 1
        self.next_link_index: LinkIndex = 1
        #: Content-addressed intern pool for every payload this graph's
        #: version chains retain whole (see :mod:`repro.storage.cas`).
        self.catalog = BlobCatalog()

    # ------------------------------------------------------------------
    # lookups

    def node(self, index: NodeIndex) -> NodeRecord:
        """The node record for ``index``; raises if it never existed."""
        try:
            return self.nodes[index]
        except KeyError:
            raise NodeNotFoundError(f"node {index} does not exist") from None

    def link(self, index: LinkIndex) -> LinkRecord:
        """The link record for ``index``; raises if it never existed."""
        try:
            return self.links[index]
        except KeyError:
            raise LinkNotFoundError(f"link {index} does not exist") from None

    def live_nodes(self, time: Time) -> list[NodeRecord]:
        """All nodes alive at ``time`` (0 = now), by index order.

        The node table stores rows in index order (strictly increasing
        inserts, enforced), so this is a single filtered column scan —
        no copy-and-sort.  Lock-free readers are safe: the table
        publishes each row with GIL-atomic appends and bumps its row
        count last, so a concurrent commit is seen as a consistent
        prefix.
        """
        GRAPH.increment("column_scans")
        return self.nodes.live_records(time)

    def live_links(self, time: Time) -> list[LinkRecord]:
        """All links alive at ``time`` (0 = now), by index order."""
        GRAPH.increment("column_scans")
        return self.links.live_records(time)

    def links_from(self, node: NodeIndex, time: Time) -> list[LinkRecord]:
        """Links alive at ``time`` leaving ``node``, by index order.

        O(degree): reads the link table's per-node adjacency run instead
        of scanning every live link.
        """
        GRAPH.increment("adjacency_hits")
        return self.links.live_from(node, time)

    def links_to(self, node: NodeIndex, time: Time) -> list[LinkRecord]:
        """Links alive at ``time`` entering ``node``, by index order."""
        GRAPH.increment("adjacency_hits")
        return self.links.live_to(node, time)

    def demon_table_for_node(self, index: NodeIndex) -> DemonTable | None:
        """The node's demon table, or ``None`` if none was registered.

        Read-side probes must not allocate: persisting an empty
        ``DemonTable`` for every node a probe touches bloats snapshots
        and node-demon iteration.  Registration goes through
        :meth:`demon_table_for_write`, which creates on first use.
        """
        return self.node_demons.get(index)

    # ------------------------------------------------------------------
    # write access
    #
    # The operation-apply functions (repro.core.ham._APPLY) address the
    # records they mutate through these accessors.  On a plain store they
    # are the plain lookups — recovery replays against exactly the state
    # it reads.  On a transaction's write-set overlay
    # (repro.txn.writeset.WriteSet) they copy the record into the
    # transaction's private view first, so concurrent snapshot readers
    # never see a record mutated underneath them.

    def node_for_write(self, index: NodeIndex) -> NodeRecord:
        """The node record ``index``, writable in place."""
        return self.node(index)

    def link_for_write(self, index: LinkIndex) -> LinkRecord:
        """The link record ``index``, writable in place."""
        return self.link(index)

    def registry_for_write(self) -> AttributeRegistry:
        """The attribute registry, writable in place."""
        return self.registry

    def graph_demons_for_write(self) -> DemonTable:
        """The graph-level demon table, writable in place."""
        return self.graph_demons

    def demon_table_for_write(self, index: NodeIndex) -> DemonTable:
        """The node's demon table, created on first registration."""
        table = self.node_demons.get(index)
        if table is None:
            table = DemonTable()
            self.node_demons[index] = table
        return table

    # ------------------------------------------------------------------
    # snapshots

    def to_snapshot(self) -> dict:
        """Full encodable snapshot of the graph state."""
        return {
            "project": self.project_id,
            "created": self.created_at,
            "now": self.clock.now,
            "next_node": self.next_node_index,
            "next_link": self.next_link_index,
            # Table iteration is already in index order (the sorted
            # invariant), so the snapshot stays byte-identical to the
            # old sorted-dict encoding without a sort.
            "nodes": [node.to_record() for node in self.nodes.values()],
            "links": [link.to_record() for link in self.links.values()],
            "registry": self.registry.to_record(),
            "graph_demons": self.graph_demons.to_record(),
            "node_demons": {
                str(index): table.to_record()
                for index, table in self.node_demons.items()
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "GraphStore":
        """Rebuild a store from :meth:`to_snapshot` output."""
        store = cls(snapshot["project"], snapshot["created"])
        store.clock.advance_to(snapshot["now"])
        store.next_node_index = snapshot["next_node"]
        store.next_link_index = snapshot["next_link"]
        for record in snapshot["nodes"]:
            node = NodeRecord.from_record(record)
            # Re-intern the retained payloads: the rebuilt store's
            # catalog recovers its refcounts (and its dedup) from the
            # records themselves.
            node.attach_catalog(store.catalog)
            store.nodes[node.index] = node
        for record in snapshot["links"]:
            link = LinkRecord.from_record(record)
            store.links[link.index] = link
        store.registry = AttributeRegistry.from_record(snapshot["registry"])
        store.graph_demons = DemonTable.from_record(snapshot["graph_demons"])
        store.node_demons = {
            int(index): DemonTable.from_record(record)
            for index, record in snapshot["node_demons"].items()
        }
        return store


class GraphDirectory:
    """The on-disk home of one graph: meta file, snapshot heap, WAL."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    # paths ------------------------------------------------------------

    @property
    def meta_path(self) -> str:
        return os.path.join(self.directory, _META_NAME)

    @property
    def snapshots_path(self) -> str:
        return os.path.join(self.directory, _SNAPSHOTS_NAME)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, _WAL_NAME)

    def exists(self) -> bool:
        """True when the directory already holds a graph."""
        return os.path.exists(self.meta_path)

    # meta ---------------------------------------------------------------

    def write_meta(self, meta: dict) -> None:
        """Atomically rewrite the meta file (write temp + rename)."""
        payload = encode_value(meta)
        temp_path = self.meta_path + ".tmp"
        with open(temp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.meta_path)

    def read_meta(self) -> dict:
        """Read and decode the meta file."""
        if not self.exists():
            raise GraphNotFoundError(
                f"{self.directory} does not contain a Neptune graph")
        with open(self.meta_path, "rb") as handle:
            meta = decode_value(handle.read())
        if not isinstance(meta, dict):
            raise StorageError(f"{self.meta_path}: malformed meta file")
        return meta

    # creation -----------------------------------------------------------

    def initialize(self, project_id: ProjectId, protections: int,
                   created_at: Time) -> None:
        """Create the directory structure for a brand-new graph."""
        if self.exists():
            raise GraphExistsError(
                f"{self.directory} already contains a Neptune graph")
        os.makedirs(self.directory, exist_ok=True)
        store = GraphStore(project_id, created_at)
        snapshot_id = self.append_snapshot(store)
        self.write_meta({
            "project": project_id,
            "created": created_at,
            "protections": protections,
            "snapshot": snapshot_id,
        })

    def destroy(self, project_id: ProjectId) -> None:
        """Remove the graph's files (``destroyGraph``)."""
        meta = self.read_meta()
        if meta["project"] != project_id:
            raise GraphNotFoundError(
                f"{self.directory}: ProjectId does not match "
                f"(given {project_id}, stored {meta['project']})")
        for path in (self.meta_path, self.snapshots_path, self.wal_path,
                     self.wal_path + MARK_SUFFIX):
            if os.path.exists(path):
                os.remove(path)

    # snapshots ----------------------------------------------------------

    def _open_heap(self) -> RecordHeap:
        # Aligned: a new snapshot never dirties a page holding an older
        # committed snapshot's bytes, so a crash mid-append cannot
        # corrupt the snapshot recovery falls back to.  Rescued: a torn
        # header page re-derives its cursor instead of failing the open.
        return RecordHeap(self.snapshots_path, align_records=True,
                          rescue_header=True)

    def append_snapshot(self, store: GraphStore) -> int:
        """Append a full snapshot to the heap; returns its record id.

        Unlike a load, this does not pause the collector: the snapshot's
        objects die as soon as they are encoded, and pausing through
        their allocation would skip the full collections that reclaim
        the cyclic garbage of the commits between checkpoints (measured
        at +8 MB peak RSS on the ``collab-fanout`` benchmark workload).
        """
        with self._open_heap() as heap:
            record_id = heap.append(encode_value(store.to_snapshot()))
            heap.sync()
        return record_id

    def load_snapshot_record(self, record_id: int) -> dict:
        """The raw (decoded, unhydrated) snapshot dict at ``record_id``.

        Replica bootstrap harvests blob payloads from this without
        paying for a full :class:`GraphStore` rebuild.
        """
        with self._open_heap() as heap:
            payload = heap.read(record_id)
        with gc_paused():
            snapshot = decode_value(payload)
        if not isinstance(snapshot, dict):
            raise StorageError(
                f"{self.snapshots_path}: malformed snapshot record")
        return snapshot

    def load_snapshot(self, record_id: int) -> GraphStore:
        """Load the snapshot stored at ``record_id``."""
        with gc_paused():
            return GraphStore.from_snapshot(
                self.load_snapshot_record(record_id))
