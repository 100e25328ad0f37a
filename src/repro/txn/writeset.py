"""Per-transaction write-sets: copy-on-write overlays over a GraphStore.

MVCC snapshot reads (DESIGN.md "Isolation and visibility") require that a
writer never mutates the shared :class:`~repro.core.graph.GraphStore` in
place mid-transaction: a lock-free reader pinned at a commit watermark
may be traversing any record at any moment.  Instead, every write
transaction owns a :class:`WriteSet` — an object that duck-types the
store protocol the operation-apply functions (``repro.core.ham._APPLY``)
and the read paths use:

- plain reads (``node``, ``link``, ``live_nodes``, ``registry``, the
  ``nodes``/``links`` mappings) answer from the transaction's private
  records when present, else fall through to the base store — so a
  writer sees its own uncommitted effects;
- write accessors (``node_for_write``, ``link_for_write``,
  ``registry_for_write``, ``graph_demons_for_write``,
  ``demon_table_for_write``) clone the base record into the private view
  on first touch (:meth:`NodeRecord.clone` and friends are structural-
  sharing copies, so this is cheap), and all mutation happens on the
  clone;
- :meth:`WriteSet.apply` publishes the private records into the base
  store at commit, *after* the WAL blob is durable.  The base store's
  record tables (:mod:`repro.core.table`) publish each row as a series
  of GIL-atomic column appends with the row count bumped last, and row
  replacement is a single record-pointer swap — ordered so that any
  record a concurrent reader can see only references records that are
  already present.  New links also append their index to the per-node
  adjacency runs here, inside the same seqlock bracket the manager
  wraps around :meth:`apply`, so an optimistic reader that raced an
  adjacency append fails its seqlock validation and retries.  The
  replaced record objects are never mutated again, so a reader holding
  one keeps a consistent (merely slightly stale) view;
- abort is simply dropping the WriteSet: the base store was never
  touched, and no undo machinery runs at all — only the blob-catalog
  refs the transaction's check-ins interned are released
  (:meth:`WriteSet.discard`).

Deferred index maintenance rides along: ``AttributeValueIndex`` updates
queue on the write-set (:meth:`queue_index`) and run inside
:meth:`apply` — within the same apply-seqlock bracket the transaction
manager wraps around publication — so the index (and with it the
planner's selectivity estimates, which it answers) only ever reflects
committed state, and a snapshot reader validates it against its pinned
apply sequence.
"""

from __future__ import annotations

from repro.core.demons import DemonTable
from repro.errors import LinkNotFoundError, NodeNotFoundError
from repro.storage.cas import CatalogJournal

__all__ = ["WriteSet"]


class _OverlayMap:
    """Read-through mapping: private entries shadow a base dict.

    Supports the small mapping surface the HAM and apply functions use
    (`[]`, ``get``, ``in``, iteration, ``items``); writes always land in
    the private dict.
    """

    __slots__ = ("_base", "_private")

    def __init__(self, base: dict, private: dict):
        self._base = base
        self._private = private

    def __getitem__(self, key):
        try:
            return self._private[key]
        except KeyError:
            return self._base[key]

    def __setitem__(self, key, value) -> None:
        self._private[key] = value

    def __contains__(self, key) -> bool:
        return key in self._private or key in self._base

    def __iter__(self):
        return iter(self._merged_keys())

    def __len__(self) -> int:
        # Counting is size-of-base plus genuinely-new private keys; no
        # need to materialize (and sort) the merged key list.
        return len(self._base) + sum(
            1 for key in self._private if key not in self._base)

    def get(self, key, default=None):
        if key in self._private:
            return self._private[key]
        return self._base.get(key, default)

    def keys(self):
        return self._merged_keys()

    def values(self):
        return [self[key] for key in self._merged_keys()]

    def items(self):
        return [(key, self[key]) for key in self._merged_keys()]

    def _merged_keys(self) -> list:
        keys = set(self._base)
        keys.update(self._private)
        return sorted(keys)


class WriteSet:
    """One transaction's private view of (and pending changes to) a store."""

    def __init__(self, base, index=None):
        self.base = base
        self._nodes: dict = {}
        self._links: dict = {}
        self._node_demons: dict = {}
        self._registry = None
        self._graph_demons = None
        self._next_node_index = None
        self._next_link_index = None
        self._index = index
        self._index_ops: list[tuple] = []
        #: Change events this transaction fired (in firing order), kept
        #: for the subscription hub to push *after* commit durability
        #: and publication.  Demons still fire inline — they can veto —
        #: but remote subscribers only ever learn of committed work.
        #: Aborts drop the overlay, events included.
        self.events: list = []
        #: Transaction-scoped view of the graph's blob catalog: interns
        #: land in the shared catalog immediately (dedup works across
        #: concurrent writers), releases wait for the transaction's
        #: fate (:meth:`apply` commits them; :meth:`discard` instead
        #: releases what this transaction interned).
        base_catalog = getattr(base, "catalog", None)
        self._catalog = (CatalogJournal(base_catalog)
                         if base_catalog is not None else None)
        #: Overlay mappings, for code that addresses the dicts directly.
        self.nodes = _OverlayMap(base.nodes, self._nodes)
        self.links = _OverlayMap(base.links, self._links)
        self.node_demons = _OverlayMap(base.node_demons, self._node_demons)

    # ------------------------------------------------------------------
    # store protocol: reads (private view wins, else the base store)

    @property
    def project_id(self):
        return self.base.project_id

    @property
    def created_at(self):
        return self.base.created_at

    @property
    def clock(self):
        return self.base.clock

    @property
    def registry(self):
        return (self._registry if self._registry is not None
                else self.base.registry)

    @property
    def graph_demons(self):
        return (self._graph_demons if self._graph_demons is not None
                else self.base.graph_demons)

    @property
    def catalog(self):
        """The blob catalog a record created in this transaction uses."""
        if self._catalog is not None:
            return self._catalog
        return getattr(self.base, "catalog", None)

    @property
    def next_node_index(self):
        return (self._next_node_index if self._next_node_index is not None
                else self.base.next_node_index)

    @next_node_index.setter
    def next_node_index(self, value) -> None:
        self._next_node_index = value

    @property
    def next_link_index(self):
        return (self._next_link_index if self._next_link_index is not None
                else self.base.next_link_index)

    @next_link_index.setter
    def next_link_index(self, value) -> None:
        self._next_link_index = value

    def node(self, index):
        record = self._nodes.get(index)
        if record is not None:
            return record
        try:
            return self.base.nodes[index]
        except KeyError:
            raise NodeNotFoundError(f"node {index} does not exist") from None

    def link(self, index):
        record = self._links.get(index)
        if record is not None:
            return record
        try:
            return self.base.links[index]
        except KeyError:
            raise LinkNotFoundError(f"link {index} does not exist") from None

    def live_nodes(self, time):
        return self._live_merge(self.base.nodes, self._nodes, time)

    def live_links(self, time):
        return self._live_merge(self.base.links, self._links, time)

    @staticmethod
    def _live_merge(base, private, time):
        """Overlay-aware live scan, in index order without sorting.

        The base table iterates in index order already (the sorted
        invariant); private replacements substitute in place, and
        brand-new records — whose indexes are allocated monotonically
        above everything the base holds — append after.  Only the small
        private set is ever sorted.
        """
        if not private:
            return base.live_records(time)
        records = [private.get(record.index, record)
                   for record in base.values()]
        records.extend(private[index]
                       for index in sorted(private)
                       if index not in base)
        return [record for record in records if record.alive_at(time)]

    def links_from(self, node, time):
        """Links alive at ``time`` leaving ``node``, overlay-aware.

        Still O(degree): the node record's endpoint set already reflects
        links staged in this transaction, so no table scan is needed.
        """
        if not self._links and not self._nodes:
            return self.base.links_from(node, time)
        record = self.node(node)
        return [link for index in sorted(record.out_links)
                if (link := self.link(index)).alive_at(time)]

    def links_to(self, node, time):
        """Links alive at ``time`` entering ``node``, overlay-aware."""
        if not self._links and not self._nodes:
            return self.base.links_to(node, time)
        record = self.node(node)
        return [link for index in sorted(record.in_links)
                if (link := self.link(index)).alive_at(time)]

    # ------------------------------------------------------------------
    # store protocol: copy-on-write write accessors

    def node_for_write(self, index):
        record = self._nodes.get(index)
        if record is None:
            record = self.node(index).clone()
            if self._catalog is not None:
                # The clone shares its lineage's catalog refs; only the
                # deltas this transaction makes go through the journal.
                record.rebind_catalog(self._catalog)
            self._nodes[index] = record
        return record

    def link_for_write(self, index):
        record = self._links.get(index)
        if record is None:
            record = self.link(index).clone()
            self._links[index] = record
        return record

    def registry_for_write(self):
        if self._registry is None:
            self._registry = self.base.registry.clone()
        return self._registry

    def graph_demons_for_write(self):
        if self._graph_demons is None:
            self._graph_demons = self.base.graph_demons.clone()
        return self._graph_demons

    def demon_table_for_node(self, index):
        """Read-side probe: the node's demon table, or ``None``.

        Never allocates (mirrors the base store) — registration goes
        through :meth:`demon_table_for_write`.
        """
        return self.node_demons.get(index)

    def demon_table_for_write(self, index):
        table = self._node_demons.get(index)
        if table is None:
            base_table = self.base.node_demons.get(index)
            table = (base_table.clone() if base_table is not None
                     else DemonTable())
            self._node_demons[index] = table
        return table

    # ------------------------------------------------------------------
    # deferred attribute-index maintenance

    def queue_index(self, op: str, *args) -> None:
        """Queue an index update for commit-apply."""
        if self._index is not None:
            self._index_ops.append((op,) + args)

    # ------------------------------------------------------------------
    # deferred change-event collection (subscription feeds)

    def record_event(self, event) -> None:
        """Buffer a fired change event for post-commit feed emission."""
        self.events.append(event)

    # ------------------------------------------------------------------
    # outcome

    @property
    def dirty(self) -> bool:
        """True when this transaction staged any change."""
        return bool(self._nodes or self._links or self._node_demons
                    or self._index_ops
                    or self._registry is not None
                    or self._graph_demons is not None
                    or self._next_node_index is not None
                    or self._next_link_index is not None)

    def apply(self) -> None:
        """Publish the private records into the base store.

        Runs after the commit blob is durable.  Each step is one
        GIL-atomic pointer assignment; the order guarantees that a
        lock-free reader never follows a reference to a record that is
        not yet published:

        1. brand-new links (referenced by updated/new node records) —
           the link table appends their rows *and* their adjacency-run
           entries here, in ascending index order so the table's sorted
           invariant holds;
        2. brand-new nodes (may list the links from step 1);
        3. replacement records for pre-existing nodes/links (the only
           records whose indices readers could already be holding);
        4. registry, demon tables, index counters;
        5. deferred attribute-index updates.

        A link published in step 1 may reference a node from step 2 for
        a moment, but readers only discover links through node records
        (traversal) or through ``live_links`` scans whose query layer
        drops links with unmatched endpoints — neither path dereferences
        a missing node.
        """
        base = self.base
        if self._catalog is not None:
            # Published records rebind to the base catalog before they
            # become reachable, so post-commit mutations (recovery
            # replay, replicated applies) intern/release directly.
            for record in self._nodes.values():
                record.rebind_catalog(self._catalog.base)
        new_links = sorted(index for index in self._links
                           if index not in base.links)
        new_nodes = sorted(index for index in self._nodes
                           if index not in base.nodes)
        for index in new_links:
            base.links[index] = self._links[index]
        for index in new_nodes:
            base.nodes[index] = self._nodes[index]
        for index, record in sorted(self._nodes.items()):
            if record is not base.nodes.get(index):
                base.nodes[index] = record
        for index, record in sorted(self._links.items()):
            if record is not base.links.get(index):
                base.links[index] = record
        if self._registry is not None:
            base.registry = self._registry
        if self._graph_demons is not None:
            base.graph_demons = self._graph_demons
        for index, table in sorted(self._node_demons.items()):
            base.node_demons[index] = table
        if self._next_node_index is not None:
            base.next_node_index = max(base.next_node_index,
                                       self._next_node_index)
        if self._next_link_index is not None:
            base.next_link_index = max(base.next_link_index,
                                       self._next_link_index)
        index = self._index
        for op in self._index_ops:
            kind = op[0]
            if kind == "set":
                index.set_value(op[1], op[2], op[3])
            elif kind == "delete":
                index.delete_value(op[1], op[2])
            elif kind == "drop":
                index.drop_node(op[1])
            else:  # pragma: no cover - registry invariant
                raise AssertionError(f"unknown index op {kind!r}")
        if self._catalog is not None:
            # Superseded payloads really are no longer retained: apply
            # the deferred releases.
            self._catalog.commit()

    def discard(self) -> None:
        """Abort hook: un-intern everything this transaction staged.

        The store was never touched, so dropping the overlay remains
        free — only the catalog refs the staged check-ins took have to
        come back out.
        """
        if self._catalog is not None:
            self._catalog.abort()
