"""Contexts: multiple version threads (the paper's §5 extension).

§5: "there is frequently the need for an individual to try out tentative
designs in that individual's own 'private world' and then eventually to
merge the chosen design back with the main design database … We have
designed, and are currently implementing, a scheme for multiple version
threads that allows multiple simultaneous contexts to exist in a given
Neptune database.  These contexts can also be used for clustering related
nodes and links as well as for configuration management."

Implementation: a :class:`Context` is an overlay on the base graph,
created at a point in time.  Inside a context you can modify node
contents, add nodes and links, and set attributes; reads see the overlay
on top of the base graph *as it was at creation*.  :meth:`ContextManager.merge`
folds a context back:

- content edits check in cleanly when the base node is unchanged since
  the context forked; otherwise a three-way merge (fork-point version,
  context version, current base version) runs, and irreconcilable regions
  are reported as conflicts;
- nodes and links created in the context are re-created in the base with
  fresh indexes (the report carries the index mapping);
- attribute edits re-apply on the merged entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps._txn import in_txn
from repro.core.ham import HAM
from repro.core.types import (
    CURRENT,
    ContextId,
    LinkIndex,
    LinkPt,
    NodeIndex,
    Time,
)
from repro.errors import ContextError, MergeConflictError, NodeNotFoundError
from repro.storage.diff import merge3_bytes
from repro.txn.manager import Transaction

__all__ = ["Context", "ContextManager", "MergeReport"]

#: Context-local node indexes start here so they can't collide with base
#: indexes in any realistic graph (and collisions are detected anyway).
_LOCAL_BASE = 1_000_000_000


@dataclass
class MergeReport:
    """Outcome of merging a context back into the base graph."""

    context: ContextId
    merged_nodes: list[NodeIndex] = field(default_factory=list)
    three_way_nodes: list[NodeIndex] = field(default_factory=list)
    conflicts: list[tuple[NodeIndex, tuple]] = field(default_factory=list)
    created_nodes: dict[NodeIndex, NodeIndex] = field(default_factory=dict)
    created_links: dict[LinkIndex, LinkIndex] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no conflicting regions were found."""
        return not self.conflicts


class Context:
    """One private version thread over a base graph."""

    def __init__(self, context_id: ContextId, name: str, ham: HAM,
                 forked_at: Time):
        self.context_id = context_id
        self.name = name
        self.forked_at = forked_at
        self._ham = ham
        self._edits: dict[NodeIndex, bytes] = {}
        #: fork-point contents of edited base nodes (merge base).
        self._base_contents: dict[NodeIndex, bytes] = {}
        self._new_nodes: dict[NodeIndex, bytes] = {}
        self._new_node_attrs: dict[NodeIndex, dict[str, str]] = {}
        self._attr_edits: dict[NodeIndex, dict[str, str]] = {}
        self._new_links: list[tuple[LinkIndex, LinkPt, LinkPt, dict]] = []
        self._next_local = _LOCAL_BASE + 1
        self.merged = False

    # ------------------------------------------------------------------
    # context-local operations

    def _require_open(self) -> None:
        if self.merged:
            raise ContextError(
                f"context {self.name!r} was already merged")

    def is_local(self, index: int) -> bool:
        """True for indexes minted inside this context."""
        return index > _LOCAL_BASE

    def add_node(self, contents: bytes = b"",
                 attributes: dict[str, str] | None = None) -> NodeIndex:
        """Create a context-local node (exists only in this thread)."""
        self._require_open()
        index = self._next_local
        self._next_local += 1
        self._new_nodes[index] = bytes(contents)
        self._new_node_attrs[index] = dict(attributes or {})
        return index

    def add_link(self, from_pt: LinkPt, to_pt: LinkPt,
                 attributes: dict[str, str] | None = None) -> LinkIndex:
        """Create a context-local link (endpoints may be base or local)."""
        self._require_open()
        for pt in (from_pt, to_pt):
            if not self.is_local(pt.node):
                # Raises NodeNotFoundError unless alive at the fork point.
                self._ham.open_node(pt.node, time=self.forked_at)
            elif pt.node not in self._new_nodes:
                raise NodeNotFoundError(
                    f"context-local node {pt.node} does not exist")
        index = self._next_local
        self._next_local += 1
        self._new_links.append((index, from_pt, to_pt,
                                dict(attributes or {})))
        return index

    def modify_node(self, node: NodeIndex, contents: bytes) -> None:
        """Edit a node inside the context (base or context-local)."""
        self._require_open()
        if self.is_local(node):
            if node not in self._new_nodes:
                raise NodeNotFoundError(
                    f"context-local node {node} does not exist")
            self._new_nodes[node] = bytes(contents)
            return
        base = self._ham.open_node(node, time=self.forked_at)[0]
        if node not in self._base_contents:
            self._base_contents[node] = base
        self._edits[node] = bytes(contents)

    def set_attribute(self, node: NodeIndex, name: str, value: str) -> None:
        """Set a node attribute inside the context."""
        self._require_open()
        if self.is_local(node):
            if node not in self._new_nodes:
                raise NodeNotFoundError(
                    f"context-local node {node} does not exist")
            self._new_node_attrs[node][name] = value
            return
        self._ham.open_node(node, time=self.forked_at)
        self._attr_edits.setdefault(node, {})[name] = value

    def read_node(self, node: NodeIndex) -> bytes:
        """Contents as seen from inside the context (overlay first)."""
        self._require_open()
        if self.is_local(node):
            try:
                return self._new_nodes[node]
            except KeyError:
                raise NodeNotFoundError(
                    f"context-local node {node} does not exist") from None
        if node in self._edits:
            return self._edits[node]
        return self._ham.open_node(node, time=self.forked_at)[0]

    @property
    def edited_nodes(self) -> list[NodeIndex]:
        """Base nodes with pending content edits in this context."""
        return sorted(self._edits)


class ContextManager:
    """Creates, tracks, and merges contexts for one HAM instance."""

    def __init__(self, ham: HAM):
        self._ham = ham
        self._contexts: dict[ContextId, Context] = {}
        self._next_id: ContextId = 1

    def create(self, name: str) -> Context:
        """Fork a new context at the graph's current time."""
        context = Context(self._next_id, name, self._ham,
                          forked_at=self._ham.now)
        self._contexts[self._next_id] = context
        self._next_id += 1
        return context

    def get(self, context_id: ContextId) -> Context:
        """Look up an open context by id."""
        try:
            return self._contexts[context_id]
        except KeyError:
            raise ContextError(
                f"context {context_id} does not exist") from None

    def open_contexts(self) -> list[Context]:
        """Contexts that exist and have not been merged."""
        return [c for c in self._contexts.values() if not c.merged]

    # ------------------------------------------------------------------
    # merge

    def merge(self, context: Context, txn: Transaction | None = None,
              require_clean: bool = False) -> MergeReport:
        """Fold a context back into the base graph.

        Runs in one transaction: either the whole merge commits or none
        of it does.  With ``require_clean=True`` a conflicting merge
        raises :class:`MergeConflictError` (and changes nothing); the
        default records conflicts in the report and keeps the context's
        side for conflicting regions — mirroring :func:`merge3`.
        """
        context._require_open()
        ham = self._ham
        report = MergeReport(context.context_id)
        with in_txn(ham, txn) as t:
            # Read each edited node inside the merge transaction: the
            # read takes the node's lock (in one sorted order for every
            # merger) and holds it to commit, so no commit can land
            # between the version merged against and the write.  The
            # whole plan is made before the first write, so
            # require_clean can bail having changed nothing.
            planned: dict[NodeIndex, tuple[bytes, Time]] = {}
            for node in context.edited_nodes:
                current, __, ___, current_time = ham.open_node(node, txn=t)
                base = context._base_contents[node]
                ours = context._edits[node]
                if current == base:
                    planned[node] = ours, current_time
                    continue
                result = merge3_bytes(base, ours, current)
                planned[node] = b"".join(result.merged), current_time
                report.three_way_nodes.append(node)
                if not result.clean:
                    report.conflicts.append((node, result.conflicts))
            if require_clean and report.conflicts:
                raise MergeConflictError(
                    f"context {context.name!r} merge has conflicts on "
                    f"nodes {[node for node, __ in report.conflicts]}")
            for node, (contents, current_time) in sorted(planned.items()):
                ham.modify_node(
                    t, node=node, expected_time=current_time,
                    contents=contents,
                    explanation=f"merge of context {context.name!r}")
                report.merged_nodes.append(node)
            for local_index, contents in sorted(context._new_nodes.items()):
                new_index, new_time = ham.add_node(t, keep_history=True)
                ham.modify_node(
                    t, node=new_index, expected_time=new_time,
                    contents=contents,
                    explanation=f"created in context {context.name!r}")
                for name, value in sorted(
                        context._new_node_attrs[local_index].items()):
                    attr = ham.get_attribute_index(name, t)
                    ham.set_node_attribute_value(
                        t, node=new_index, attribute=attr, value=value)
                report.created_nodes[local_index] = new_index
            for local_index, from_pt, to_pt, attrs in context._new_links:
                resolved_from = self._resolve_pt(from_pt, report)
                resolved_to = self._resolve_pt(to_pt, report)
                new_index, __ = ham.add_link(
                    t, from_pt=resolved_from, to_pt=resolved_to)
                for name, value in sorted(attrs.items()):
                    attr = ham.get_attribute_index(name, t)
                    ham.set_link_attribute_value(
                        t, link=new_index, attribute=attr, value=value)
                report.created_links[local_index] = new_index
            for node, edits in sorted(context._attr_edits.items()):
                for name, value in sorted(edits.items()):
                    attr = ham.get_attribute_index(name, t)
                    ham.set_node_attribute_value(
                        t, node=node, attribute=attr, value=value)

        context.merged = True
        return report

    def _resolve_pt(self, pt: LinkPt, report: MergeReport) -> LinkPt:
        """Rewrite a context-local endpoint to its merged base node."""
        if pt.node > _LOCAL_BASE:
            base_node = report.created_nodes.get(pt.node)
            if base_node is None:
                raise ContextError(
                    f"link endpoint references unmerged local node "
                    f"{pt.node}")
            return LinkPt(node=base_node, position=pt.position,
                          time=pt.time, track_current=pt.track_current)
        return pt

    def abandon(self, context: Context) -> None:
        """Discard a context without merging (the tentative design lost)."""
        context._require_open()
        context.merged = True
        self._contexts.pop(context.context_id, None)
