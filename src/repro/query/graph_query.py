"""``getGraphQuery``: the associative query mechanism.

Appendix: "Returns a sub-graph of the graph given by Context at Time,
composed by all nodes and links such that each of the nodes in NodeIndex*
satisfies Predicate₁, each link … satisfies Predicate₂ and each link in
LinkIndex* connects two nodes in NodeIndex*."

Unlike the traversal, this "directly accesses a set of nodes" (§3).
Execution is plan-driven (:mod:`repro.query.planner`): the predicate is
normalized and compiled, an index access path produces a candidate
superset (equality/range/presence probes, intersected for ``and``,
unioned for ``or``) when a current-time index is available, and the
residual predicate runs over the candidates through the columnar batch
evaluator (:mod:`repro.query.batch`).  Every step only ever *narrows*
a superset, so results are identical to evaluating the raw predicate
against every live entity — the differential suite enforces exactly
that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import GraphStore
from repro.core.types import CURRENT, AttributeIndex, LinkIndex, NodeIndex, \
    Time
from repro.query.batch import batch_filter
from repro.query.index import AttributeValueIndex
from repro.query.planner import QueryPlan, plan_query
from repro.query.predicate import Predicate
from repro.query.traversal import attribute_values
from repro.tools.metrics import PLANNER

__all__ = ["get_graph_query", "QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """The Appendix's ``(NodeIndex × Value^m)* × (LinkIndex × Value^n)*``."""

    nodes: tuple[tuple[NodeIndex, tuple], ...]
    links: tuple[tuple[LinkIndex, tuple], ...]

    @property
    def node_indexes(self) -> list[NodeIndex]:
        """Just the node indexes, in index order."""
        return [index for index, __ in self.nodes]

    @property
    def link_indexes(self) -> list[LinkIndex]:
        """Just the link indexes, in index order."""
        return [index for index, __ in self.links]


def get_graph_query(
    store: GraphStore,
    time: Time,
    node_predicate: Predicate,
    link_predicate: Predicate,
    node_attributes: list[AttributeIndex] | None = None,
    link_attributes: list[AttributeIndex] | None = None,
    index: AttributeValueIndex | None = None,
    stats: AttributeValueIndex | None = None,
    plan: QueryPlan | None = None,
) -> QueryResult:
    """All nodes matching ``node_predicate`` plus their interconnections.

    When ``index`` is supplied (current-time queries only), the plan's
    access path prunes the candidate set before residual evaluation —
    the B3 ablation.  ``stats`` (the index again, also when it cannot
    prune) feeds the plan's selectivity estimates; a pre-built ``plan`` (from :func:`repro.query.planner.plan_query`
    with matching arguments) skips re-planning.
    """
    node_attributes = node_attributes or []
    link_attributes = link_attributes or []

    indexed = index is not None and time == CURRENT
    if plan is None:
        plan = plan_query(node_predicate, store.registry, stats=stats,
                          indexed=indexed, link_predicate=link_predicate)
    PLANNER.increment("plans")
    PLANNER.increment(f"shape_{plan.shape}")

    candidates, probes = plan.fetch_candidates(index if indexed else None)
    if probes:
        PLANNER.increment("index_probes", probes)
    if candidates is None:
        node_records = store.live_nodes(time)
    else:
        node_records = [
            store.nodes[node_index]
            for node_index in sorted(candidates)
            if node_index in store.nodes
            and store.nodes[node_index].alive_at(time)
        ]
        PLANNER.increment(
            "rows_pruned", max(0, len(store.nodes) - len(node_records)))
    PLANNER.increment("rows_scanned", len(node_records))

    matched: dict[NodeIndex, tuple] = {}
    for node in batch_filter(node_records, plan.compiled, time):
        matched[node.index] = tuple(
            attribute_values(node, node_attributes, time))
    PLANNER.increment("rows_matched", len(matched))

    link_compiled = plan.link_compiled
    if link_compiled is None:
        # Pre-built plans always carry the link filter; this covers a
        # direct call that skipped link_predicate at plan time.
        from repro.query.planner import compile_predicate
        link_compiled = compile_predicate(link_predicate, store.registry,
                                          stats)
    # Interconnecting links: a link qualifies when both endpoints
    # matched.  With a small match set, gathering each matched node's
    # outgoing adjacency run is O(sum of matched degrees); a full live
    # column scan is O(total links).  Either path yields exactly the
    # same set — every qualifying link leaves a matched node — so this
    # is purely an access-path choice (each link appears once: in its
    # unique from-node's run).
    if matched and 4 * len(matched) <= len(store.nodes):
        PLANNER.increment("adjacency_gathers")
        link_records = [
            link
            for node_index in matched
            for link in store.links_from(node_index, time)
            if link.to_node in matched
        ]
        link_records.sort(key=lambda link: link.index)
    else:
        link_records = [
            link for link in store.live_links(time)
            if link.from_node in matched and link.to_node in matched
        ]
    links_out = [
        (link.index, tuple(attribute_values(link, link_attributes, time)))
        for link in batch_filter(link_records, link_compiled, time)
    ]

    nodes_out = tuple(sorted(matched.items()))
    return QueryResult(nodes_out, tuple(links_out))
