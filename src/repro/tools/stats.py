"""Graph statistics: what an operator asks before/after maintenance.

Aggregates counts and storage accounting across one graph: live/total
nodes and links, version counts, attribute usage, and the delta-chain
byte split (current bytes vs. stored history bytes) that benchmark B1
characterizes.

Also surfaces the process-wide resilience counters
(:data:`repro.tools.metrics.RESILIENCE`): how many reconnects and
request retries remote clients performed, and how many injected faults
fired — the operator's view of how rough the session has been.

Commit-pipeline accounting lives here too: :func:`wal_stats` snapshots
one graph's write-ahead-log counters (appends, fsyncs, group-commit
absorption) and :func:`wal_counters` the process-wide mirror
(:data:`repro.tools.metrics.WAL`) — the numbers that prove whether
group commit is amortizing the durability point
(``fsyncs_per_commit`` < 1) or every committer is paying its own fsync.

Concurrency-control accounting: :func:`lock_stats` snapshots one
graph's lock-manager counters (grants, waits, wait time, deadlock
victims, timeouts), :func:`snapshot_stats` its MVCC snapshot-read
counters (watermark, read-only transactions served lock-free, lock
requests bypassed), and :func:`concurrency_counters` the process-wide
mirror (:data:`repro.tools.metrics.CONCURRENCY`) — together they make
"read-only transactions acquire zero locks" an assertable property
rather than a design claim.

Server-core accounting: :func:`server_counters` snapshots the
process-wide :data:`repro.tools.metrics.SERVER` mirror (sessions
accepted/rejected, idle reaps, backpressure pauses, pipelining
high-water marks) and :func:`render_server` formats either that or one
server's ``stats()`` dict.

Query-planner accounting: :func:`planner_counters` snapshots the
process-wide :data:`repro.tools.metrics.PLANNER` mirror (plans by
shape, index probes, rows scanned/pruned/matched, seqlock fallbacks)
and :func:`render_planner` formats it — the numbers behind "did the
planner actually use the index, and how much did it prune?".

Replication accounting: :func:`replication_counters` snapshots the
process-wide :data:`repro.tools.metrics.REPLICATION` mirror (replay
lag high-water marks, promotions, stale-read rejections) and
:func:`render_replication` formats either that or one node's
``replStatus`` dict — the operator's answer to "how far behind are the
replicas, and has anyone failed over?".

Columnar-graph-core accounting: :func:`graph_counters` snapshots the
process-wide :data:`repro.tools.metrics.GRAPH` mirror (adjacency-run
hits, ordered column scans, row-facade dict materializations) and
:func:`render_graph` formats it — the numbers behind "are traversals
really O(degree), and has anything regressed to per-object dicts?".

Change-feed accounting: :func:`subscription_counters` snapshots the
process-wide :data:`repro.tools.metrics.SUBSCRIPTIONS` mirror (events
fired/delivered/dropped, overflow cancellations, outbuf high water,
client resubscribes) and :func:`render_subscriptions` formats either
that or one graph's ``subscriptionStatus`` dict — with the invariant
``delivered + dropped == fired`` making "no event silently vanished"
an assertable property.

Content-store accounting: :func:`cache_stats` snapshots the shared
materialization block cache (:mod:`repro.storage.blockcache` — hit
rate, admission/eviction traffic, resident bytes),
:func:`catalog_stats` one graph's blob catalog
(:mod:`repro.storage.cas` — interned blobs, refs, and the dedup ratio
of logical to stored bytes), :func:`cache_counters` the process-wide
:data:`repro.tools.metrics.CACHE` mirror, and :func:`render_cache`
formats all three — the numbers behind "is the cache absorbing the
deep-version reads, and how much is content addressing saving?".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ham import HAM
from repro.core.types import CURRENT
from repro.storage.log import WalStats
from repro.tools.metrics import (
    CACHE,
    CONCURRENCY,
    GRAPH,
    PLANNER,
    REPLICATION,
    RESILIENCE,
    SERVER,
    SUBSCRIPTIONS,
    WAL,
)
from repro.txn.locks import LockStats

__all__ = ["GraphStats", "cache_counters", "cache_stats",
           "catalog_stats", "concurrency_counters", "graph_counters",
           "graph_stats",
           "lock_stats", "planner_counters", "render_cache",
           "render_concurrency", "render_graph",
           "render_planner", "render_replication", "render_resilience",
           "render_server", "render_subscriptions", "render_wal",
           "replication_counters",
           "resilience_stats", "server_counters", "snapshot_stats",
           "subscription_counters", "wal_counters", "wal_stats"]


@dataclass(frozen=True)
class GraphStats:
    """One graph's vital signs."""

    node_count: int
    live_node_count: int
    link_count: int
    live_link_count: int
    archive_count: int
    file_count: int
    content_version_count: int
    minor_version_count: int
    attribute_count: int
    demon_binding_count: int
    current_bytes: int
    history_bytes: int
    clock_now: int

    @property
    def total_bytes(self) -> int:
        """Current contents plus stored history."""
        return self.current_bytes + self.history_bytes

    def render(self) -> str:
        """Human-readable report."""
        rows = [
            ("nodes (live/total)",
             f"{self.live_node_count}/{self.node_count}"),
            ("links (live/total)",
             f"{self.live_link_count}/{self.link_count}"),
            ("archives / files",
             f"{self.archive_count} / {self.file_count}"),
            ("content versions", str(self.content_version_count)),
            ("minor versions", str(self.minor_version_count)),
            ("attributes defined", str(self.attribute_count)),
            ("demon bindings", str(self.demon_binding_count)),
            ("current bytes", str(self.current_bytes)),
            ("history bytes", str(self.history_bytes)),
            ("logical time", str(self.clock_now)),
        ]
        width = max(len(label) for label, __ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}"
                         for label, value in rows)


def graph_stats(ham: HAM) -> GraphStats:
    """Collect :class:`GraphStats` for an opened HAM."""
    store = ham.store
    archive_count = file_count = 0
    content_versions = minor_versions = 0
    current_bytes = history_bytes = 0
    for node in store.nodes.values():
        if node.is_archive:
            archive_count += 1
            stats = node.storage_stats()
            current_bytes += stats.current_bytes
            history_bytes += stats.delta_bytes
        else:
            file_count += 1
            if node.protections.readable:
                current_bytes += len(node.contents_at())
        content_versions += len(node.content_version_times())
        minor_versions += len(node.minor_versions())
    demon_bindings = len(store.graph_demons.demons_at(CURRENT))
    for table in store.node_demons.values():
        demon_bindings += len(table.demons_at(CURRENT))
    return GraphStats(
        node_count=len(store.nodes),
        live_node_count=len(store.live_nodes(CURRENT)),
        link_count=len(store.links),
        live_link_count=len(store.live_links(CURRENT)),
        archive_count=archive_count,
        file_count=file_count,
        content_version_count=content_versions,
        minor_version_count=minor_versions,
        attribute_count=len(store.registry.all_at(CURRENT)),
        demon_binding_count=demon_bindings,
        current_bytes=current_bytes,
        history_bytes=history_bytes,
        clock_now=store.clock.now,
    )


def resilience_stats() -> dict[str, int]:
    """Snapshot of the process-wide resilience counters."""
    return RESILIENCE.snapshot()


def render_resilience() -> str:
    """Human-readable report of the resilience counters."""
    counters = resilience_stats()
    width = max(len(name) for name in counters)
    return "\n".join(f"{name.ljust(width)}  {value}"
                     for name, value in sorted(counters.items()))


def wal_stats(ham: HAM) -> WalStats:
    """Snapshot of one opened graph's write-ahead-log counters.

    Ephemeral (logless) graphs report all-zero stats.
    """
    return ham._log.stats()


def wal_counters() -> dict[str, int]:
    """Snapshot of the process-wide WAL counters (all logs combined)."""
    return WAL.snapshot()


def lock_stats(ham: HAM) -> LockStats:
    """Snapshot of one opened graph's lock-manager counters."""
    return ham._txns.locks.stats()


def snapshot_stats(ham: HAM) -> dict:
    """Snapshot of one graph's MVCC snapshot-read counters.

    Keys: ``watermark`` (newest fully-published commit time),
    ``apply_seq`` (commit-apply seqlock value), ``inflight_writers``,
    ``read_only_txns``, ``snapshot_txns`` (read-only transactions served
    lock-free from a pinned watermark), and ``lock_bypasses`` (lock
    requests those transactions skipped).
    """
    return ham._txns.snapshot_stats()


def concurrency_counters() -> dict[str, int]:
    """Snapshot of the process-wide concurrency counters."""
    return CONCURRENCY.snapshot()


def server_counters() -> dict[str, int]:
    """Snapshot of the process-wide server-core counters.

    ``accepted``/``rejected`` count session admissions against the
    connection cap, ``timeouts`` idle sessions reaped, ``paused_reads``
    how often backpressure stopped reading a socket, and
    ``pipelined_depth``/``queue_high_water`` are high-water marks of
    per-session in-flight requests and inbound-queue depth.  Per-server
    totals are on :meth:`repro.server.server.HAMServer.stats`.
    """
    return SERVER.snapshot()


def render_server(counters: dict[str, int] | None = None) -> str:
    """Human-readable report of the server-core counters.

    Renders the process-wide set by default; pass one server's
    ``stats()`` dict to report on it alone.
    """
    counters = server_counters() if counters is None else counters
    rows = [
        ("sessions accepted", counters.get("accepted", 0)),
        ("sessions rejected (busy)", counters.get("rejected", 0)),
        ("idle sessions reaped", counters.get("timeouts", 0)),
        ("reads paused (backpressure)", counters.get("paused_reads", 0)),
        ("pipelined depth (high water)",
         counters.get("pipelined_depth", 0)),
        ("inbound queue (high water)",
         counters.get("queue_high_water", 0)),
    ]
    for extra in ("dispatched", "active_sessions", "workers"):
        if extra in counters:
            rows.append((extra.replace("_", " "), counters[extra]))
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def planner_counters() -> dict[str, int]:
    """Snapshot of the process-wide query-planner counters.

    ``plans`` counts queries planned and the ``shape_*`` counters split
    them by chosen access path; ``index_probes`` are individual posting
    fetches, ``rows_scanned``/``rows_pruned``/``rows_matched`` account
    for candidate records touched, skipped, and matched, ``fallbacks``
    counts snapshot queries that abandoned the live index because the
    apply seqlock proved it stale, ``compiled_traversals`` counts
    ``linearizeGraph`` calls run with compiled predicates, and
    ``explains`` counts plan renderings.
    """
    return PLANNER.snapshot()


def render_planner(counters: dict[str, int] | None = None) -> str:
    """Human-readable report of the query-planner counters."""
    counters = planner_counters() if counters is None else counters
    shapes = [(name[len("shape_"):].replace("_", "-"), value)
              for name, value in sorted(counters.items())
              if name.startswith("shape_")]
    rows = [("plans", counters.get("plans", 0))]
    rows.extend((f"  shape {shape}", value) for shape, value in shapes)
    rows.extend([
        ("index probes", counters.get("index_probes", 0)),
        ("rows scanned", counters.get("rows_scanned", 0)),
        ("rows pruned", counters.get("rows_pruned", 0)),
        ("rows matched", counters.get("rows_matched", 0)),
        ("seqlock fallbacks", counters.get("fallbacks", 0)),
        ("compiled traversals", counters.get("compiled_traversals", 0)),
        ("explains", counters.get("explains", 0)),
    ])
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def graph_counters() -> dict[str, int]:
    """Snapshot of the process-wide columnar-graph-core counters.

    ``adjacency_hits`` counts traversal-style reads answered from a
    per-node adjacency run (``linksFrom``/``linksTo``, the traversal's
    out-link walk, the query layer's interconnection gather) —
    O(degree) paths that would otherwise scan every link;
    ``column_scans`` counts full ``live_nodes``/``live_links`` passes
    over the index-ordered record columns (sort-free, but still linear
    in table size); ``facade_materializations`` counts full
    ``{attribute: value}`` dict builds off a row facade — the
    per-object pattern the columnar core exists to avoid, so a hot
    system should see it stay flat while adjacency hits climb.
    """
    return GRAPH.snapshot()


def render_graph(counters: dict[str, int] | None = None) -> str:
    """Human-readable report of the columnar-graph-core counters."""
    counters = graph_counters() if counters is None else counters
    rows = [
        ("adjacency hits (O(degree))", counters.get("adjacency_hits", 0)),
        ("column scans (live_*)", counters.get("column_scans", 0)),
        ("facade materializations",
         counters.get("facade_materializations", 0)),
    ]
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def replication_counters() -> dict[str, int]:
    """Snapshot of the process-wide replication counters.

    ``lag_bytes`` and ``lag_commits`` are gauges — the last sampled gap
    between a replica's replay and the primary's durable log end
    (bytes), and the transaction groups last seen undecided in its
    reorder buffer — so they fall back to zero as replicas catch up;
    ``replayed_lsn`` is the highest watermark any replica reached;
    ``promotions`` counts replica-to-primary failovers and
    ``stale_rejects`` reads the router refused (or re-routed to the
    primary) because a configured replica tier could not serve them
    within the staleness budget / read-your-writes guarantees.
    """
    return REPLICATION.snapshot()


def render_replication(status: dict | None = None) -> str:
    """Human-readable replication report.

    Renders the process-wide counters by default; pass one node's
    ``replStatus`` dict (primary or replica) to report on it alone.  A
    replica that is not streaming reports its lag as unknown.
    """
    if status is None:
        counters = replication_counters()
        rows = [
            ("lag bytes (last sample)", counters.get("lag_bytes", 0)),
            ("lag commits (last sample)", counters.get("lag_commits", 0)),
            ("replayed lsn (high water)",
             counters.get("replayed_lsn", 0)),
            ("promotions", counters.get("promotions", 0)),
            ("stale reads rejected", counters.get("stale_rejects", 0)),
        ]
    else:
        lag = status.get("lag_bytes", 0)
        rows = [
            ("role", status.get("role", "?")),
            ("epoch", status.get("epoch", 0)),
            ("base lsn", status.get("base_lsn", 0)),
            ("end lsn", status.get("end_lsn", 0)),
            ("durable lsn", status.get("durable_lsn", 0)),
            ("replayed lsn", status.get("replayed_lsn", 0)),
            ("lag bytes", "unknown" if lag is None else lag),
            ("commit watermark", status.get("watermark", 0)),
        ]
        if status.get("role") == "replica":
            rows.extend([
                ("source durable lsn",
                 status.get("source_durable_lsn", 0)),
                ("commits applied", status.get("commits_applied", 0)),
                ("streaming", status.get("streaming", False)),
            ])
        else:
            for name, ack in sorted(
                    (status.get("subscribers") or {}).items()):
                rows.append((f"  subscriber {name} acked", ack))
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def subscription_counters() -> dict[str, int]:
    """Snapshot of the process-wide change-feed counters.

    ``fired`` counts events that matched some subscription's filter,
    ``delivered`` the subset handed to a live consumer and ``dropped``
    the subset lost when a feed was cancelled — ``delivered + dropped
    == fired`` always, because overflow cancels a whole feed rather
    than skipping events.  ``overflows`` counts those cancellations,
    ``queue_high_water`` is the largest projected per-session outbuf a
    push was admitted into, ``resubscribes`` counts client-side
    re-registrations after a reconnect, and ``active`` is a gauge of
    currently attached subscriptions.
    """
    return SUBSCRIPTIONS.snapshot()


def render_subscriptions(status: dict | None = None) -> str:
    """Human-readable change-feed report.

    Renders the process-wide counters by default; pass one graph's
    ``subscriptionStatus`` dict to report on its hub (and, over RPC,
    the calling session) alone.
    """
    if status is None:
        counters = subscription_counters()
        rows = [
            ("events fired", counters.get("fired", 0)),
            ("events delivered", counters.get("delivered", 0)),
            ("events dropped", counters.get("dropped", 0)),
            ("overflow cancellations", counters.get("overflows", 0)),
            ("outbuf high water (bytes)",
             counters.get("queue_high_water", 0)),
            ("client resubscribes", counters.get("resubscribes", 0)),
            ("active subscriptions", counters.get("active", 0)),
        ]
    else:
        rows = [
            ("active subscriptions", status.get("active", 0)),
            ("staged commits", status.get("staged", 0)),
            ("last emitted lsn", status.get("last_emitted_lsn", 0)),
            ("replay ring depth", status.get("replay_depth", 0)),
            ("replay floor lsn", status.get("replay_floor", 0)),
        ]
        for extra in ("session_subscriptions", "outbuf_bytes"):
            if extra in status:
                rows.append((extra.replace("_", " "), status[extra]))
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def cache_counters() -> dict[str, int]:
    """Snapshot of the process-wide content-store counters.

    ``hits``/``misses`` count block-cache lookups across every cache
    instance in the process, ``admissions``/``rejections`` the
    frequency filter's verdicts on inserts, ``evictions`` entries
    pushed out to make room, ``cached_bytes``/``cached_entries`` are
    gauges of the default cache's residency, and
    ``interned_blobs``/``dedup_hits`` count catalog interns and the
    subset answered by an already-stored identical payload.
    """
    return CACHE.snapshot()


def cache_stats(cache=None):
    """Snapshot of one block cache's counters (the default by default).

    Returns :class:`repro.storage.blockcache.CacheStats`.
    """
    from repro.storage.blockcache import default_cache
    return (default_cache() if cache is None else cache).stats()


def catalog_stats(ham: HAM):
    """Snapshot of one opened graph's blob catalog.

    Returns :class:`repro.storage.cas.CatalogStats`; the headline
    number is ``dedup_ratio`` — logical bytes retained by version
    chains over bytes actually stored once content addressing
    collapses identical payloads.
    """
    return ham.store.catalog.stats()


def render_cache(ham: HAM | None = None, cache=None) -> str:
    """Human-readable content-store report.

    Always renders the block cache (the process-default unless
    ``cache`` is given); pass a ``ham`` to append its graph's catalog
    accounting.
    """
    stats = cache_stats(cache)
    rows = [
        ("cache capacity bytes", str(stats.max_bytes)),
        ("cache resident bytes", str(stats.current_bytes)),
        ("  protected bytes", str(stats.protected_bytes)),
        ("  probation bytes", str(stats.probation_bytes)),
        ("cache entries", str(stats.entries)),
        ("hits", str(stats.hits)),
        ("misses", str(stats.misses)),
        ("hit rate", f"{stats.hit_rate:.3f}"),
        ("admissions", str(stats.admissions)),
        ("rejections (filter)", str(stats.rejections)),
        ("evictions", str(stats.evictions)),
    ]
    if ham is not None:
        catalog = catalog_stats(ham)
        rows.extend([
            ("catalog blobs", str(catalog.blobs)),
            ("catalog refs", str(catalog.refs)),
            ("stored bytes", str(catalog.stored_bytes)),
            ("logical bytes", str(catalog.logical_bytes)),
            ("dedup ratio", f"{catalog.dedup_ratio:.2f}"),
        ])
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def render_concurrency(ham: HAM) -> str:
    """Human-readable lock-manager + snapshot-read report for one graph."""
    locks = lock_stats(ham)
    snaps = snapshot_stats(ham)
    rows = [
        ("lock acquires", str(locks.acquires)),
        ("lock waits", str(locks.waits)),
        ("lock wait seconds", f"{locks.wait_seconds:.3f}"),
        ("deadlock victims", str(locks.deadlock_victims)),
        ("lock timeouts", str(locks.timeouts)),
        ("commit watermark", str(snaps["watermark"])),
        ("in-flight writers", str(snaps["inflight_writers"])),
        ("read-only txns", str(snaps["read_only_txns"])),
        ("snapshot txns (lock-free)", str(snaps["snapshot_txns"])),
        ("lock requests bypassed", str(snaps["lock_bypasses"])),
    ]
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)


def render_wal(stats: WalStats) -> str:
    """Human-readable report of one log's commit-pipeline counters."""
    rows = [
        ("appends (blob writes)", str(stats.appends)),
        ("records appended", str(stats.records)),
        ("fsyncs (total)", str(stats.fsyncs)),
        ("commit forces", str(stats.commit_forces)),
        ("absorbed commits", str(stats.absorbed_commits)),
        ("group fsyncs", str(stats.group_fsyncs)),
        ("bytes flushed", str(stats.bytes_flushed)),
        ("fsyncs per commit", f"{stats.fsyncs_per_commit:.3f}"),
        ("mean group size", f"{stats.mean_group_size:.2f}"),
        ("mean bytes per flush", f"{stats.mean_bytes_per_flush:.1f}"),
    ]
    width = max(len(label) for label, __ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}"
                     for label, value in rows)
